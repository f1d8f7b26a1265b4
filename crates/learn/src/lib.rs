//! safecross-learn: continual learning for a SafeCross fleet.
//!
//! The paper's few-shot machinery (Sec. III-D) adapts a meta-trained
//! classifier to a new scene *offline*. This crate closes the loop
//! *online*: a fleet keeps serving while a background service watches
//! each intersection for distribution shift, adapts per-intersection
//! challenger checkpoints from the clips the incumbent struggled with,
//! and promotes a challenger only after it beats the incumbent on a
//! held-out shadow canary set.
//!
//! The pipeline, end to end:
//!
//! 1. **Harvest** — the learner rides the serving layer's
//!    [`LearnHook`](safecross_serve::LearnHook) seam: every classified
//!    clip is offered on the shard thread, and clips whose raw
//!    confidence falls below [`LearnConfig::harvest_below`] are copied
//!    into a bounded drop-oldest [`ReplayLane`] (one per stream ×
//!    weather, byte-budgeted — a flooding stream can only evict its own
//!    history). A deterministic hash split holds some clips out for
//!    the canary.
//! 2. **Adapt** — a background trainer thread (scoped to each fleet
//!    run, plus one synchronous pass at run end) drains lanes that
//!    accumulated enough support and runs the paper's inner-loop
//!    adaptation ([`safecross_fewshot::adapt_checkpoint`]) against the
//!    incumbent's stored weights, registering the challenger in the
//!    fleet's content-addressed store — unchanged layer groups
//!    deduplicate against the parent.
//! 3. **Canary & promote** — challenger and incumbent both classify
//!    the lane's held-out clips; a strict mean-confidence win queues a
//!    [`Promotion`](safecross_serve::Promotion), which the owning
//!    shard activates between frames through the switcher's pipelined
//!    swap (so a synthetic OOM rolls back to the incumbent and the
//!    learner retires the challenger). Every attempt is journaled as a
//!    [`PromotionRecord`].
//!
//! Memory stays bounded at both ends: replay lanes drop oldest by byte
//! budget, and the checkpoint store's LRU ceiling
//! ([`ModelRegistry::set_memory_ceiling`](safecross_modelswitch::ModelRegistry::set_memory_ceiling))
//! evicts retired challengers while pins protect the base checkpoints
//! and switchers' shared descriptors protect every checkpoint some
//! stream can still switch to.
//!
//! Determinism: the learner owns no RNG — the holdout split and the
//! chaos seam ([`TrainerFaultHook`]) are pure SplitMix64 hashes of
//! (seed, coordinates), and adaptation itself is deterministic SGD.
//! Background-trainer *timing* is the only nondeterminism, and the
//! run-end synchronous pass gives tests a fully deterministic
//! harvest→adapt→promote path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod learner;

pub use buffer::{clip_bytes, ReplayClip, ReplayLane};
pub use learner::{
    ContinualLearner, LearnConfig, LearnStats, PromotionRecord, TrainerFaultHook,
};
