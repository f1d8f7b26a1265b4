//! The continual-learning seam of the serving layer.
//!
//! A [`LearnHook`] installed on a [`FleetServer`](crate::FleetServer)
//! rides the verdict path: every clip a shard classifies is offered to
//! the hook ([`LearnHook::observe`]) right after its forward,
//! so a learner can harvest hard clips without adding a single forward
//! pass to the hot path. In the other direction the hook queues
//! [`Promotion`]s — adapted challenger checkpoints that won their
//! canary — and each shard applies the promotions addressed to its own
//! streams at the top of its serve loop, through
//! [`SafeCross::bind_scene_model`](safecross::SafeCross::bind_scene_model)
//! (which rides the switcher's existing OOM-rollback machinery, so a
//! failed activation leaves the incumbent active).
//!
//! Division of labor: this module is only the *seam* — the concrete
//! harvester/trainer/canary subsystem lives in `safecross-learn`, which
//! depends on this crate. Fleets without a hook pay one `Option` check
//! per executed batch.
//!
//! Determinism: the hook is only consulted by the sharded
//! [`run`](crate::FleetServer::run); the single-threaded
//! [`run_reference`](crate::FleetServer::run_reference) mode never
//! harvests or promotes, so it stays the fixed comparator. Promotions
//! queued *between* runs apply before the next run's first frame
//! (deterministic); promotions queued mid-run land between two batches
//! of a live stream, which is inherent to online adaptation.

use safecross::Verdict;
use safecross_tensor::Tensor;
use safecross_trafficsim::Weather;

/// One classified clip offered to the learner, borrowed straight from
/// the executed batch — harvesting copies only the clips it keeps.
#[derive(Debug)]
pub struct HarvestSample<'a> {
    /// The owning stream's fleet-wide index.
    pub stream: usize,
    /// The scene model family that classified the clip.
    pub weather: Weather,
    /// The clip's per-stream completion sequence number.
    pub seq: u64,
    /// The raw (ungated) verdict the shared model produced.
    pub verdict: Verdict,
    /// The `[1, T, H, W]` clip itself.
    pub clip: &'a Tensor,
}

/// A challenger checkpoint that won its canary and awaits activation on
/// its stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Promotion {
    /// The stream the challenger was adapted for.
    pub stream: usize,
    /// The scene the challenger should replace the incumbent of.
    pub weather: Weather,
    /// The challenger's name in the shared
    /// [`ModelRegistry`](safecross_modelswitch::ModelRegistry).
    pub challenger: String,
}

/// How a queued [`Promotion`] fared when its shard applied it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromotionOutcome {
    /// The challenger is active and every later switch onto its scene
    /// activates it.
    Activated,
    /// Activation failed (the switcher reported OOM) and the rollback
    /// machinery restored the incumbent completely.
    RolledBack,
    /// The stream is not currently classifying in the promotion's
    /// scene, so nothing was bound — activating a model the stream is
    /// not running would perturb an unaffected scene's switch log.
    Deferred,
}

/// The continual-learning seam. Implementations must be cheap on the
/// observe path (it runs once per classified clip) and thread-safe:
/// every shard thread calls into the same hook concurrently.
pub trait LearnHook: Send + Sync {
    /// Called once when a sharded run starts, before any shard thread
    /// exists — the place to start a background trainer.
    fn on_run_start(&self) {}

    /// Called once when a sharded run has fully settled and every shard
    /// thread has exited — the place to stop (and join) the trainer.
    /// Promotions queued by a final training pass here apply at the
    /// start of the next run, before its first frame.
    fn on_run_end(&self) {}

    /// Offered every classified clip, with its raw verdict. Runs on the
    /// executing shard's thread; implementations decide cheaply whether
    /// to copy the clip into a replay buffer.
    fn observe(&self, sample: HarvestSample<'_>);

    /// Drains the promotions addressed to shard `shard` of
    /// `shard_count` (streams with `stream % shard_count == shard`).
    /// Called once per shard loop iteration; the common empty case must
    /// be near-free.
    fn take_promotions(&self, shard: usize, shard_count: usize) -> Vec<Promotion>;

    /// Reports how a promotion fared so the learner can journal the
    /// outcome, retire the challenger on rollback, or re-queue a
    /// deferred promotion.
    fn promotion_result(&self, promotion: &Promotion, outcome: PromotionOutcome);
}
