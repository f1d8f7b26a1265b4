//! # safecross-modelswitch
//!
//! The paper's model-switching (MS) module, built on a discrete-event
//! model of a GPU + PCIe link instead of real CUDA hardware (see
//! `DESIGN.md` for the substitution argument).
//!
//! PipeSwitch (Bai et al., OSDI 2020) exploits the layered structure of
//! DNNs: inference proceeds layer by layer from the front, so the GPU can
//! start computing group 1 while groups 2..n are still crossing the PCIe
//! bus. Compared with the stop-and-start baseline — kill the resident
//! task, re-initialise a CUDA context, re-load libraries, rebuild the
//! model, transmit, then compute — pipelined switching reduces the
//! switching delay from seconds to milliseconds (paper Table VI).
//!
//! The crate provides:
//!
//! - [`GpuSpec`]: bandwidth / throughput / overhead constants calibrated
//!   to an RTX 2080 Ti-class device;
//! - [`ModelDesc`]: per-layer parameter-size and FLOP tables for the
//!   three models of Table VI plus arbitrary custom models;
//! - [`simulate_switch`]: the event simulation for every
//!   [`SwitchStrategy`], including the paper's *optimal model-aware
//!   grouping*, found with a Pareto-pruned dynamic programme;
//! - a pinned GPU memory pool that lets the standby model stream in
//!   next to the active one;
//! - [`ModelRegistry`]: the content-addressed weight store — layer-group
//!   blobs with refcounted dedup, shared by every consumer of a model;
//! - [`ModelSwitcher`]: the registry the SafeCross runtime drives when
//!   the detected weather scene changes. A switch moves a descriptor's
//!   bytes through the simulated link — for a checkpoint registered
//!   from the store, one timeline layer per layer group at the group's
//!   real size. The weights that classify live in the store and in the
//!   replicas loaded from it; a checkpoint stays stored for as long as
//!   some switcher can switch to it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gpu;
#[cfg(test)]
mod proptests;
mod memory;
mod model_desc;
mod schedule;
mod store;
mod switcher;

pub use gpu::GpuSpec;
pub use memory::MemoryError;
pub use model_desc::{LayerDesc, ModelDesc};
pub use schedule::{simulate_switch, SwitchReport, SwitchStrategy, TimelineEvent, TimelinePhase};
pub use store::ModelRegistry;
pub use switcher::{
    ModelSwitcher, SwitchBreakdown, SwitchError, SwitchFaultHook, SwitchOutcome, SwitchRecord,
};

// The manifest types are defined next to the checkpoint format in
// `safecross-nn`; re-exported here because they are the lingua franca
// between checkpoints on disk, the store, and the switcher.
pub use safecross_nn::{GroupManifest, ModelManifest};
