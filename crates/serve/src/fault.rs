//! Fault-injection seams for chaos testing the serving layer.
//!
//! A [`FaultHook`] installed on a [`FleetServer`](crate::FleetServer)
//! is consulted by every shard once per executed queue entry and can
//! kill the shard's compute slot (drop all warm state, respawn cold),
//! stall it, or let it run. Faults are *semantically invisible*: a
//! killed slot's batch is retried by its respawned replacement — and a
//! death only ever costs warm compute state (model clones, scratch),
//! never a session — so lossless runs stay lossless and per-stream
//! outputs stay bit-identical to a fault-free run, which is exactly
//! what `tests/chaos_regression.rs` asserts. Production fleets carry
//! no hook and pay one `Option` check per batch.
//!
//! The hook receives only deterministic coordinates (shard index,
//! batches executed by that shard), so a seed-scheduled plan like
//! `safecross-replay`'s `FaultPlan` can decide every fault as a pure
//! function — two runs with the same seed inject the same faults.

use std::time::Duration;

/// What a shard should do with the batch it just dequeued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerAction {
    /// Process the batch normally.
    Continue,
    /// Sleep this long first, then process the batch — simulates a
    /// descheduled or thermally-throttled core.
    Stall(Duration),
    /// Simulated crash: the shard drops every piece of warm compute
    /// state it owns (local model clones, kernel scratch arena), counts
    /// a death in `serve.worker_deaths`, and is immediately "respawned"
    /// cold to retry the same batch. Sessions live outside the compute
    /// slot, so no completion — and no stream — is ever lost.
    Die,
}

/// The shard-level chaos seam. Implementations must be cheap and
/// deterministic in their inputs; they run on the shard hot path.
pub trait FaultHook: Send + Sync {
    /// Decides the fate of one dequeued batch. `worker` is the shard's
    /// index (`0..shards`), `batches_done` how many batches that shard
    /// has executed before this one.
    fn before_batch(&self, worker: usize, batches_done: u64) -> WorkerAction {
        let _ = (worker, batches_done);
        WorkerAction::Continue
    }
}
