//! Telemetry wiring for the serving layer.
//!
//! Everything funnels into one `safecross-telemetry` [`Registry`] so a
//! fleet exports through the same snapshot machinery as a standalone
//! system. Handles are fetched once at setup time and updated lock-free
//! on the serving hot path.

use safecross_telemetry::{Counter, Histogram, Registry};

/// Fleet-wide instrument handles.
#[derive(Debug, Clone)]
pub(crate) struct FleetMetrics {
    /// Frames accepted into an admission queue (`serve.admitted`).
    pub admitted: Counter,
    /// Frames whose outcome was delivered (`serve.completed`).
    pub completed: Counter,
    /// Frames dropped on admission to a full queue (`serve.shed_overflow`).
    pub shed_overflow: Counter,
    /// Frames shed for exceeding the age deadline (`serve.shed_stale`).
    pub shed_stale: Counter,
    /// End-to-end admission-to-completion latency
    /// (`serve.frame_age_ms`).
    pub frame_age_ms: Histogram,
    /// Dispatched queue entry sizes, in clips (`serve.batch_size`).
    pub batch_size: Histogram,
    /// Queue entries dispatched across all shards (`serve.batches`).
    pub batches: Counter,
    /// Entries a shard executed out of *another* shard's queue
    /// (`serve.steals`). High steal counts mean the stream→shard
    /// partition is skewed and work-stealing is doing its job.
    pub steals: Counter,
    /// Injected shard-worker deaths — simulated crashes a chaos
    /// [`FaultHook`](crate::FaultHook) forced on a shard's compute
    /// state (`serve.worker_deaths`). Zero outside chaos runs.
    pub worker_deaths: Counter,
    /// Continual-learning challenger activations a shard applied
    /// through a session's model-binding path (`serve.promotions`).
    pub promotions: Counter,
    /// Challenger activations the switcher rejected (synthetic OOM or
    /// other switch failure) and rolled back to the incumbent
    /// (`serve.promotion_rollbacks`).
    pub promotion_rollbacks: Counter,
}

impl FleetMetrics {
    pub(crate) fn new(registry: &Registry) -> Self {
        FleetMetrics {
            admitted: registry.counter("serve.admitted"),
            completed: registry.counter("serve.completed"),
            shed_overflow: registry.counter("serve.shed_overflow"),
            shed_stale: registry.counter("serve.shed_stale"),
            frame_age_ms: registry.histogram("serve.frame_age_ms"),
            batch_size: registry.histogram("serve.batch_size"),
            batches: registry.counter("serve.batches"),
            steals: registry.counter("serve.steals"),
            worker_deaths: registry.counter("serve.worker_deaths"),
            promotions: registry.counter("serve.promotions"),
            promotion_rollbacks: registry.counter("serve.promotion_rollbacks"),
        }
    }
}

/// Per-shard instrument handles (`serve.shard<N>.*`), created at run
/// start by each shard thread.
#[derive(Debug, Clone)]
pub(crate) struct ShardMetrics {
    /// Queue entries this shard executed (own plus stolen).
    pub batches: Counter,
    /// Of those, entries stolen from another shard's queue.
    pub steals: Counter,
}

impl ShardMetrics {
    pub(crate) fn new(registry: &Registry, shard: usize) -> Self {
        if !registry.is_enabled() {
            return ShardMetrics {
                batches: registry.counter("serve.shard.disabled"),
                steals: registry.counter("serve.shard.disabled"),
            };
        }
        ShardMetrics {
            batches: registry.counter(&format!("serve.shard{shard}.batches")),
            steals: registry.counter(&format!("serve.shard{shard}.steals")),
        }
    }
}
