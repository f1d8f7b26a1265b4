//! Deterministic chaos: seed-scheduled fault injection and the soak
//! driver.
//!
//! Every fault decision is a **pure hash** of `(seed, site, index)` —
//! no interior RNG state, no wall-clock reads, no ambient entropy. Two
//! soak runs with the same [`ChaosConfig`] inject the same worker
//! deaths at the same batch counts and force the same `switch_to`
//! failures at the same attempts, so a chaos-found bug reproduces from
//! its seed. The faults plug into the seams the serving stack exposes:
//! [`FaultHook`](safecross_serve::FaultHook) on the shard set and
//! [`SwitchFaultHook`](safecross_modelswitch::SwitchFaultHook) on every
//! session's model switcher.

use crate::recorder::fleet_from_spec;
use crate::trace::ModelSpec;
use safecross_learn::TrainerFaultHook;
use safecross_modelswitch::SwitchFaultHook;
use safecross_serve::{
    paced_feed, BoxedSource, FaultHook, FleetReport, FrameSource, ServeConfig, ServeError,
    StreamSpec, TimedSource, WorkerAction,
};
use safecross_trafficsim::sim::DT;
use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, Weather};
use safecross_vision::GrayFrame;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SplitMix64 finalizer: a well-mixed pure function of its input, used
/// as the fault schedule. Not a stream generator — every call site
/// hashes the full decision coordinates.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scenario names enter the fault schedule through the workspace's
/// shared FNV-1a (the same function that content-addresses blobs), so
/// recorded chaos traces stay replayable across crates and versions.
fn fnv1a(s: &str) -> u64 {
    safecross_tensor::fnv1a(s.as_bytes())
}

const DOMAIN_DEATH: u64 = 0x0DEA_D000;
const DOMAIN_STALL: u64 = 0x057A_1100;
const DOMAIN_OOM: u64 = 0x0000_00B5;
const DOMAIN_SKEW: u64 = 0x05CE_3000;
const DOMAIN_FEED_STALL: u64 = 0x0FEE_D000;
const DOMAIN_TRAINER: u64 = 0x07A1_4E4D;
const DOMAIN_PROMO_OOM: u64 = 0x0940_3400;

/// What faults a [`FaultPlan`] injects and how often. A period of `0`
/// disables that fault class; period `n` fires on roughly 1-in-`n`
/// opportunities (hash-scheduled, so *which* opportunities fire is a
/// deterministic function of the seed, not a running counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of every fault schedule.
    pub seed: u64,
    /// Kill a worker's warm state about one batch in `n` (0 = never).
    pub worker_death_period: u64,
    /// Stall a worker about one batch in `n` (0 = never).
    pub worker_stall_period: u64,
    /// How long a stalled worker sleeps.
    pub worker_stall_for: Duration,
    /// Force a `switch_to` OOM about one attempt in `n` (0 = never).
    pub oom_period: u64,
    /// Kill the continual-learning trainer about one adaptation in `n`
    /// (0 = never) — fires mid-attempt, after the challenger checkpoint
    /// registered and before its canary, so recovery must clean the
    /// orphan out of the store.
    pub trainer_death_period: u64,
    /// Force a challenger *activation* OOM about one attempt in `n`
    /// (0 = never). Fires only on continual-learning challenger names
    /// (`label#sNgM`), so the base scene switch traffic is untouched;
    /// the switcher's rollback machinery restores the incumbent.
    pub challenger_oom_period: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            worker_death_period: 0,
            worker_stall_period: 0,
            worker_stall_for: Duration::from_millis(1),
            oom_period: 0,
            trainer_death_period: 0,
            challenger_oom_period: 0,
        }
    }
}

/// A deterministic fault schedule, pluggable into both the serving
/// worker pool and every session's model switcher. Counters record how
/// many faults actually fired.
#[derive(Debug)]
pub struct FaultPlan {
    config: ChaosConfig,
    deaths: AtomicU64,
    stalls: AtomicU64,
    ooms: AtomicU64,
    trainer_deaths: AtomicU64,
    challenger_ooms: AtomicU64,
}

impl FaultPlan {
    /// Builds the plan for a chaos configuration.
    pub fn new(config: ChaosConfig) -> Arc<Self> {
        Arc::new(FaultPlan {
            config,
            deaths: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            ooms: AtomicU64::new(0),
            trainer_deaths: AtomicU64::new(0),
            challenger_ooms: AtomicU64::new(0),
        })
    }

    /// Whether the schedule kills `worker`'s warm state before its
    /// `batch`-th dequeue. Pure: same (seed, worker, batch) → same
    /// answer, on every call, in every process.
    pub fn would_kill(&self, worker: usize, batch: u64) -> bool {
        let p = self.config.worker_death_period;
        p != 0
            && mix(self.config.seed ^ DOMAIN_DEATH ^ ((worker as u64) << 32) ^ batch)
                .is_multiple_of(p)
    }

    /// Whether the schedule stalls `worker` before its `batch`-th
    /// dequeue. Pure, like [`FaultPlan::would_kill`].
    pub fn would_stall(&self, worker: usize, batch: u64) -> bool {
        let p = self.config.worker_stall_period;
        p != 0
            && mix(self.config.seed ^ DOMAIN_STALL ^ ((worker as u64) << 32) ^ batch)
                .is_multiple_of(p)
    }

    /// Whether the schedule forces the `attempt`-th switch (to model
    /// `name`) to fail with OOM. Pure, like [`FaultPlan::would_kill`].
    pub fn would_oom(&self, name: &str, attempt: u64) -> bool {
        let p = self.config.oom_period;
        p != 0 && mix(self.config.seed ^ DOMAIN_OOM ^ fnv1a(name) ^ attempt).is_multiple_of(p)
    }

    /// Whether the schedule kills the continual-learning trainer on
    /// adaptation `attempt` for `(stream, weather)`. Pure, like
    /// [`FaultPlan::would_kill`].
    pub fn would_kill_trainer(&self, stream: usize, weather: Weather, attempt: u64) -> bool {
        let p = self.config.trainer_death_period;
        p != 0
            && mix(self.config.seed
                ^ DOMAIN_TRAINER
                ^ fnv1a(weather.label())
                ^ ((stream as u64) << 32)
                ^ attempt)
            .is_multiple_of(p)
    }

    /// Whether the schedule forces the `attempt`-th activation of
    /// challenger `name` to fail with OOM. Pure, like
    /// [`FaultPlan::would_kill`].
    pub fn would_oom_challenger(&self, name: &str, attempt: u64) -> bool {
        let p = self.config.challenger_oom_period;
        p != 0 && mix(self.config.seed ^ DOMAIN_PROMO_OOM ^ fnv1a(name) ^ attempt).is_multiple_of(p)
    }

    /// Worker warm-state kills that fired so far.
    pub fn deaths(&self) -> u64 {
        self.deaths.load(Ordering::Relaxed)
    }

    /// Worker stalls that fired so far.
    pub fn stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// Forced switch OOMs that fired so far.
    pub fn ooms(&self) -> u64 {
        self.ooms.load(Ordering::Relaxed)
    }

    /// Trainer deaths that fired so far.
    pub fn trainer_deaths(&self) -> u64 {
        self.trainer_deaths.load(Ordering::Relaxed)
    }

    /// Forced challenger-activation OOMs that fired so far.
    pub fn challenger_ooms(&self) -> u64 {
        self.challenger_ooms.load(Ordering::Relaxed)
    }
}

impl FaultHook for FaultPlan {
    fn before_batch(&self, worker: usize, batches_done: u64) -> WorkerAction {
        if self.would_kill(worker, batches_done) {
            self.deaths.fetch_add(1, Ordering::Relaxed);
            return WorkerAction::Die;
        }
        if self.would_stall(worker, batches_done) {
            self.stalls.fetch_add(1, Ordering::Relaxed);
            return WorkerAction::Stall(self.config.worker_stall_for);
        }
        WorkerAction::Continue
    }
}

impl SwitchFaultHook for FaultPlan {
    fn inject_oom(&self, name: &str, attempt: u64) -> bool {
        // Challenger checkpoints (`label#sNgM`) get their own schedule
        // so chaos can hammer the promotion rollback path without
        // perturbing base scene switches — and vice versa.
        if name.contains('#') {
            let fire = self.would_oom_challenger(name, attempt);
            if fire {
                self.challenger_ooms.fetch_add(1, Ordering::Relaxed);
            }
            return fire;
        }
        let fire = self.would_oom(name, attempt);
        if fire {
            self.ooms.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }
}

impl TrainerFaultHook for FaultPlan {
    fn kill_adaptation(&self, stream: usize, weather: Weather, attempt: u64) -> bool {
        let fire = self.would_kill_trainer(stream, weather, attempt);
        if fire {
            self.trainer_deaths.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }
}

/// Feed-side chaos: which streams stall, flood, or run on a skewed
/// clock. Like [`ChaosConfig`], everything is seed-scheduled.
#[derive(Debug, Clone)]
pub struct FeedChaos {
    /// Seed for clock skew.
    pub seed: u64,
    /// Streams that periodically stall mid-feed.
    pub stall_streams: Vec<usize>,
    /// A stalling stream holds back about every `n`-th frame
    /// (hash-picked; 0 disables) until `stall_for` after its
    /// predecessor, instead of one pacing interval.
    pub stall_every: u64,
    /// How long a feed stall lasts.
    pub stall_for: Duration,
    /// Streams that ignore pacing and flood every frame at once.
    pub flood_streams: Vec<usize>,
    /// Skew each remaining stream's frame interval by a per-stream
    /// factor in [0.5, 1.5).
    pub skew: bool,
}

impl Default for FeedChaos {
    fn default() -> Self {
        FeedChaos {
            seed: 0,
            stall_streams: Vec::new(),
            stall_every: 0,
            stall_for: Duration::from_millis(2),
            flood_streams: Vec::new(),
            skew: false,
        }
    }
}

impl FeedChaos {
    /// The skewed pacing interval for `stream` (identity when skew is
    /// off or the stream floods).
    pub fn interval_for(&self, stream: usize, base: Duration) -> Duration {
        if self.flood_streams.contains(&stream) {
            return Duration::ZERO;
        }
        if !self.skew {
            return base;
        }
        let h = mix(self.seed ^ DOMAIN_SKEW ^ stream as u64);
        // Factor in [0.5, 1.5): arrival clocks drift apart but stay
        // the same order of magnitude.
        let factor = 0.5 + (h >> 11) as f64 / (1u64 << 53) as f64;
        base.mul_f64(factor)
    }

    /// Whether `stream` stalls before delivering its `frame`-th frame.
    pub fn would_stall(&self, stream: usize, frame: u64) -> bool {
        self.stall_every != 0
            && self.stall_streams.contains(&stream)
            && mix(self.seed ^ DOMAIN_FEED_STALL ^ ((stream as u64) << 32) ^ frame)
                .is_multiple_of(self.stall_every)
    }
}

/// Wraps pre-rendered per-stream clips as chaotic feeds: flooding
/// streams deliver everything at once, stalling streams replay as a
/// [`TimedSource`] whose scheduled frames come due `stall_for` after
/// their predecessor (a stall is a frame not yet due, so it never
/// blocks a shard), the rest pace at a (possibly skewed) interval.
///
/// Chaos here only perturbs *timing*. With shedding disabled the
/// serving layer is lossless, so a chaotic run's per-stream outputs
/// must still be bit-identical to a calm one — which is exactly what
/// the chaos regression tests assert.
pub fn chaos_feeds(
    streams: Vec<Vec<GrayFrame>>,
    base_interval: Duration,
    chaos: &FeedChaos,
) -> Vec<BoxedSource> {
    streams
        .into_iter()
        .enumerate()
        .map(|(stream, frames)| {
            let interval = chaos.interval_for(stream, base_interval);
            if chaos.stall_streams.contains(&stream) && chaos.stall_every != 0 {
                let mut offset = Duration::ZERO;
                let timed = frames
                    .into_iter()
                    .enumerate()
                    .map(|(k, frame)| {
                        if chaos.would_stall(stream, k as u64) {
                            offset += chaos.stall_for;
                        } else if k > 0 {
                            offset += interval;
                        }
                        (offset, frame)
                    })
                    .collect();
                TimedSource::new(timed).boxed()
            } else {
                paced_feed(frames, interval).boxed()
            }
        })
        .collect()
}

/// Configuration of a chaos soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Fleet configuration (shedding may be on or off).
    pub serve: ServeConfig,
    /// Model build recipe.
    pub models: ModelSpec,
    /// Streams per iteration.
    pub streams: usize,
    /// Frames per stream per iteration.
    pub frames_per_stream: usize,
    /// Base frame pacing interval.
    pub base_interval: Duration,
    /// Worker/switcher fault schedule.
    pub chaos: ChaosConfig,
    /// Feed-side fault schedule.
    pub feed_chaos: FeedChaos,
    /// Keep iterating until at least this much wall time has passed
    /// (always runs at least one iteration).
    pub duration: Duration,
}

/// What a soak run observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoakReport {
    /// Fleet iterations completed.
    pub iterations: u64,
    /// Frames delivered across all iterations.
    pub completed: u64,
    /// Frames shed across all iterations.
    pub shed: u64,
    /// Worker warm-state kills injected.
    pub worker_deaths: u64,
    /// Forced switch OOMs injected.
    pub forced_ooms: u64,
    /// Worker stalls injected.
    pub worker_stalls: u64,
    /// Successful model switches across all iterations.
    pub switches: u64,
}

impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "soak: {} iterations, {} completed / {} shed; injected {} deaths, {} ooms, \
             {} stalls; {} switches",
            self.iterations,
            self.completed,
            self.shed,
            self.worker_deaths,
            self.forced_ooms,
            self.worker_stalls,
            self.switches
        )
    }
}

/// Why a soak run aborted.
#[derive(Debug)]
pub enum SoakError {
    /// The fleet failed to build or run.
    Serve(ServeError),
    /// A cross-iteration invariant broke — the message says which and
    /// on which iteration.
    InvariantViolated(String),
}

impl fmt::Display for SoakError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoakError::Serve(e) => write!(f, "soak aborted: {e}"),
            SoakError::InvariantViolated(m) => write!(f, "soak invariant violated: {m}"),
        }
    }
}

impl std::error::Error for SoakError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SoakError::Serve(e) => Some(e),
            SoakError::InvariantViolated(_) => None,
        }
    }
}

impl From<ServeError> for SoakError {
    fn from(e: ServeError) -> Self {
        SoakError::Serve(e)
    }
}

/// Renders one stream's soak clip: weather phases rotated by stream
/// index so the fleet exercises model switches, rendered from the
/// deterministic traffic simulator.
fn soak_clip(
    stream: usize,
    frames: usize,
    width: usize,
    height: usize,
    seed: u64,
) -> Vec<GrayFrame> {
    let phases = [Weather::Daytime, Weather::Rain, Weather::Snow];
    let per_phase = frames.div_ceil(phases.len());
    let mut clip = Vec::with_capacity(frames);
    for (i, _) in phases.iter().enumerate() {
        let weather = phases[(stream + i) % phases.len()];
        let phase_seed = mix(seed ^ ((stream as u64) << 32) ^ i as u64);
        let mut sim = Simulator::new(Scenario::new(weather, true, 0.15), phase_seed);
        let config = RenderConfig {
            width,
            height,
            ..RenderConfig::default()
        };
        let mut renderer = Renderer::new(config, weather, phase_seed);
        for _ in 0..per_phase {
            if clip.len() == frames {
                break;
            }
            sim.step(DT);
            clip.push(renderer.render(&sim));
        }
    }
    clip
}

/// Runs the chaos soak: repeated fleet iterations over pre-rendered
/// chaotic feeds with fault injection armed, until `config.duration`
/// has elapsed. After every iteration the model store and switcher
/// invariants are checked:
///
/// - store accounting: `logical_bytes == stored_bytes + dedup_bytes`;
/// - every registered scene's bound checkpoint
///   ([`SafeCross::scene_model_name`](safecross::SafeCross::scene_model_name))
///   still exists in the store with an intact manifest — what a shard
///   would load to serve that scene;
/// - lossless mode only (`shedding == false`): every fed frame
///   completed.
///
/// `on_iteration` runs after each iteration's checks with the
/// iteration number and that iteration's [`FleetReport`] — the soak
/// test uses it to sample the counting allocator against its memory
/// ceiling.
///
/// The fleet is rebuilt per iteration from the same spec (the recorded
/// production pattern: a fresh process replaying the same
/// configuration), so memory must plateau; frames are rendered once
/// up front and cloned per iteration.
///
/// # Errors
///
/// [`SoakError::Serve`] if an iteration fails to run;
/// [`SoakError::InvariantViolated`] if chaos corrupted fleet state.
pub fn run_soak(
    config: &SoakConfig,
    mut on_iteration: impl FnMut(u64, &FleetReport),
) -> Result<SoakReport, SoakError> {
    let width = config.serve.stream.frame_width;
    let height = config.serve.stream.frame_height;
    let clips: Vec<Vec<GrayFrame>> = (0..config.streams)
        .map(|s| {
            soak_clip(
                s,
                config.frames_per_stream,
                width,
                height,
                config.chaos.seed,
            )
        })
        .collect();

    let plan = FaultPlan::new(config.chaos);
    let mut report = SoakReport::default();
    let started = Instant::now();

    loop {
        let mut fleet = fleet_from_spec(config.serve, &config.models)?;
        for _ in 0..config.streams {
            fleet.open_stream(StreamSpec::new())?;
        }
        fleet.set_fault_hook(plan.clone());
        fleet.set_switch_fault_hook(plan.clone());

        let feeds = chaos_feeds(clips.clone(), config.base_interval, &config.feed_chaos);
        let iteration = fleet.run(feeds)?;

        let store = fleet.model_store();
        if store.logical_bytes() != store.stored_bytes() + store.dedup_bytes() {
            return Err(SoakError::InvariantViolated(format!(
                "iteration {}: store accounting drifted ({} logical != {} stored + {} dedup)",
                report.iterations,
                store.logical_bytes(),
                store.stored_bytes(),
                store.dedup_bytes()
            )));
        }
        let mut switches = 0u64;
        let handles = fleet.handles();
        for (s, handle) in handles.iter().enumerate() {
            let session = handle.session(&fleet);
            for weather in session.registered_scenes() {
                let name = session.scene_model_name(weather).expect("registered scene");
                if !store.contains(&name) || store.manifest(&name).is_none() {
                    return Err(SoakError::InvariantViolated(format!(
                        "iteration {}: stream {s} {} model {name:?} missing from store",
                        report.iterations,
                        weather.label()
                    )));
                }
            }
            switches += session.with_switch_log(|log| log.len() as u64);
        }
        if !config.serve.shedding {
            let fed: u64 = iteration.streams.iter().map(|s| s.stats.fed).sum();
            if iteration.completed != fed {
                return Err(SoakError::InvariantViolated(format!(
                    "iteration {}: lossless run lost frames ({} fed, {} completed)",
                    report.iterations, fed, iteration.completed
                )));
            }
        }

        report.iterations += 1;
        report.completed += iteration.completed;
        report.shed += iteration.shed;
        report.switches += switches;
        on_iteration(report.iterations, &iteration);

        if started.elapsed() >= config.duration {
            break;
        }
    }

    report.worker_deaths = plan.deaths();
    report.forced_ooms = plan.ooms();
    report.worker_stalls = plan.stalls();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safecross_serve::SourcePoll;

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        let a = FaultPlan::new(ChaosConfig {
            seed: 42,
            worker_death_period: 5,
            worker_stall_period: 7,
            oom_period: 3,
            ..ChaosConfig::default()
        });
        let b = FaultPlan::new(ChaosConfig {
            seed: 42,
            worker_death_period: 5,
            worker_stall_period: 7,
            oom_period: 3,
            ..ChaosConfig::default()
        });
        for worker in 0..4 {
            for batch in 0..200 {
                assert_eq!(a.would_kill(worker, batch), b.would_kill(worker, batch));
                assert_eq!(a.would_stall(worker, batch), b.would_stall(worker, batch));
            }
        }
        for attempt in 0..200 {
            assert_eq!(a.would_oom("snow", attempt), b.would_oom("snow", attempt));
        }
        // Consulting a predicate twice gives the same answer (no
        // interior state): the hallmark of a hash schedule.
        assert_eq!(a.would_kill(1, 17), a.would_kill(1, 17));
        // A different seed gives a different schedule somewhere.
        let c = FaultPlan::new(ChaosConfig {
            seed: 43,
            worker_death_period: 5,
            worker_stall_period: 7,
            oom_period: 3,
            ..ChaosConfig::default()
        });
        let differs = (0..200).any(|batch| a.would_kill(0, batch) != c.would_kill(0, batch));
        assert!(differs, "seed must steer the schedule");
    }

    #[test]
    fn periods_of_zero_disable_faults() {
        let plan = FaultPlan::new(ChaosConfig::default());
        for batch in 0..100 {
            assert!(matches!(
                plan.before_batch(0, batch),
                WorkerAction::Continue
            ));
            assert!(!plan.inject_oom("rain", batch));
        }
        assert_eq!(plan.deaths(), 0);
        assert_eq!(plan.ooms(), 0);
    }

    #[test]
    fn stalling_feeds_follow_the_schedule_without_blocking() {
        const FRAMES: u64 = 16;
        let chaos = FeedChaos {
            seed: 11,
            stall_streams: vec![0],
            stall_every: 3,
            stall_for: Duration::from_secs(3600),
            ..FeedChaos::default()
        };
        let interval = Duration::from_millis(10);
        let clip: Vec<GrayFrame> = (0..FRAMES)
            .map(|k| GrayFrame::filled(4, 4, k as u8))
            .collect();
        let feed = || chaos_feeds(vec![clip.clone()], interval, &chaos).remove(0);

        let mut source = feed();
        let t0 = Instant::now();
        let mut offset = Duration::ZERO;
        let mut stalls = 0;
        for k in 0..FRAMES {
            if chaos.would_stall(0, k) {
                offset += chaos.stall_for;
                stalls += 1;
            } else if k > 0 {
                offset += interval;
            }
            if k == 0 {
                // The first poll anchors every offset at `t0`.
                let first = source.poll(t0);
                if offset.is_zero() {
                    assert!(matches!(first, SourcePoll::Ready(f) if f.at(0, 0) == 0));
                    continue;
                }
                assert!(matches!(first, SourcePoll::Pending));
            }
            let early = t0 + offset - Duration::from_nanos(1);
            assert!(
                matches!(source.poll(early), SourcePoll::Pending),
                "frame {k} early"
            );
            assert!(
                matches!(source.poll(t0 + offset), SourcePoll::Ready(f) if f.at(0, 0) == k as u8),
                "frame {k} due"
            );
        }
        assert!(matches!(source.poll(t0 + offset), SourcePoll::Done));
        assert!(
            stalls > 0 && stalls < FRAMES,
            "schedule must mix stalls and pacing"
        );

        // Draining reads no clock and waits out no stall.
        assert_eq!(feed().drain(), clip);
    }

    #[test]
    fn skew_is_bounded_and_deterministic() {
        let chaos = FeedChaos {
            seed: 9,
            skew: true,
            ..FeedChaos::default()
        };
        let base = Duration::from_micros(1000);
        for stream in 0..32 {
            let skewed = chaos.interval_for(stream, base);
            assert!(skewed >= base / 2 && skewed < base * 3 / 2);
            assert_eq!(skewed, chaos.interval_for(stream, base));
        }
    }
}
