//! The continual learner: harvester, background trainer, and the
//! shadow canary promotion gate.

use crate::buffer::{ReplayClip, ReplayLane};
use safecross::classify_with_model;
use safecross_fewshot::adapt_checkpoint;
use safecross_modelswitch::ModelRegistry;
use safecross_serve::{HarvestSample, LearnHook, Promotion, PromotionOutcome};
use safecross_telemetry::{Counter, Registry};
use safecross_tensor::{KernelScratch, Tensor};
use safecross_trafficsim::Weather;
use safecross_videoclass::{SlowFastLite, VideoClassifier};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// SplitMix64 finalizer — the same pure hash the chaos layer schedules
/// faults with. The holdout split is a function of
/// `(seed, stream, seq)`, so which harvested clips land in the canary
/// set is deterministic and independent of harvest arrival order.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain tag separating the holdout split from every other consumer
/// of the fleet seed (chaos schedules use their own tags).
const DOMAIN_HOLDOUT: u64 = 0x0000_401D;

/// Continual-learning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnConfig {
    /// Seed of the holdout split (derive it from the fleet seed so a
    /// recorded run replays byte-for-byte).
    pub seed: u64,
    /// Harvest a clip when its raw verdict confidence falls below this
    /// margin — low-confidence clips are where the incumbent is
    /// struggling and adaptation has signal.
    pub harvest_below: f32,
    /// Byte budget of each (stream, weather) replay lane; oldest clips
    /// are dropped first when a lane overflows.
    pub lane_budget_bytes: usize,
    /// Support clips a lane must accumulate before the trainer adapts.
    pub min_support: usize,
    /// Held-out clips the shadow canary grades challenger and incumbent
    /// on (fewer are used if the lane held fewer).
    pub canary_k: usize,
    /// One harvested clip in `n` is held out for the canary (hash-split
    /// by `(seed, stream, seq)`; must be ≥ 2 so support survives).
    pub holdout_period: u64,
    /// Inner-loop gradient steps of one adaptation (paper Eq. 1).
    pub adapt_steps: usize,
    /// Inner-loop learning rate.
    pub adapt_lr: f32,
    /// A challenger must beat the incumbent's mean canary confidence by
    /// more than this to be promoted — ties and noise-level wins lose.
    pub min_win: f32,
    /// Adaptation attempts allowed per (stream, weather) lane.
    pub max_generations: u32,
    /// Background trainer poll interval between passes.
    pub poll: Duration,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            seed: 0,
            harvest_below: 0.95,
            lane_budget_bytes: 8 << 20,
            min_support: 4,
            canary_k: 4,
            holdout_period: 3,
            adapt_steps: 3,
            adapt_lr: 0.05,
            min_win: 0.0,
            max_generations: 4,
            poll: Duration::from_millis(2),
        }
    }
}

/// Counters the learner maintains (mirrored to `learn.*` telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LearnStats {
    /// Clips copied into replay lanes.
    pub harvested: u64,
    /// Adaptation attempts the trainer ran to completion.
    pub adaptations: u64,
    /// Challengers the shadow canary rejected (no strict win).
    pub canary_rejects: u64,
    /// Challengers queued for promotion after a canary win.
    pub promotions_queued: u64,
    /// Adaptation attempts a [`TrainerFaultHook`] killed mid-flight.
    pub trainer_deaths: u64,
    /// Promotions the owning shard activated.
    pub activated: u64,
    /// Promotions the switcher rejected (OOM) and rolled back.
    pub rolled_back: u64,
    /// Promotions deferred because the stream left the scene.
    pub deferred: u64,
}

/// One journaled promotion attempt — the audit trail of every
/// challenger that won its canary.
#[derive(Debug, Clone, PartialEq)]
pub struct PromotionRecord {
    /// The stream the challenger was adapted for.
    pub stream: usize,
    /// The scene it challenges.
    pub weather: Weather,
    /// The challenger's checkpoint name in the store.
    pub challenger: String,
    /// The incumbent it was adapted from (and graded against).
    pub parent: String,
    /// Challenger's mean canary confidence.
    pub challenger_margin: f32,
    /// Incumbent's mean canary confidence on the same clips.
    pub incumbent_margin: f32,
    /// Held-out clips the canary graded on.
    pub canary_clips: usize,
    /// The lane's adaptation attempt number (1-based).
    pub generation: u32,
    /// How the owning shard's activation fared; `None` while the
    /// promotion is still queued.
    pub outcome: Option<PromotionOutcome>,
}

/// Chaos seam of the background trainer: consulted once per completed
/// adaptation, *after* the challenger checkpoint landed in the store
/// and *before* the canary — the widest window a real trainer crash
/// would leave a half-registered challenger behind in. A `true` return
/// simulates the death: the learner must clean the orphan out of the
/// store and carry on, losing only that attempt's work.
pub trait TrainerFaultHook: Send + Sync {
    /// Whether the trainer dies on this `(stream, weather, attempt)`
    /// adaptation. Implementations should be pure functions of their
    /// arguments (plus a seed) so chaos runs replay.
    fn kill_adaptation(&self, stream: usize, weather: Weather, attempt: u64) -> bool;
}

/// Per-lane learner bookkeeping guarded by the state mutex.
#[derive(Default)]
struct LearnState {
    lanes: HashMap<(usize, Weather), ReplayLane>,
    /// Name of the checkpoint currently serving each lane — the weather
    /// label until a promotion activates, then the challenger.
    bindings: HashMap<(usize, Weather), String>,
    /// Adaptation attempts per lane (names generations uniquely and
    /// enforces `max_generations`).
    generations: HashMap<(usize, Weather), u32>,
    /// Canary winners awaiting activation by their owning shard.
    promotions: VecDeque<Promotion>,
    records: Vec<PromotionRecord>,
    stats: LearnStats,
    /// Global adaptation attempt counter — the deterministic coordinate
    /// handed to the trainer chaos seam.
    attempts: u64,
}

/// `learn.*` telemetry handles.
struct LearnTelemetry {
    harvested: Counter,
    adaptations: Counter,
    canary_rejects: Counter,
    promotions_queued: Counter,
    trainer_deaths: Counter,
    activations: Counter,
    rollbacks: Counter,
    deferred: Counter,
}

impl LearnTelemetry {
    fn new(registry: &Registry) -> Self {
        LearnTelemetry {
            harvested: registry.counter("learn.harvested"),
            adaptations: registry.counter("learn.adaptations"),
            canary_rejects: registry.counter("learn.canary_rejects"),
            promotions_queued: registry.counter("learn.promotions_queued"),
            trainer_deaths: registry.counter("learn.trainer_deaths"),
            activations: registry.counter("learn.activations"),
            rollbacks: registry.counter("learn.rollbacks"),
            deferred: registry.counter("learn.deferred"),
        }
    }
}

/// One drained lane's adaptation work order, computed outside the
/// state lock.
struct LaneTask {
    stream: usize,
    weather: Weather,
    parent: String,
    generation: u32,
    attempt: u64,
    clips: Vec<ReplayClip>,
}

/// The continual-learning service: install it on a
/// [`FleetServer`](safecross_serve::FleetServer) via
/// `set_learn_hook(learner.clone())`.
///
/// Three cooperating parts, all behind the [`LearnHook`] seam:
///
/// 1. **Harvester** ([`LearnHook::observe`]) — runs on the shard
///    threads; copies low-margin clips into bounded per-lane replay
///    buffers (drop-oldest, byte-budgeted, one lane per stream ×
///    weather).
/// 2. **Background trainer** — a thread scoped to each sharded run
///    (plus one synchronous pass at run end, so promotions earned from
///    a run's harvest are queued deterministically before the next
///    run). Drains ready lanes, few-shot-adapts the incumbent on the
///    pseudo-labeled support set (paper Eq. 1 via
///    [`safecross_fewshot::adapt_checkpoint`]), and registers the
///    challenger in the shared store beside its parent — deduplicating
///    every layer group the adaptation left untouched.
/// 3. **Shadow canary** — before queueing a promotion, challenger and
///    incumbent both classify the lane's held-out clips; only a strict
///    win (mean confidence above the incumbent's by more than
///    [`LearnConfig::min_win`]) promotes. Losers are removed from the
///    store on the spot. Activation itself happens on the owning
///    shard through the switcher's pipelined-swap path, so a synthetic
///    OOM rolls back to the incumbent and the learner retires the
///    challenger ([`PromotionOutcome::RolledBack`]).
pub struct ContinualLearner {
    config: LearnConfig,
    store: ModelRegistry,
    /// Architecture templates per weather, used to materialize
    /// incumbents/challengers; weights are always (re)loaded from the
    /// store by name so the learner grades exactly the bits serving
    /// runs.
    templates: HashMap<Weather, SlowFastLite>,
    state: Mutex<LearnState>,
    /// Fast path for [`LearnHook::take_promotions`]: shards poll every
    /// loop iteration, and promotions are rare.
    promo_ready: AtomicUsize,
    stop: AtomicBool,
    trainer: Mutex<Option<JoinHandle<()>>>,
    fault: Mutex<Option<Arc<dyn TrainerFaultHook>>>,
    telemetry: LearnTelemetry,
    me: Weak<ContinualLearner>,
}

impl ContinualLearner {
    /// Builds the learner against a fleet's shared checkpoint store and
    /// telemetry registry. `templates` supplies one architecture
    /// template per weather the learner may adapt (clone the models
    /// registered on the fleet); weights are always resolved from the
    /// store, so the templates' parameter values never matter.
    pub fn new(
        config: LearnConfig,
        store: ModelRegistry,
        templates: HashMap<Weather, SlowFastLite>,
        registry: &Registry,
    ) -> Arc<Self> {
        assert!(config.holdout_period >= 2, "holdout_period must be >= 2");
        Arc::new_cyclic(|me| ContinualLearner {
            config,
            store,
            templates,
            state: Mutex::new(LearnState::default()),
            promo_ready: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            trainer: Mutex::new(None),
            fault: Mutex::new(None),
            telemetry: LearnTelemetry::new(registry),
            me: me.clone(),
        })
    }

    /// Installs the trainer chaos seam (see [`TrainerFaultHook`]).
    pub fn set_fault_hook(&self, hook: Arc<dyn TrainerFaultHook>) {
        *self.fault.lock().expect("fault hook poisoned") = Some(hook);
    }

    /// The learner's configuration.
    pub fn config(&self) -> &LearnConfig {
        &self.config
    }

    /// A snapshot of the learner's counters.
    pub fn stats(&self) -> LearnStats {
        self.state.lock().expect("learner state poisoned").stats
    }

    /// The promotion journal so far (queued, activated, rolled back,
    /// and deferred attempts alike).
    pub fn records(&self) -> Vec<PromotionRecord> {
        self.state
            .lock()
            .expect("learner state poisoned")
            .records
            .clone()
    }

    /// The checkpoint currently bound for a lane — the weather label
    /// until a promotion activates.
    pub fn binding(&self, stream: usize, weather: Weather) -> String {
        self.state
            .lock()
            .expect("learner state poisoned")
            .bindings
            .get(&(stream, weather))
            .cloned()
            .unwrap_or_else(|| weather.label().to_owned())
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, LearnState> {
        self.state.lock().expect("learner state poisoned")
    }

    /// Runs one synchronous training pass: drains every lane that has
    /// accumulated enough support, adapts, canaries, and queues the
    /// winners. Returns how many lanes were attempted. The background
    /// trainer calls this in a loop; tests and offline pipelines can
    /// call it directly for a fully deterministic schedule.
    pub fn train_once(&self) -> usize {
        let min_support = self.config.min_support.max(1);
        let tasks: Vec<LaneTask> = {
            let mut state = self.lock_state();
            let ready: Vec<(usize, Weather)> = state
                .lanes
                .iter()
                .filter(|((stream, weather), lane)| {
                    lane.support_len() >= min_support
                        && lane.holdout_len() >= 1
                        && state
                            .generations
                            .get(&(*stream, *weather))
                            .copied()
                            .unwrap_or(0)
                            < self.config.max_generations
                })
                .map(|(key, _)| *key)
                .collect();
            let mut ready = ready;
            // Deterministic attempt order regardless of hash-map
            // iteration order.
            ready.sort_unstable_by_key(|(stream, weather)| (*stream, weather.label()));
            ready
                .into_iter()
                .map(|(stream, weather)| {
                    let generation = {
                        let g = state.generations.entry((stream, weather)).or_insert(0);
                        *g += 1;
                        *g
                    };
                    state.attempts += 1;
                    let attempt = state.attempts;
                    let parent = state
                        .bindings
                        .get(&(stream, weather))
                        .cloned()
                        .unwrap_or_else(|| weather.label().to_owned());
                    let clips = state
                        .lanes
                        .get_mut(&(stream, weather))
                        .expect("lane listed as ready")
                        .drain();
                    LaneTask {
                        stream,
                        weather,
                        parent,
                        generation,
                        attempt,
                        clips,
                    }
                })
                .collect()
        };
        let attempted = tasks.len();
        for task in tasks {
            self.adapt_lane(task);
        }
        attempted
    }

    /// Materializes the model named `name` for `weather`: architecture
    /// from the template, weights from the store (base weights when the
    /// name is not stored — mirroring the executor's eviction
    /// fallback).
    fn materialize(&self, weather: Weather, name: &str) -> Option<SlowFastLite> {
        let mut model = self.templates.get(&weather)?.clone();
        if let Some(state) = self.store.state_dict(name) {
            model.load_state_dict(&state);
        } else if let Some(state) = self.store.state_dict(weather.label()) {
            model.load_state_dict(&state);
        }
        Some(model)
    }

    /// One lane's full adaptation attempt: support stack → few-shot
    /// adapt → challenger checkpoint → shadow canary → queue or retire.
    fn adapt_lane(&self, task: LaneTask) {
        let Some(incumbent) = self.materialize(task.weather, &task.parent) else {
            return;
        };
        let support: Vec<&ReplayClip> = task.clips.iter().filter(|c| !c.holdout).collect();
        let holdout: Vec<&ReplayClip> = task
            .clips
            .iter()
            .filter(|c| c.holdout)
            .take(self.config.canary_k.max(1))
            .collect();
        if support.is_empty() || holdout.is_empty() {
            return;
        }
        let Some((stacked, labels)) = stack_support(&support) else {
            return;
        };

        let challenger_name = format!(
            "{}#s{}g{}",
            task.weather.label(),
            task.stream,
            task.generation
        );
        let (mut challenger, _manifest) = adapt_checkpoint(
            &incumbent,
            &(stacked, labels),
            self.config.adapt_steps,
            self.config.adapt_lr,
            &self.store,
            &challenger_name,
        );
        {
            let mut state = self.lock_state();
            state.stats.adaptations += 1;
        }
        self.telemetry.adaptations.inc();

        // Trainer chaos seam: a death here strands the challenger
        // checkpoint half-registered — exactly what a crashed trainer
        // process leaves behind. Recovery is the same either way:
        // remove the orphan, count the death, lose only this attempt.
        let fault = self.fault.lock().expect("fault hook poisoned").clone();
        if let Some(hook) = fault {
            if hook.kill_adaptation(task.stream, task.weather, task.attempt) {
                self.store.remove_model(&challenger_name);
                let mut state = self.lock_state();
                state.stats.trainer_deaths += 1;
                drop(state);
                self.telemetry.trainer_deaths.inc();
                return;
            }
        }

        // Shadow canary: both contenders classify the held-out clips;
        // the challenger must strictly beat the incumbent's mean
        // confidence. The holdout clips never fed the adaptation, so
        // the comparison is out-of-sample by construction.
        let mut incumbent = incumbent;
        let challenger_margin = mean_confidence(&mut challenger, &holdout, task.weather);
        let incumbent_margin = mean_confidence(&mut incumbent, &holdout, task.weather);
        if challenger_margin > incumbent_margin + self.config.min_win {
            let mut state = self.lock_state();
            state.records.push(PromotionRecord {
                stream: task.stream,
                weather: task.weather,
                challenger: challenger_name.clone(),
                parent: task.parent,
                challenger_margin,
                incumbent_margin,
                canary_clips: holdout.len(),
                generation: task.generation,
                outcome: None,
            });
            state.promotions.push_back(Promotion {
                stream: task.stream,
                weather: task.weather,
                challenger: challenger_name,
            });
            state.stats.promotions_queued += 1;
            drop(state);
            self.promo_ready.fetch_add(1, Ordering::Release);
            self.telemetry.promotions_queued.inc();
        } else {
            self.store.remove_model(&challenger_name);
            let mut state = self.lock_state();
            state.stats.canary_rejects += 1;
            drop(state);
            self.telemetry.canary_rejects.inc();
        }
    }
}

/// Stacks support clips into the `[S, C, T, H, W]` batch plus
/// pseudo-label vector [`safecross_fewshot::adapt`] expects. Clips
/// whose dims disagree with the first are skipped (a stream's clip
/// geometry is fixed, so this only guards against misuse).
fn stack_support(support: &[&ReplayClip]) -> Option<(Tensor, Vec<usize>)> {
    let first = support.first()?;
    let dims = first.clip.dims();
    let kept: Vec<&ReplayClip> = support.iter().copied().filter(|c| c.clip.dims() == dims).collect();
    let s = kept.len();
    let mut stacked = Tensor::zeros(&[s, dims[0], dims[1], dims[2], dims[3]]);
    let stride = first.clip.len();
    let mut labels = Vec::with_capacity(s);
    for (i, clip) in kept.iter().enumerate() {
        stacked.data_mut()[i * stride..(i + 1) * stride].copy_from_slice(clip.clip.data());
        labels.push(clip.label);
    }
    Some((stacked, labels))
}

/// Mean raw top-1 confidence of `model` over the held-out clips — the
/// canary score. Higher means the model is more certain on exactly the
/// clips the incumbent struggled with.
fn mean_confidence(model: &mut SlowFastLite, clips: &[&ReplayClip], weather: Weather) -> f32 {
    let mut scratch = KernelScratch::new();
    let sum: f32 = clips
        .iter()
        .map(|c| classify_with_model(model, &c.clip, weather, &mut scratch).confidence)
        .sum();
    sum / clips.len() as f32
}

impl LearnHook for ContinualLearner {
    fn on_run_start(&self) {
        self.stop.store(false, Ordering::Release);
        let Some(me) = self.me.upgrade() else { return };
        let poll = self.config.poll;
        let handle = thread::spawn(move || {
            while !me.stop.load(Ordering::Acquire) {
                me.train_once();
                thread::sleep(poll);
            }
        });
        *self.trainer.lock().expect("trainer handle poisoned") = Some(handle);
    }

    fn on_run_end(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.trainer.lock().expect("trainer handle poisoned").take() {
            handle.join().expect("trainer thread panicked");
        }
        // Final synchronous pass: whatever this run harvested is
        // adapted and canaried *now*, so the resulting promotions are
        // queued before the next run's first frame — the deterministic
        // between-runs promotion path.
        self.train_once();
    }

    fn observe(&self, sample: HarvestSample<'_>) {
        if sample.verdict.confidence >= self.config.harvest_below {
            return;
        }
        let holdout = mix(
            self.config.seed ^ DOMAIN_HOLDOUT ^ ((sample.stream as u64) << 32) ^ sample.seq,
        )
        .is_multiple_of(self.config.holdout_period);
        let budget = self.config.lane_budget_bytes;
        let mut state = self.lock_state();
        state
            .lanes
            .entry((sample.stream, sample.weather))
            .or_insert_with(|| ReplayLane::new(budget))
            .push(ReplayClip {
                seq: sample.seq,
                label: sample.verdict.class.index(),
                holdout,
                clip: sample.clip.clone(),
            });
        state.stats.harvested += 1;
        drop(state);
        self.telemetry.harvested.inc();
    }

    fn take_promotions(&self, shard: usize, shard_count: usize) -> Vec<Promotion> {
        if self.promo_ready.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let mut state = self.lock_state();
        let mut taken = Vec::new();
        let mut keep = VecDeque::with_capacity(state.promotions.len());
        while let Some(promo) = state.promotions.pop_front() {
            if promo.stream % shard_count == shard {
                taken.push(promo);
            } else {
                keep.push_back(promo);
            }
        }
        state.promotions = keep;
        if !taken.is_empty() {
            self.promo_ready.fetch_sub(taken.len(), Ordering::Release);
        }
        taken
    }

    fn promotion_result(&self, promotion: &Promotion, outcome: PromotionOutcome) {
        let mut state = self.lock_state();
        if let Some(record) = state
            .records
            .iter_mut()
            .rev()
            .find(|r| r.challenger == promotion.challenger && r.outcome.is_none())
        {
            record.outcome = Some(outcome);
        }
        match outcome {
            PromotionOutcome::Activated => {
                state.bindings.insert(
                    (promotion.stream, promotion.weather),
                    promotion.challenger.clone(),
                );
                state.stats.activated += 1;
                drop(state);
                self.telemetry.activations.inc();
            }
            PromotionOutcome::RolledBack => {
                state.stats.rolled_back += 1;
                drop(state);
                // The switcher already restored the incumbent; the
                // challenger has no user left, so retire its blobs.
                self.store.remove_model(&promotion.challenger);
                self.telemetry.rollbacks.inc();
            }
            PromotionOutcome::Deferred => {
                state.stats.deferred += 1;
                drop(state);
                // The stream left the scene before activation; drop the
                // challenger rather than binding a model the stream is
                // not running. A later harvest round can re-earn it.
                self.store.remove_model(&promotion.challenger);
                self.telemetry.deferred.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safecross::Verdict;
    use safecross_dataset::Class;
    use safecross_tensor::TensorRng;

    fn learner_with(config: LearnConfig) -> Arc<ContinualLearner> {
        let mut rng = TensorRng::seed_from(5);
        let model = SlowFastLite::new(2, &mut rng);
        let store = ModelRegistry::new();
        store.register_model(Weather::Rain.label(), &model.state_groups());
        store.pin_model(Weather::Rain.label());
        let mut templates = HashMap::new();
        templates.insert(Weather::Rain, model);
        ContinualLearner::new(config, store, templates, &Registry::disabled())
    }

    fn sample_clip(rng: &mut TensorRng) -> Tensor {
        rng.uniform(&[1, 32, 20, 20], 0.0, 1.0)
    }

    fn observe_clip(learner: &ContinualLearner, stream: usize, seq: u64, clip: &Tensor, conf: f32) {
        learner.observe(HarvestSample {
            stream,
            weather: Weather::Rain,
            seq,
            verdict: Verdict {
                class: Class::Danger,
                confidence: conf,
                weather: Weather::Rain,
            },
            clip,
        });
    }

    #[test]
    fn confident_clips_are_not_harvested() {
        let learner = learner_with(LearnConfig {
            harvest_below: 0.8,
            ..LearnConfig::default()
        });
        let mut rng = TensorRng::seed_from(6);
        let clip = sample_clip(&mut rng);
        observe_clip(&learner, 0, 0, &clip, 0.99);
        assert_eq!(learner.stats().harvested, 0);
        observe_clip(&learner, 0, 1, &clip, 0.5);
        assert_eq!(learner.stats().harvested, 1);
    }

    #[test]
    fn holdout_split_is_deterministic() {
        let config = LearnConfig::default();
        let hold = |seed: u64, stream: usize, seq: u64| {
            mix(seed ^ DOMAIN_HOLDOUT ^ ((stream as u64) << 32) ^ seq)
                .is_multiple_of(config.holdout_period)
        };
        for seq in 0..200 {
            assert_eq!(hold(3, 1, seq), hold(3, 1, seq));
        }
        // The split actually splits: some in, some out.
        let held = (0..200).filter(|&s| hold(3, 1, s)).count();
        assert!(held > 0 && held < 200, "degenerate holdout split: {held}");
    }

    #[test]
    fn trainer_waits_for_min_support() {
        let learner = learner_with(LearnConfig {
            min_support: 64,
            ..LearnConfig::default()
        });
        let mut rng = TensorRng::seed_from(7);
        for seq in 0..8 {
            let clip = sample_clip(&mut rng);
            observe_clip(&learner, 0, seq, &clip, 0.5);
        }
        assert_eq!(learner.train_once(), 0);
        assert_eq!(learner.stats().adaptations, 0);
    }

    #[test]
    fn adaptation_respects_generation_cap() {
        let learner = learner_with(LearnConfig {
            min_support: 2,
            max_generations: 1,
            min_win: f32::INFINITY, // force canary rejects: attempts still count
            ..LearnConfig::default()
        });
        let mut rng = TensorRng::seed_from(8);
        for round in 0..2u64 {
            for seq in 0..12 {
                let clip = sample_clip(&mut rng);
                observe_clip(&learner, 0, round * 100 + seq, &clip, 0.5);
            }
            learner.train_once();
        }
        let stats = learner.stats();
        assert_eq!(stats.adaptations, 1, "generation cap ignored");
        assert_eq!(stats.canary_rejects, 1);
        // Rejected challengers never linger in the store.
        assert_eq!(learner.store.model_count(), 1);
    }

    #[test]
    fn rolled_back_promotions_retire_the_challenger() {
        let learner = learner_with(LearnConfig {
            min_support: 2,
            min_win: -1.0, // any margin wins: force a queued promotion
            ..LearnConfig::default()
        });
        let mut rng = TensorRng::seed_from(9);
        for seq in 0..12 {
            let clip = sample_clip(&mut rng);
            observe_clip(&learner, 0, seq, &clip, 0.5);
        }
        let before = (learner.store.stored_bytes(), learner.store.unique_groups());
        learner.train_once();
        assert_eq!(learner.stats().promotions_queued, 1);
        let promos = learner.take_promotions(0, 1);
        assert_eq!(promos.len(), 1);
        assert!(learner.store.contains(&promos[0].challenger));
        assert!(learner.store.stored_bytes() > before.0);
        learner.promotion_result(&promos[0], PromotionOutcome::RolledBack);
        assert!(!learner.store.contains(&promos[0].challenger));
        // Retiring the challenger frees everything it brought.
        assert_eq!(
            (learner.store.stored_bytes(), learner.store.unique_groups()),
            before
        );
        assert_eq!(learner.binding(0, Weather::Rain), Weather::Rain.label());
        let records = learner.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].outcome, Some(PromotionOutcome::RolledBack));
    }

    #[test]
    fn take_promotions_routes_by_owning_shard() {
        let learner = learner_with(LearnConfig {
            min_support: 2,
            min_win: -1.0,
            ..LearnConfig::default()
        });
        let mut rng = TensorRng::seed_from(10);
        for stream in 0..2usize {
            for seq in 0..12 {
                let clip = sample_clip(&mut rng);
                observe_clip(&learner, stream, seq, &clip, 0.5);
            }
        }
        learner.train_once();
        assert_eq!(learner.stats().promotions_queued, 2);
        let shard0 = learner.take_promotions(0, 2);
        let shard1 = learner.take_promotions(1, 2);
        assert_eq!(shard0.len(), 1);
        assert_eq!(shard1.len(), 1);
        assert_eq!(shard0[0].stream % 2, 0);
        assert_eq!(shard1[0].stream % 2, 1);
        assert!(learner.take_promotions(0, 2).is_empty());
    }

    #[test]
    fn trainer_death_cleans_the_orphan_checkpoint() {
        struct AlwaysKill;
        impl TrainerFaultHook for AlwaysKill {
            fn kill_adaptation(&self, _: usize, _: Weather, _: u64) -> bool {
                true
            }
        }
        let learner = learner_with(LearnConfig {
            min_support: 2,
            min_win: -1.0,
            ..LearnConfig::default()
        });
        learner.set_fault_hook(Arc::new(AlwaysKill));
        let mut rng = TensorRng::seed_from(11);
        for seq in 0..12 {
            let clip = sample_clip(&mut rng);
            observe_clip(&learner, 0, seq, &clip, 0.5);
        }
        learner.train_once();
        let stats = learner.stats();
        assert_eq!(stats.trainer_deaths, 1);
        assert_eq!(stats.promotions_queued, 0);
        // Only the pinned base checkpoint survives, and the store's
        // accounting balances.
        assert_eq!(learner.store.model_count(), 1);
        assert_eq!(
            learner.store.logical_bytes(),
            learner.store.stored_bytes() + learner.store.dedup_bytes()
        );
    }
}
