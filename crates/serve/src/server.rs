//! The fleet front: admission, scheduling, and shard orchestration.

use crate::adapt::{HarvestSample, LearnHook, PromotionOutcome};
use crate::config::{ServeConfig, ServeError};
use crate::executor::{Batch, ClipJob, Completion, ExecStats, ShardCompute};
use crate::fault::{FaultHook, WorkerAction};
use crate::metrics::{FleetMetrics, ShardMetrics};
use crate::session::{StreamId, StreamSession, StreamStats};
use crate::source::{BoxedSource, FrameSource, IntoFrameSource, SourcePoll};
use safecross::{SafeCross, SafeCrossConfig, Verdict};
use safecross_modelswitch::{ModelRegistry, SwitchFaultHook};
use safecross_telemetry::Registry;
use safecross_tensor::Precision;
use safecross_trafficsim::Weather;
use safecross_videoclass::{SlowFastLite, VideoClassifier};
use safecross_vision::GrayFrame;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long an idle shard naps before re-polling its sources, queues,
/// and the steal ring.
const IDLE_NAP: Duration = Duration::from_micros(100);

/// Admission-to-completion latency percentiles of one run, in ms.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AgeProfile {
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
}

impl AgeProfile {
    fn from_ages(ages: &mut [f64]) -> Self {
        if ages.is_empty() {
            return AgeProfile::default();
        }
        ages.sort_by(|a, b| a.partial_cmp(b).expect("ages are finite"));
        let at = |q: f64| ages[((ages.len() - 1) as f64 * q).round() as usize];
        AgeProfile {
            p50_ms: at(0.50),
            p95_ms: at(0.95),
            p99_ms: at(0.99),
            mean_ms: ages.iter().sum::<f64>() / ages.len() as f64,
            max_ms: *ages.last().expect("non-empty"),
        }
    }
}

/// One stream's slice of a [`FleetReport`].
#[derive(Debug, Clone, Copy)]
pub struct StreamReport {
    /// Which stream.
    pub stream: StreamId,
    /// This run's serving counters (deltas against the run start).
    pub stats: StreamStats,
}

/// Everything one fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-stream counters, in stream order.
    pub streams: Vec<StreamReport>,
    /// End-to-end wall time of the run.
    pub wall: Duration,
    /// Outcomes delivered across all streams.
    pub completed: u64,
    /// Frames lost to shedding across all streams.
    pub shed: u64,
    /// Aggregate delivered throughput, frames per second.
    pub aggregate_fps: f64,
    /// Queue entries the shards dispatched.
    pub batches: u64,
    /// Largest queue entry, in clips.
    pub max_batch: usize,
    /// Mean queue entry size, in clips.
    pub mean_batch: f64,
    /// Entries a shard executed out of another shard's queue. High
    /// steal counts mean the stream→shard partition was skewed and
    /// work-stealing leveled it.
    pub steals: u64,
    /// Admission-to-completion latency profile.
    pub frame_age: AgeProfile,
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet: {} frames delivered in {:?} ({:.1} fps aggregate), {} shed",
            self.completed, self.wall, self.aggregate_fps, self.shed
        )?;
        writeln!(
            f,
            "  batches: {} dispatched, mean {:.2} max {} clips, {} stolen",
            self.batches, self.mean_batch, self.max_batch, self.steals
        )?;
        writeln!(
            f,
            "  frame age ms: p50 {:.2}  p95 {:.2}  p99 {:.2}  max {:.2}",
            self.frame_age.p50_ms,
            self.frame_age.p95_ms,
            self.frame_age.p99_ms,
            self.frame_age.max_ms
        )?;
        for s in &self.streams {
            writeln!(
                f,
                "  {:<9} fed {:>6}  completed {:>6}  verdicts {:>5} ({} danger)  \
                 shed {:>5} ({} overflow, {} stale)  queue peak {:>3}",
                s.stream.to_string(),
                s.stats.fed,
                s.stats.completed,
                s.stats.verdicts,
                s.stats.danger_verdicts,
                s.stats.shed(),
                s.stats.shed_overflow,
                s.stats.shed_stale,
                s.stats.queue_peak,
            )?;
        }
        Ok(())
    }
}

/// What a new stream should look like — the argument to
/// [`FleetServer::open_stream`].
///
/// The default spec inherits the fleet's session template
/// ([`ServeConfig::stream`]); [`StreamSpec::with_config`] overrides it
/// per stream (frame geometry, segment length, confidence gate), and
/// [`StreamSpec::with_precision`] selects the numeric precision the
/// stream's forwards run at (f32 by default).
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamSpec {
    config: Option<SafeCrossConfig>,
    precision: Precision,
}

impl StreamSpec {
    /// A stream using the fleet's session template.
    pub fn new() -> Self {
        StreamSpec::default()
    }

    /// A stream with its own session configuration.
    pub fn with_config(config: SafeCrossConfig) -> Self {
        StreamSpec {
            config: Some(config),
            precision: Precision::default(),
        }
    }

    /// Selects the precision this stream's clips classify at. Int8
    /// streams run quantized replicas: the executor keys replicas by
    /// `(checkpoint, precision)`, so an int8 clip and an f32 clip of the
    /// same checkpoint may share a queue entry but never a replica.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }
}

/// A typed handle to one open stream — what
/// [`FleetServer::open_stream`] returns.
///
/// The handle is `Copy` and carries the stream's identity plus the
/// session configuration it was opened with; the per-stream accessors
/// borrow the fleet, so a handle can be stored anywhere and used
/// whenever the fleet is at hand. Handles are only meaningful against
/// the fleet that issued them: using one against a *different* fleet
/// panics when the id is out of range, and is otherwise a logic error
/// this type cannot detect.
#[derive(Debug, Clone, Copy)]
pub struct StreamHandle {
    id: StreamId,
    config: SafeCrossConfig,
    precision: Precision,
}

impl StreamHandle {
    /// The stream's fleet-wide identity.
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// The session configuration this stream was opened with.
    pub fn config(&self) -> &SafeCrossConfig {
        &self.config
    }

    /// The numeric precision this stream classifies at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    fn lane<'f>(&self, fleet: &'f FleetServer) -> &'f StreamSession {
        fleet.sessions.get(self.id.0).unwrap_or_else(|| {
            panic!(
                "{} handle used against a fleet with {} streams — \
                 handles only work with the fleet that issued them",
                self.id,
                fleet.streams()
            )
        })
    }

    /// This stream's cumulative serving counters.
    pub fn stats(&self, fleet: &FleetServer) -> StreamStats {
        self.lane(fleet).stats
    }

    /// This stream's verdicts so far.
    pub fn verdicts<'f>(&self, fleet: &'f FleetServer) -> &'f [Verdict] {
        self.lane(fleet).inner.verdicts()
    }

    /// This stream's underlying SafeCross session — its verdict
    /// history, switch log, and scene state.
    pub fn session<'f>(&self, fleet: &'f FleetServer) -> &'f SafeCross {
        &self.lane(fleet).inner
    }
}

/// A multi-intersection serving front.
///
/// One `FleetServer` multiplexes N independent intersection streams
/// over [`ServeConfig::shards`] shard threads — one per core, each
/// owning its partition's complete serving state:
///
/// - every stream owns a full per-session SafeCross state (scene
///   detector, VP background model, segment buffer, model switcher).
///   Sessions are inert state machines: no thread, no lock, no
///   blocking call. Stream `i` lives on shard `i % shards`, and only
///   that shard ever touches it, so per-stream sequential semantics —
///   and therefore verdict/switch bit-identity with a standalone run —
///   are structural;
/// - each shard admits, sheds and priority-schedules its own streams'
///   clips and pushes them onto its own stealable queue, up to
///   [`ServeConfig::batch_max`] clips per entry — an entry is pushed
///   when it is full or when the queue has run dry, never after a
///   wait. Shards execute their own queue first and steal from
///   neighbors when idle, so a skewed partition still saturates every
///   core while completions route back to the owning shard;
/// - an admission layer bounds each stream's queue (drop-oldest),
///   sheds frames that outlive [`ServeConfig::frame_deadline`], and
///   schedules streams with a recent danger verdict or model switch
///   ahead of idle ones — so one stalled or flooded stream never
///   starves the rest.
///
/// [`FleetServer::run_reference`] is the deterministic single-threaded
/// mode the equivalence tests compare against; [`FleetServer::run`] is
/// the real sharded serving loop.
pub struct FleetServer {
    config: ServeConfig,
    registry: Registry,
    fleet_metrics: FleetMetrics,
    /// The fleet's single content-addressed checkpoint store. Every
    /// stream session shares this handle, so N streams registering the
    /// same per-weather checkpoints hold each unique layer group once
    /// (refcounted), not once per stream.
    model_store: ModelRegistry,
    models: HashMap<Weather, SlowFastLite>,
    /// Model registration order — sessions register scenes in this
    /// order so fallback/switch behavior is identical across streams
    /// (and to any standalone comparator registering the same way).
    model_order: Vec<Weather>,
    sessions: Vec<StreamSession>,
    /// Chaos seam consulted by every shard once per executed batch.
    /// `None` (the default) outside fault-injection runs.
    fault_hook: Option<Arc<dyn FaultHook>>,
    /// Continual-learning seam: offered every classified clip, drained
    /// for promotions at the top of each shard loop iteration. `None`
    /// (the default) for fleets without a learner.
    learn_hook: Option<Arc<dyn LearnHook>>,
}

impl FleetServer {
    /// Creates an empty fleet after validating `config`.
    ///
    /// # Errors
    ///
    /// The first violated configuration invariant.
    pub fn new(config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let registry = if config.telemetry {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let fleet_metrics = FleetMetrics::new(&registry);
        let model_store = ModelRegistry::new();
        model_store.instrument(&registry);
        Ok(FleetServer {
            config,
            registry,
            fleet_metrics,
            model_store,
            models: HashMap::new(),
            model_order: Vec::new(),
            sessions: Vec::new(),
            fault_hook: None,
            learn_hook: None,
        })
    }

    /// Installs a chaos fault hook on the shard set: every shard
    /// consults it once per executed queue entry and can be stalled or
    /// killed/respawned (see [`FaultHook`]). Faults never lose a
    /// completion, so lossless runs stay lossless. Only
    /// [`FleetServer::run`] is affected; the single-threaded
    /// [`FleetServer::run_reference`] has no shards to fault.
    pub fn set_fault_hook(&mut self, hook: Arc<dyn FaultHook>) {
        self.fault_hook = Some(hook);
    }

    /// Removes any installed shard fault hook.
    pub fn clear_fault_hook(&mut self) {
        self.fault_hook = None;
    }

    /// Installs a continual-learning hook (see [`LearnHook`]): every
    /// clip a shard classifies during [`FleetServer::run`] is offered
    /// to it, and promotions it queues are applied by the owning shard
    /// through the session's model-binding path. The hook's
    /// `on_run_start`/`on_run_end` bracket every sharded run, so a
    /// learner can scope its background trainer thread to the run. The
    /// single-threaded [`FleetServer::run_reference`] never consults
    /// the hook — reference mode stays the fixed comparator.
    pub fn set_learn_hook(&mut self, hook: Arc<dyn LearnHook>) {
        self.learn_hook = Some(hook);
    }

    /// Removes any installed continual-learning hook.
    pub fn clear_learn_hook(&mut self) {
        self.learn_hook = None;
    }

    /// Installs a switch fault hook on every *existing* stream session's
    /// model switcher: switch attempts can be forced to fail with a
    /// synthetic out-of-memory error after evicting the old model,
    /// driving the rollback path under load (see
    /// [`SwitchFaultHook`]). Streams opened later are unaffected —
    /// install hooks after the fleet's streams are set up.
    pub fn set_switch_fault_hook(&mut self, hook: Arc<dyn SwitchFaultHook>) {
        for session in &self.sessions {
            session.inner.set_switch_fault_hook(hook.clone());
        }
    }

    /// Registers the shared classifier for one weather scene. All
    /// models must be registered before the first stream is opened.
    ///
    /// # Errors
    ///
    /// [`ServeError::ModelAfterStream`] once a stream exists.
    pub fn register_model(
        &mut self,
        weather: Weather,
        mut model: SlowFastLite,
    ) -> Result<(), ServeError> {
        if !self.sessions.is_empty() {
            return Err(ServeError::ModelAfterStream);
        }
        // The checkpoint lands in the fleet store first, and the shared
        // inference copy is resolved back out of it — so the weights the
        // shards run are bit-identical to the stored checkpoint every
        // session's switcher derives its transfer descriptor from.
        self.model_store
            .register_model(weather.label(), &model.state_groups());
        // Base scene checkpoints are the fleet's bedrock: pin them so
        // continual-learning churn under a store memory ceiling can
        // never evict them. A session's switcher protects only the
        // checkpoints it can switch to, and only while it is open.
        self.model_store.pin_model(weather.label());
        let state = self
            .model_store
            .state_dict(weather.label())
            .expect("checkpoint was just stored");
        model.load_state_dict(&state);
        if !self.model_order.contains(&weather) {
            self.model_order.push(weather);
        }
        self.models.insert(weather, model);
        Ok(())
    }

    /// Opens a stream and returns its [`StreamHandle`] — the typed
    /// entry point to everything per-stream (identity, configuration,
    /// stats, verdicts, the underlying session).
    ///
    /// ```no_run
    /// # use safecross_serve::{FleetServer, ServeConfig, StreamSpec};
    /// # let mut fleet = FleetServer::new(ServeConfig::default()).unwrap();
    /// let cam = fleet.open_stream(StreamSpec::new())?;
    /// // ... feed and run the fleet ...
    /// println!("{} verdicts", cam.verdicts(&fleet).len());
    /// # Ok::<(), safecross_serve::ServeError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`ServeError::NoModels`] before any model is registered, or
    /// [`ServeError::Stream`] when the spec's session configuration
    /// fails validation.
    pub fn open_stream(&mut self, spec: StreamSpec) -> Result<StreamHandle, ServeError> {
        let config = spec.config.unwrap_or(self.config.stream);
        let precision = spec.precision;
        let id = self.open_with(config, precision)?;
        Ok(StreamHandle {
            id,
            config,
            precision,
        })
    }

    /// The shared stream-opening path behind [`FleetServer::open_stream`].
    fn open_with(
        &mut self,
        config: SafeCrossConfig,
        precision: Precision,
    ) -> Result<StreamId, ServeError> {
        if self.models.is_empty() {
            return Err(ServeError::NoModels);
        }
        let mut inner = SafeCross::try_new(config).map_err(ServeError::Stream)?;
        // Every stream shares the fleet's checkpoint store: scene
        // registration below re-registers the same named checkpoints
        // (idempotent), so per-weather weights are held once fleet-wide.
        inner.share_model_store(&self.model_store);
        for weather in &self.model_order {
            inner.register_scene(*weather, &self.models[weather]);
        }
        let id = StreamId(self.sessions.len());
        self.sessions.push(StreamSession::new(inner, precision));
        Ok(id)
    }

    /// How many streams the fleet serves.
    pub fn streams(&self) -> usize {
        self.sessions.len()
    }

    /// Handles for every open stream, in stream order — for callers
    /// that did not keep the handles [`FleetServer::open_stream`]
    /// returned (e.g. trace replay rebuilding a fleet wholesale).
    pub fn handles(&self) -> Vec<StreamHandle> {
        self.sessions
            .iter()
            .enumerate()
            .map(|(i, s)| StreamHandle {
                id: StreamId(i),
                config: *s.inner.config(),
                precision: s.precision,
            })
            .collect()
    }

    /// The configuration this fleet was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The fleet's telemetry registry (disabled unless the
    /// configuration enabled it).
    pub fn telemetry(&self) -> &Registry {
        &self.registry
    }

    /// The fleet's shared checkpoint store. All stream sessions hold
    /// this same handle; its refcounts prove per-weather weights are
    /// stored once for the whole fleet
    /// (`model_count` / `unique_groups` / `dedup_bytes`).
    pub fn model_store(&self) -> &ModelRegistry {
        &self.model_store
    }

    fn check_feeds(&self, feeds: usize) -> Result<(), ServeError> {
        if self.models.is_empty() {
            return Err(ServeError::NoModels);
        }
        if feeds != self.sessions.len() || feeds == 0 {
            return Err(ServeError::FeedMismatch {
                feeds,
                streams: self.sessions.len(),
            });
        }
        Ok(())
    }

    /// Deterministic single-threaded reference mode: every source is
    /// drained to its complete frame sequence up front
    /// ([`FrameSource::drain`]), then rounds of round-robin over the
    /// streams process each frame fully in line (prepare, classify
    /// against the shared models, complete). No queues, no shedding,
    /// no clock-dependent behavior — each stream's verdict and switch
    /// sequences are bit-identical to a standalone
    /// [`SafeCross::process_frame`] loop over its frames, which is
    /// exactly what `tests/serve_equivalence.rs` asserts (and the
    /// sharded loop, run losslessly, matches at *any* shard count).
    ///
    /// # Errors
    ///
    /// [`ServeError::NoModels`] or [`ServeError::FeedMismatch`].
    pub fn run_reference<S: IntoFrameSource>(
        &mut self,
        feeds: Vec<S>,
    ) -> Result<FleetReport, ServeError> {
        self.check_feeds(feeds.len())?;
        let feeds: Vec<Vec<GrayFrame>> = feeds
            .into_iter()
            .map(|feed| feed.into_source().drain())
            .collect();
        let start = Instant::now();
        let before: Vec<StreamStats> = self.sessions.iter().map(|s| s.stats).collect();
        let mut ages = Vec::new();
        let models = &self.models;
        let mut compute = ShardCompute::new(models, self.model_store.clone());
        let fleet_metrics = &self.fleet_metrics;
        let sessions = &mut self.sessions;
        let rounds = feeds.iter().map(Vec::len).max().unwrap_or(0);
        for round in 0..rounds {
            for (i, feed) in feeds.iter().enumerate() {
                let Some(frame) = feed.get(round) else {
                    continue;
                };
                let session = &mut sessions[i];
                let admitted = Instant::now();
                session.stats.fed += 1;
                session.stats.admitted += 1;
                fleet_metrics.admitted.inc();
                let (seq, mut prep) = session.prepare(frame);
                let raw = match (prep.clip.take(), prep.effective) {
                    (Some(clip), Some(weather)) => {
                        let name = session.model_for(weather);
                        compute.classify_single(&name, weather, session.precision, &clip)
                    }
                    _ => None,
                };
                session.park(seq, prep, admitted);
                session.resolve(seq, raw);
                session.deliver_ready(fleet_metrics, &mut ages);
            }
        }
        Ok(self.build_report(start, before, ages, ExecStats::default()))
    }

    /// The sharded serving loop: streams (with their sessions and
    /// sources) are partitioned across [`ServeConfig::shards`] shard
    /// threads — stream `i` on shard `i % shards` — and each shard
    /// admits, sheds, schedules, dispatches, and classifies its own
    /// partition, stealing queue entries from other shards' queues when
    /// its own runs dry. A shard that owns no stream (more shards than
    /// streams) settles at once and steals for the whole run, so one
    /// camera is simply a fleet of one: its owning shard prepares
    /// frame `t+1` while another core classifies frame `t`.
    /// Every source is polled inline by its owning shard, so a run
    /// starts exactly [`ServeConfig::shards`] threads whatever its
    /// feeds are. Returns when every source is exhausted and every
    /// admitted-and-not-shed frame has completed.
    ///
    /// With shedding disabled this is lossless: backpressure pauses
    /// scheduling rather than dropping frames, and per-stream outputs
    /// stay bit-identical to a standalone run — at any shard count,
    /// which `tests/serve_equivalence.rs` propcheck over shard counts
    /// pins down. With shedding enabled, overload turns into bounded
    /// queues, overflow/stale drops, and priority scheduling — per-
    /// stream isolation under load is pinned by
    /// `tests/serve_isolation.rs`.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoModels`] or [`ServeError::FeedMismatch`].
    pub fn run<S: IntoFrameSource>(&mut self, feeds: Vec<S>) -> Result<FleetReport, ServeError> {
        self.check_feeds(feeds.len())?;
        let start = Instant::now();
        let before: Vec<StreamStats> = self.sessions.iter().map(|s| s.stats).collect();

        let shard_count = self.config.shards;
        let config = self.config;
        let fleet = self.fleet_metrics.clone();
        let registry = &self.registry;
        let fault_hook = self.fault_hook.clone();
        let learn_hook = self.learn_hook.clone();
        let store = self.model_store.clone();
        let models = &self.models;
        if let Some(hook) = &learn_hook {
            hook.on_run_start();
        }

        // Partition streams (session + source) across the shards.
        let sessions = std::mem::take(&mut self.sessions);
        let total = sessions.len();
        let mut lanes: Vec<Vec<ShardStream>> = (0..shard_count).map(|_| Vec::new()).collect();
        for (global, (session, feed)) in sessions.into_iter().zip(feeds).enumerate() {
            lanes[global % shard_count].push(ShardStream {
                global,
                session,
                source: Some(feed.into_source().boxed()),
            });
        }

        let shared = SharedRun {
            queues: (0..shard_count)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            settled: (0..shard_count).map(|_| AtomicBool::new(false)).collect(),
        };
        let mut done_txs = Vec::with_capacity(shard_count);
        let mut done_rxs = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (tx, rx) = mpsc::channel::<Completion>();
            done_txs.push(tx);
            done_rxs.push(rx);
        }

        let outcomes: Vec<ShardOutcome> = thread::scope(|s| {
            let handles: Vec<_> = lanes
                .into_iter()
                .zip(done_rxs)
                .enumerate()
                .map(|(index, (streams, done_rx))| {
                    let shared = &shared;
                    let fleet = &fleet;
                    let config = &config;
                    let done_txs = done_txs.clone();
                    let fault_hook = fault_hook.clone();
                    let learn_hook = learn_hook.clone();
                    let store = store.clone();
                    let metrics = ShardMetrics::new(registry, index);
                    s.spawn(move || {
                        Shard {
                            index,
                            shard_count,
                            config,
                            fleet,
                            metrics,
                            models,
                            streams,
                            shared,
                            done_rx,
                            done_txs,
                            fault_hook,
                            learn_hook,
                            compute: ShardCompute::new(models, store),
                            open: Vec::with_capacity(config.batch_max),
                            inflight: 0,
                            batches_done: 0,
                            ages: Vec::new(),
                            stats: ExecStats::default(),
                            rr_hot: 0,
                            rr_norm: 0,
                            settled_flagged: false,
                        }
                        .serve()
                    })
                })
                .collect();
            drop(done_txs);
            handles
                .into_iter()
                .map(|h| h.join().expect("shard panicked"))
                .collect()
        });

        // Reassemble the fleet: every shard hands its streams back.
        let mut slots: Vec<Option<StreamSession>> = (0..total).map(|_| None).collect();
        let mut ages = Vec::new();
        let mut exec = ExecStats::default();
        for outcome in outcomes {
            for (global, session) in outcome.streams {
                slots[global] = Some(session);
            }
            ages.extend(outcome.ages);
            exec.merge(&outcome.stats);
        }
        self.sessions = slots
            .into_iter()
            .map(|s| s.expect("every stream returns from its shard"))
            .collect();

        if let Some(hook) = &self.learn_hook {
            hook.on_run_end();
        }
        Ok(self.build_report(start, before, ages, exec))
    }

    fn build_report(
        &self,
        start: Instant,
        before: Vec<StreamStats>,
        mut ages: Vec<f64>,
        exec: ExecStats,
    ) -> FleetReport {
        let wall = start.elapsed();
        let streams: Vec<StreamReport> = self
            .sessions
            .iter()
            .enumerate()
            .map(|(i, s)| StreamReport {
                stream: StreamId(i),
                stats: s.stats.delta(&before[i]),
            })
            .collect();
        let completed: u64 = streams.iter().map(|s| s.stats.completed).sum();
        let shed: u64 = streams.iter().map(|s| s.stats.shed()).sum();
        let aggregate_fps = if wall.as_secs_f64() > 0.0 {
            completed as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        let frame_age = AgeProfile::from_ages(&mut ages);
        let report = FleetReport {
            streams,
            wall,
            completed,
            shed,
            aggregate_fps,
            batches: exec.batches,
            max_batch: exec.max_batch,
            mean_batch: if exec.batches > 0 {
                exec.clips as f64 / exec.batches as f64
            } else {
                0.0
            },
            steals: exec.steals,
            frame_age,
        };
        self.registry.event(
            "fleet_run",
            vec![
                ("streams".to_owned(), (report.streams.len() as u64).into()),
                ("completed".to_owned(), report.completed.into()),
                ("shed".to_owned(), report.shed.into()),
                ("aggregate_fps".to_owned(), report.aggregate_fps.into()),
                ("batches".to_owned(), report.batches.into()),
                ("steals".to_owned(), report.steals.into()),
                ("p99_age_ms".to_owned(), report.frame_age.p99_ms.into()),
            ],
        );
        report
    }
}

/// State shared by every shard of one run: the stealable batch queues
/// and the per-shard settled flags the termination protocol reads.
struct SharedRun {
    /// One batch queue per shard. A shard pushes to and pops from its
    /// own queue; an idle shard steals from the others', oldest first.
    queues: Vec<Mutex<VecDeque<Batch>>>,
    /// Monotone per-shard completion flags: shard `i` sets `settled[i]`
    /// once its sources are exhausted, its queues and reorder buffers
    /// are empty, and it has nothing in flight. Nothing can un-settle a
    /// shard (its streams can't receive new work), so every shard exits
    /// once all flags are up — and keeps stealing until then.
    settled: Vec<AtomicBool>,
}

impl SharedRun {
    fn all_settled(&self) -> bool {
        self.settled.iter().all(|s| s.load(Ordering::Acquire))
    }
}

/// One stream as a shard sees it: the inert session plus its frame
/// supply and its fleet-wide index.
struct ShardStream {
    global: usize,
    session: StreamSession,
    /// Polled inline by the owning shard; `None` once exhausted.
    source: Option<BoxedSource>,
}

/// What one shard hands back when the run settles.
struct ShardOutcome {
    streams: Vec<(usize, StreamSession)>,
    ages: Vec<f64>,
    stats: ExecStats,
}

/// One shard: the single thread that owns a partition of the fleet's
/// sessions during a sharded run. Owning all per-stream state here
/// (rather than locking it across threads) is what makes per-stream
/// sequential semantics — and therefore the bit-identity guarantee —
/// structural: frames of stream `i` are prepared, resolved, and
/// delivered only ever by shard `i % shards`, in sequence order,
/// regardless of which shard executed their batches.
struct Shard<'a> {
    index: usize,
    shard_count: usize,
    config: &'a ServeConfig,
    fleet: &'a FleetMetrics,
    metrics: ShardMetrics,
    models: &'a HashMap<Weather, SlowFastLite>,
    streams: Vec<ShardStream>,
    shared: &'a SharedRun,
    done_rx: Receiver<Completion>,
    done_txs: Vec<Sender<Completion>>,
    fault_hook: Option<Arc<dyn FaultHook>>,
    learn_hook: Option<Arc<dyn LearnHook>>,
    compute: ShardCompute<'a>,
    /// The queue entry being filled: any streams' clips, pushed to the
    /// shard queue when it holds [`ServeConfig::batch_max`] clips or
    /// when the queue has run dry.
    open: Batch,
    /// Clips staged or dispatched and not yet resolved. Bounded by
    /// [`ServeConfig::inflight_limit`] per shard.
    inflight: usize,
    /// Batches this shard has executed — the deterministic coordinate
    /// handed to the chaos seam.
    batches_done: u64,
    ages: Vec<f64>,
    stats: ExecStats,
    rr_hot: usize,
    rr_norm: usize,
    settled_flagged: bool,
}

impl Shard<'_> {
    fn serve(mut self) -> ShardOutcome {
        loop {
            self.apply_promotions();
            let mut progressed = self.drain_completions();
            progressed |= self.ingest();
            progressed |= self.schedule();
            progressed |= self.dispatch_if_dry();
            progressed |= self.execute_one();
            self.update_settled();
            if self.shared.all_settled() {
                break;
            }
            if !progressed {
                if self.inflight > 0 {
                    // Another shard is executing our clips; wake on a
                    // completion (or the timeout, to re-check the
                    // sources and the steal ring).
                    if let Ok(done) = self.done_rx.recv_timeout(Duration::from_millis(1)) {
                        self.on_completion(done);
                    }
                } else {
                    thread::sleep(IDLE_NAP);
                }
            }
        }
        ShardOutcome {
            streams: self
                .streams
                .into_iter()
                .map(|t| (t.global, t.session))
                .collect(),
            ages: self.ages,
            stats: self.stats,
        }
    }

    /// Applies the learner's queued promotions addressed to this
    /// shard's streams through the owning session's model-binding path.
    /// Runs at the top of every serve-loop iteration so an activation
    /// lands between two frames of the stream, never inside a batch.
    fn apply_promotions(&mut self) {
        let Some(hook) = &self.learn_hook else { return };
        let promotions = hook.take_promotions(self.index, self.shard_count);
        for promo in promotions {
            debug_assert_eq!(
                promo.stream % self.shard_count,
                self.index,
                "promotion routed to wrong shard"
            );
            let local = promo.stream / self.shard_count;
            let Some(lane) = self.streams.get_mut(local) else {
                hook.promotion_result(&promo, PromotionOutcome::RolledBack);
                continue;
            };
            debug_assert_eq!(lane.global, promo.stream, "promotion stream mismatch");
            let outcome = match lane
                .session
                .inner
                .bind_scene_model(promo.weather, &promo.challenger)
            {
                Ok(true) => {
                    self.fleet.promotions.inc();
                    PromotionOutcome::Activated
                }
                Ok(false) => PromotionOutcome::Deferred,
                Err(_) => {
                    self.fleet.promotion_rollbacks.inc();
                    PromotionOutcome::RolledBack
                }
            };
            hook.promotion_result(&promo, outcome);
        }
    }

    fn drain_completions(&mut self) -> bool {
        let mut any = false;
        while let Ok(done) = self.done_rx.try_recv() {
            self.on_completion(done);
            any = true;
        }
        any
    }

    fn on_completion(&mut self, done: Completion) {
        let local = done.stream / self.shard_count;
        let lane = &mut self.streams[local];
        debug_assert_eq!(lane.global, done.stream, "completion routed to wrong shard");
        lane.session.inflight -= 1;
        self.inflight -= 1;
        lane.session.resolve(done.seq, done.raw);
        lane.session.deliver_ready(self.fleet, &mut self.ages);
    }

    /// Pulls every frame currently available from this shard's sources
    /// into the admission queues.
    fn ingest(&mut self) -> bool {
        let mut any = false;
        let now = Instant::now();
        for lane in &mut self.streams {
            while let Some(source) = &mut lane.source {
                match source.poll(now) {
                    SourcePoll::Ready(frame) => {
                        lane.session.admit(
                            frame,
                            self.config.shedding,
                            self.config.queue_capacity,
                            self.fleet,
                        );
                        any = true;
                    }
                    SourcePoll::Pending => break,
                    SourcePoll::Done => lane.source = None,
                }
            }
        }
        any
    }

    fn sources_finished(&self) -> bool {
        self.streams.iter().all(|t| t.source.is_none())
    }

    /// Prepares queued frames up to the per-shard in-flight cap.
    fn schedule(&mut self) -> bool {
        let limit = self.config.inflight_limit();
        let mut any = false;
        while self.inflight < limit {
            let Some(local) = self.pick_stream() else {
                break;
            };
            self.schedule_one(local);
            any = true;
        }
        any
    }

    /// Two-level priority pick within this shard: high-priority streams
    /// (recent danger verdict or model switch) round-robin ahead of the
    /// rest; plain round-robin within each level keeps every stream
    /// live.
    fn pick_stream(&mut self) -> Option<usize> {
        let n = self.streams.len();
        if n == 0 {
            return None;
        }
        for k in 0..n {
            let i = (self.rr_hot + k) % n;
            let session = &self.streams[i].session;
            if session.queue_len() > 0 && session.is_hot() {
                self.rr_hot = (i + 1) % n;
                return Some(i);
            }
        }
        for k in 0..n {
            let i = (self.rr_norm + k) % n;
            if self.streams[i].session.queue_len() > 0 {
                self.rr_norm = (i + 1) % n;
                return Some(i);
            }
        }
        None
    }

    fn schedule_one(&mut self, local: usize) {
        let lane = &mut self.streams[local];
        let Some(pending) =
            lane.session
                .pop_fresh(self.config.frame_deadline, self.config.shedding, self.fleet)
        else {
            return;
        };
        let (seq, mut prep) = lane.session.prepare(&pending.frame);
        let dispatch = match (prep.clip.take(), prep.effective) {
            (Some(clip), Some(weather)) if self.models.contains_key(&weather) => {
                Some((clip, weather, lane.session.model_for(weather)))
            }
            _ => None,
        };
        lane.session.park(seq, prep, pending.admitted);
        match dispatch {
            Some((clip, weather, model)) => {
                lane.session.inflight += 1;
                let stream = lane.global;
                let precision = lane.session.precision;
                self.inflight += 1;
                self.stage(ClipJob {
                    stream,
                    seq,
                    weather,
                    model,
                    precision,
                    clip,
                });
            }
            None => {
                lane.session.resolve(seq, None);
                lane.session.deliver_ready(self.fleet, &mut self.ages);
            }
        }
    }

    /// Adds a clip to the open queue entry, pushing the entry the
    /// moment it holds [`ServeConfig::batch_max`] clips.
    fn stage(&mut self, job: ClipJob) {
        self.open.push(job);
        if self.open.len() >= self.config.batch_max {
            self.dispatch();
        }
    }

    /// Pushes an under-full open entry once this shard's own queue has
    /// run dry, so no clip waits for company; while the queue still
    /// holds work the entry keeps filling. Runs after every scheduling
    /// pass, which also flushes the last clips of a run.
    fn dispatch_if_dry(&mut self) -> bool {
        if self.open.is_empty()
            || !self.shared.queues[self.index]
                .lock()
                .expect("shard queue poisoned")
                .is_empty()
        {
            return false;
        }
        self.dispatch();
        true
    }

    fn dispatch(&mut self) {
        let jobs = std::mem::replace(&mut self.open, Vec::with_capacity(self.config.batch_max));
        self.stats.batches += 1;
        self.stats.clips += jobs.len() as u64;
        self.stats.max_batch = self.stats.max_batch.max(jobs.len());
        self.fleet.batches.inc();
        self.fleet.batch_size.observe_ms(jobs.len() as f64);
        self.shared.queues[self.index]
            .lock()
            .expect("shard queue poisoned")
            .push_back(jobs);
    }

    /// Executes one queue entry — own queue first, then the steal ring —
    /// routing each completion back to the clip's owning shard.
    fn execute_one(&mut self) -> bool {
        let mut stolen = false;
        let mut batch = self.shared.queues[self.index]
            .lock()
            .expect("shard queue poisoned")
            .pop_front();
        if batch.is_none() {
            for k in 1..self.shard_count {
                let victim = (self.index + k) % self.shard_count;
                batch = self.shared.queues[victim]
                    .lock()
                    .expect("shard queue poisoned")
                    .pop_front();
                if batch.is_some() {
                    stolen = true;
                    break;
                }
            }
        }
        let Some(batch) = batch else { return false };
        // Chaos seam: consulted once per executed batch. A `Die` drops
        // this shard's warm compute state (model clones, scratch) —
        // never a session — and the "respawned" shard retries the same
        // batch cold, so no completion is ever lost.
        if let Some(hook) = &self.fault_hook {
            match hook.before_batch(self.index, self.batches_done) {
                WorkerAction::Continue => {}
                WorkerAction::Stall(pause) => thread::sleep(pause),
                WorkerAction::Die => {
                    self.compute.drop_warm_state();
                    self.fleet.worker_deaths.inc();
                }
            }
        }
        self.batches_done += 1;
        let verdicts = self.compute.classify(&batch);
        self.metrics.batches.inc();
        if stolen {
            self.stats.steals += 1;
            self.metrics.steals.inc();
            self.fleet.steals.inc();
        }
        // Continual-learning harvest: offer every classified clip to the
        // learner before the jobs are consumed by completion routing.
        if let Some(hook) = &self.learn_hook {
            for (job, verdict) in batch.iter().zip(&verdicts) {
                hook.observe(HarvestSample {
                    stream: job.stream,
                    weather: job.weather,
                    seq: job.seq,
                    verdict: *verdict,
                    clip: &job.clip,
                });
            }
        }
        for (job, verdict) in batch.iter().zip(verdicts) {
            let owner = job.stream % self.shard_count;
            let sent = self.done_txs[owner].send(Completion {
                stream: job.stream,
                seq: job.seq,
                raw: Some(verdict),
            });
            debug_assert!(sent.is_ok(), "owner shard hung up mid-run");
        }
        true
    }

    /// Raises this shard's monotone settled flag once nothing local can
    /// ever produce work again. A settled shard keeps looping (and
    /// stealing) until every shard settles.
    fn update_settled(&mut self) {
        if self.settled_flagged {
            return;
        }
        let idle = self.inflight == 0
            && self.open.is_empty()
            && self.sources_finished()
            && self
                .streams
                .iter()
                .all(|t| t.session.queue_len() == 0 && t.session.is_settled());
        if idle {
            self.settled_flagged = true;
            self.shared.settled[self.index].store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::Promotion;
    use crate::source::paced_feed;
    use safecross_tensor::TensorRng;

    /// Queues promotions up front and journals how each one fared.
    #[derive(Default)]
    struct QueuedPromotions {
        queued: Mutex<Vec<Promotion>>,
        results: Mutex<Vec<(Promotion, PromotionOutcome)>>,
        shard_counts: Mutex<Vec<usize>>,
    }

    impl LearnHook for QueuedPromotions {
        fn observe(&self, _sample: HarvestSample<'_>) {}

        fn take_promotions(&self, shard: usize, shard_count: usize) -> Vec<Promotion> {
            self.shard_counts.lock().unwrap().push(shard_count);
            let mut queued = self.queued.lock().unwrap();
            let (mine, rest) = queued
                .drain(..)
                .partition(|p| p.stream % shard_count == shard);
            *queued = rest;
            mine
        }

        fn promotion_result(&self, promotion: &Promotion, outcome: PromotionOutcome) {
            self.results
                .lock()
                .unwrap()
                .push((promotion.clone(), outcome));
        }
    }

    #[test]
    fn more_shards_than_streams_settles_and_routes_promotions() {
        let config = ServeConfig::builder()
            .shards(4)
            .shedding(false)
            .build()
            .expect("valid serve configuration");
        let mut fleet = FleetServer::new(config).expect("valid serve configuration");
        let mut rng = TensorRng::seed_from(21);
        let model = SlowFastLite::new(2, &mut rng);
        fleet
            .register_model(Weather::Daytime, model.clone())
            .expect("models first");
        let cam = fleet
            .open_stream(StreamSpec::new())
            .expect("models are registered");

        let promotion = Promotion {
            stream: cam.id().index(),
            weather: Weather::Daytime,
            challenger: "daytime#s0g1".to_owned(),
        };
        fleet
            .model_store()
            .register_model(&promotion.challenger, &model.state_groups());
        let hook = Arc::new(QueuedPromotions::default());
        hook.queued.lock().unwrap().push(promotion.clone());
        fleet.set_learn_hook(hook.clone());

        let frames: Vec<GrayFrame> = (0..40)
            .map(|t| GrayFrame::filled(320, 240, 80 + (t % 30) as u8))
            .collect();
        let report = fleet
            .run(vec![paced_feed(frames, Duration::ZERO)])
            .expect("one-stream run succeeds");

        // Three of the four shards own no stream; the run still settles
        // with every frame delivered.
        assert_eq!(report.completed, 40);
        assert_eq!(report.shed, 0);
        assert_eq!(cam.stats(&fleet).completed, 40);
        // Every shard polled the hook with the configured shard count,
        // and the promotion reached the stream's owning shard.
        assert!(hook.shard_counts.lock().unwrap().iter().all(|&n| n == 4));
        assert_eq!(
            *hook.results.lock().unwrap(),
            vec![(promotion.clone(), PromotionOutcome::Activated)]
        );
        assert_eq!(
            cam.session(&fleet)
                .scene_model_name(Weather::Daytime)
                .as_deref(),
            Some(promotion.challenger.as_str())
        );
    }
}
