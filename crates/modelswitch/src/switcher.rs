//! The model-switching runtime driven by scene changes.

use crate::gpu::GpuSpec;
use crate::memory::{MemoryError, MemoryPool};
use crate::model_desc::ModelDesc;
use crate::schedule::{simulate_switch, SwitchReport, SwitchStrategy, TimelineEvent, TimelinePhase};
use crate::store::ModelRegistry;
use safecross_telemetry::{Counter, Histogram, Registry};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Error returned when a switch request cannot be honoured.
#[derive(Debug, Clone, PartialEq)]
pub enum SwitchError {
    /// The requested name was never [`ModelSwitcher::register`]ed.
    UnknownModel {
        /// The name that was requested.
        name: String,
        /// Every name that *is* registered, sorted.
        registered: Vec<String>,
    },
    /// The model does not fit in GPU memory even after evicting the
    /// previously active model. The switcher keeps the old model active.
    OutOfMemory {
        /// The name that was requested.
        name: String,
        /// The underlying pool failure.
        source: MemoryError,
    },
}

impl fmt::Display for SwitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchError::UnknownModel { name, registered } => {
                write!(f, "model {name} is not registered (registered: {registered:?})")
            }
            SwitchError::OutOfMemory { name, source } => {
                write!(f, "model {name} does not fit in GPU memory: {source}")
            }
        }
    }
}

impl std::error::Error for SwitchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SwitchError::UnknownModel { .. } => None,
            SwitchError::OutOfMemory { source, .. } => Some(source),
        }
    }
}

/// Per-phase wall time of one switch, summed from the report timeline.
/// In the pipelined strategies transmit and compute overlap, so the
/// parts can add up to more than the end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SwitchBreakdown {
    /// Task-initialisation time (zero under pipelined strategies).
    pub setup_ms: f64,
    /// PCIe transmission time across all groups.
    pub transmit_ms: f64,
    /// Kernel execution time across all groups.
    pub compute_ms: f64,
}

impl SwitchBreakdown {
    fn from_timeline(timeline: &[TimelineEvent]) -> Self {
        let mut b = SwitchBreakdown::default();
        for e in timeline {
            let dur = e.end_ms - e.start_ms;
            match e.phase {
                TimelinePhase::Setup => b.setup_ms += dur,
                TimelinePhase::Transmit => b.transmit_ms += dur,
                TimelinePhase::Compute => b.compute_ms += dur,
            }
        }
        b
    }
}

/// One completed model swap, as handed to [`ModelSwitcher::with_switch_log`].
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchRecord {
    /// The model switched *to*.
    pub model: String,
    /// The frame index the orchestrator attributed the swap to (zero
    /// when the caller did not supply one).
    pub frame: u64,
    /// End-to-end switch latency, ms.
    pub latency_ms: f64,
    /// Where that latency went.
    pub breakdown: SwitchBreakdown,
}

/// The result of a switch request.
#[derive(Debug, Clone, PartialEq)]
pub enum SwitchOutcome {
    /// The requested model was already active; nothing happened.
    AlreadyActive,
    /// The switch ran; the report holds the simulated latency.
    Switched(SwitchReport),
}

impl SwitchOutcome {
    /// The latency this outcome cost, ms.
    pub fn latency_ms(&self) -> f64 {
        match self {
            SwitchOutcome::AlreadyActive => 0.0,
            SwitchOutcome::Switched(r) => r.total_ms,
        }
    }
}

/// Pre-fetched switch telemetry handles (see [`ModelSwitcher::instrument`]).
#[derive(Debug)]
struct SwitchTelemetry {
    registry: Registry,
    switches: Counter,
    already_active: Counter,
    latency_ms: Histogram,
    transmit_ms: Histogram,
    compute_ms: Histogram,
    activate_bytes: Counter,
    forced_oom: Counter,
}

/// A fault-injection seam for chaos testing: decides whether a switch
/// attempt is sabotaged with a synthetic out-of-memory failure *after*
/// the old model has been evicted — the worst-case point, exercising
/// the full rollback path (re-reserve the old model's bytes, keep it
/// active, keep serving it).
///
/// The hook is consulted with a monotonically increasing attempt
/// counter so a deterministic plan (same seed, same decisions) needs no
/// interior clock or entropy of its own. Production switchers carry no
/// hook and pay one `Option` check per switch.
pub trait SwitchFaultHook: Send + Sync {
    /// Return `true` to force this switch attempt to fail with
    /// [`SwitchError::OutOfMemory`]. `name` is the model being switched
    /// *to*; `attempt` counts real switch attempts on this switcher
    /// (already-active no-ops are not attempts).
    fn inject_oom(&self, name: &str, attempt: u64) -> bool;
}

/// Wrapper keeping `Inner` debuggable around the untyped hook object.
struct FaultHookHandle(Arc<dyn SwitchFaultHook>);

impl fmt::Debug for FaultHookHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SwitchFaultHook(..)")
    }
}

/// A registry of scene models plus the simulated device state. This is
/// the MS module the SafeCross orchestrator drives when the weather
/// detector reports a scene change.
///
/// Thread safety: the inner state sits behind a `std::sync::Mutex`, so
/// a camera thread and a control thread can share one switcher.
#[derive(Debug, Clone)]
pub struct ModelSwitcher {
    inner: Arc<Mutex<Inner>>,
    gpu: GpuSpec,
    strategy: SwitchStrategy,
}

#[derive(Debug)]
struct Inner {
    /// Switch descriptors behind `Arc`: models registered straight from
    /// the store share one descriptor across every session's switcher.
    registry: HashMap<String, Arc<ModelDesc>>,
    pool: MemoryPool,
    active: Option<String>,
    switch_log: Vec<SwitchRecord>,
    telemetry: Option<SwitchTelemetry>,
    /// Checkpoint store [`ModelSwitcher::register_from_store`] derives
    /// descriptors from; descriptor-only operation (synthetic
    /// [`ModelDesc`]s) works without one.
    store: Option<ModelRegistry>,
    /// Chaos seam: consulted once per real switch attempt.
    fault_hook: Option<FaultHookHandle>,
    /// Real switch attempts so far (fuel for deterministic fault plans).
    attempts: u64,
}

impl ModelSwitcher {
    /// Creates a switcher for a device with `gpu_memory` bytes.
    pub fn new(gpu: GpuSpec, gpu_memory: usize, strategy: SwitchStrategy) -> Self {
        ModelSwitcher {
            inner: Arc::new(Mutex::new(Inner {
                registry: HashMap::new(),
                pool: MemoryPool::new(gpu_memory),
                active: None,
                switch_log: Vec::new(),
                telemetry: None,
                store: None,
                fault_hook: None,
                attempts: 0,
            })),
            gpu,
            strategy,
        }
    }

    /// Attaches a telemetry registry shared by every clone of this
    /// switcher. Each completed swap then bumps `ms.switches`, records
    /// latency/transmit/compute histograms under `ms.*`, adds the
    /// descriptor's bytes to `switch.activate.bytes`, and appends a
    /// `model_switch` journal event.
    pub fn instrument(&self, registry: &Registry) {
        let tel = SwitchTelemetry {
            registry: registry.clone(),
            switches: registry.counter("ms.switches"),
            already_active: registry.counter("ms.already_active"),
            latency_ms: registry.histogram("ms.switch_ms"),
            transmit_ms: registry.histogram("ms.transmit_ms"),
            compute_ms: registry.histogram("ms.compute_ms"),
            activate_bytes: registry.counter("switch.activate.bytes"),
            forced_oom: registry.counter("ms.forced_oom"),
        };
        self.inner.lock().expect("switcher mutex poisoned").telemetry = Some(tel);
    }

    /// Installs a chaos fault hook shared by every clone of this
    /// switcher. Subsequent switch attempts consult
    /// [`SwitchFaultHook::inject_oom`]; a `true` answer fails the
    /// attempt exactly like a real pool exhaustion would — after the old
    /// model was evicted — driving the rollback path under test. Bumps
    /// `ms.forced_oom` when instrumented.
    pub fn set_fault_hook(&self, hook: Arc<dyn SwitchFaultHook>) {
        self.inner.lock().expect("switcher mutex poisoned").fault_hook =
            Some(FaultHookHandle(hook));
    }

    /// Removes any installed fault hook.
    pub fn clear_fault_hook(&self) {
        self.inner.lock().expect("switcher mutex poisoned").fault_hook = None;
    }

    /// Registers a scene model under `name` (e.g. `"daytime"`).
    pub fn register(&self, name: &str, model: ModelDesc) {
        self.inner
            .lock()
            .expect("switcher mutex poisoned")
            .registry
            .insert(name.to_owned(), Arc::new(model));
    }

    /// Attaches a checkpoint store for [`ModelSwitcher::register_from_store`].
    /// A switch moves a descriptor's bytes through the simulated link;
    /// the weights that classify stay in the store and are loaded from
    /// it by whoever runs the forward.
    pub fn attach_store(&self, store: &ModelRegistry) {
        self.inner.lock().expect("switcher mutex poisoned").store = Some(store.clone());
    }

    /// Registers `name` straight from the attached store: the switch
    /// descriptor is derived from the checkpoint's manifest — one
    /// timeline layer per layer group, carrying the group's real byte
    /// size — with `total_flops` spread proportionally to group bytes.
    /// The descriptor is the store's shared one, and holding it is what
    /// keeps the checkpoint safe from the store's LRU evictor: a name
    /// stays stored for as long as it is switchable here.
    ///
    /// # Errors
    ///
    /// [`SwitchError::UnknownModel`] when no store is attached or the
    /// store has no checkpoint under `name`.
    pub fn register_from_store(&self, name: &str, total_flops: f64) -> Result<(), SwitchError> {
        let store = self
            .inner
            .lock()
            .expect("switcher mutex poisoned")
            .store
            .clone();
        let desc = store
            .as_ref()
            .and_then(|s| s.shared_model_desc(name, total_flops))
            .ok_or_else(|| SwitchError::UnknownModel {
                name: name.to_owned(),
                registered: store.as_ref().map(|s| s.models()).unwrap_or_default(),
            })?;
        self.inner
            .lock()
            .expect("switcher mutex poisoned")
            .registry
            .insert(name.to_owned(), desc);
        Ok(())
    }

    /// Drops the switch descriptor registered under `name`, so the name
    /// is no longer switchable here and — once no other switcher holds
    /// it — its checkpoint becomes evictable again. Refuses the active
    /// model (its pool reservation hangs off the name). Returns whether
    /// an entry was removed.
    pub fn unregister(&self, name: &str) -> bool {
        let mut inner = self.inner.lock().expect("switcher mutex poisoned");
        inner.active.as_deref() != Some(name) && inner.registry.remove(name).is_some()
    }

    /// Registered model names, sorted.
    pub fn registered(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.lock().expect("switcher mutex poisoned").registry.keys().cloned().collect();
        names.sort();
        names
    }

    /// The active model name, if any.
    pub fn active(&self) -> Option<String> {
        self.inner.lock().expect("switcher mutex poisoned").active.clone()
    }

    /// Switches to the model registered under `name`, evicting the old
    /// active model from the memory pool and simulating the transfer.
    /// Equivalent to [`ModelSwitcher::switch_to_at`] with frame `0`.
    ///
    /// # Errors
    ///
    /// [`SwitchError::UnknownModel`] if `name` was never registered;
    /// [`SwitchError::OutOfMemory`] if the model cannot fit in GPU
    /// memory even after evicting the previous one (the previous model
    /// stays active in that case).
    pub fn switch_to(&self, name: &str) -> Result<SwitchOutcome, SwitchError> {
        self.switch_to_at(name, 0)
    }

    /// Like [`ModelSwitcher::switch_to`], but attributes the swap to
    /// `frame` in the switch log and journal — the orchestrator passes
    /// the frame index at which the scene change was detected.
    ///
    /// # Errors
    ///
    /// See [`ModelSwitcher::switch_to`].
    pub fn switch_to_at(&self, name: &str, frame: u64) -> Result<SwitchOutcome, SwitchError> {
        let mut inner = self.inner.lock().expect("switcher mutex poisoned");
        if inner.active.as_deref() == Some(name) {
            if let Some(tel) = &inner.telemetry {
                tel.already_active.inc();
            }
            return Ok(SwitchOutcome::AlreadyActive);
        }
        let model = inner
            .registry
            .get(name)
            .ok_or_else(|| SwitchError::UnknownModel {
                name: name.to_owned(),
                registered: {
                    let mut names: Vec<String> = inner.registry.keys().cloned().collect();
                    names.sort();
                    names
                },
            })?
            .clone();
        inner.attempts += 1;
        let attempt = inner.attempts;
        let forced_oom = inner
            .fault_hook
            .as_ref()
            .is_some_and(|h| h.0.inject_oom(name, attempt));
        // Evict the previous model (PipeSwitch keeps one active model
        // plus streaming buffers), remembering enough to roll back.
        let evicted = match inner.active.take() {
            Some(old) => {
                let bytes = inner.pool.release(&old).expect("active model was resident");
                Some((old, bytes))
            }
            None => None,
        };
        // The chaos seam synthesizes pool exhaustion at the worst
        // possible point — after eviction — so the rollback below runs
        // exactly as it would for a genuinely oversized model.
        let reserved = if forced_oom {
            Err(MemoryError::OutOfMemory {
                requested: model.total_bytes(),
                free: inner.pool.free(),
            })
        } else {
            inner.pool.reserve(name, model.total_bytes())
        };
        if let Err(source) = reserved {
            // Roll back so the switcher keeps serving the old model.
            if let Some((old, bytes)) = evicted {
                inner
                    .pool
                    .reserve(&old, bytes)
                    .expect("re-reserving freed bytes cannot fail");
                inner.active = Some(old);
            }
            if forced_oom {
                if let Some(tel) = &inner.telemetry {
                    tel.forced_oom.inc();
                }
            }
            return Err(SwitchError::OutOfMemory { name: name.to_owned(), source });
        }
        let report = simulate_switch(&self.gpu, &model, &self.strategy);
        let breakdown = SwitchBreakdown::from_timeline(&report.timeline);
        inner.active = Some(name.to_owned());
        inner.switch_log.push(SwitchRecord {
            model: name.to_owned(),
            frame,
            latency_ms: report.total_ms,
            breakdown,
        });
        if let Some(tel) = &inner.telemetry {
            tel.switches.inc();
            tel.activate_bytes.add(model.total_bytes() as u64);
            tel.latency_ms.observe_ms(report.total_ms);
            tel.transmit_ms.observe_ms(breakdown.transmit_ms);
            tel.compute_ms.observe_ms(breakdown.compute_ms);
            tel.registry.event(
                "model_switch",
                vec![
                    ("model".to_owned(), name.into()),
                    ("frame".to_owned(), frame.into()),
                    ("latency_ms".to_owned(), report.total_ms.into()),
                    ("transmit_ms".to_owned(), breakdown.transmit_ms.into()),
                    ("compute_ms".to_owned(), breakdown.compute_ms.into()),
                ],
            );
        }
        Ok(SwitchOutcome::Switched(report))
    }

    /// Runs `f` over a borrowed view of the switch log — every switch
    /// performed so far, oldest first — without cloning any record. The
    /// switcher's lock is held for the duration of `f`, so keep the
    /// closure short and do not call back into the switcher from inside
    /// it.
    pub fn with_switch_log<R>(&self, f: impl FnOnce(&[SwitchRecord]) -> R) -> R {
        f(&self.inner.lock().expect("switcher mutex poisoned").switch_log)
    }

    /// How many switches have completed, without cloning the log.
    pub fn switch_count(&self) -> usize {
        self.with_switch_log(|log| log.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safecross_tensor::Tensor;

    fn switcher(strategy: SwitchStrategy) -> ModelSwitcher {
        let s = ModelSwitcher::new(GpuSpec::rtx_2080_ti(), 11_000_000_000, strategy);
        s.register("daytime", ModelDesc::slowfast_r50());
        s.register("rain", ModelDesc::slowfast_r50());
        s.register("snow", ModelDesc::slowfast_r50());
        s
    }

    #[test]
    fn switching_cycles_scenes() {
        let s = switcher(SwitchStrategy::PipelinedOptimal);
        assert_eq!(s.active(), None);
        let o1 = s.switch_to("daytime").unwrap();
        assert!(matches!(o1, SwitchOutcome::Switched(_)));
        assert_eq!(s.active().as_deref(), Some("daytime"));
        let o2 = s.switch_to("daytime").unwrap();
        assert_eq!(o2, SwitchOutcome::AlreadyActive);
        assert_eq!(o2.latency_ms(), 0.0);
        s.switch_to("snow").unwrap();
        assert_eq!(s.active().as_deref(), Some("snow"));
        assert_eq!(s.switch_count(), 2);
    }

    #[test]
    fn pipelined_switch_is_fast_enough_for_realtime() {
        let s = switcher(SwitchStrategy::PipelinedOptimal);
        s.switch_to("daytime").unwrap();
        let outcome = s.switch_to("rain").unwrap();
        // Paper headline: scene switches complete in <10 ms beyond the
        // inference itself.
        if let SwitchOutcome::Switched(r) = outcome {
            assert!(r.switch_overhead_ms < 10.0, "{:.2} ms", r.switch_overhead_ms);
        } else {
            panic!("expected a switch");
        }
    }

    #[test]
    fn stop_and_start_is_not_realtime() {
        let s = switcher(SwitchStrategy::StopAndStart);
        let outcome = s.switch_to("rain").unwrap();
        assert!(outcome.latency_ms() > 1000.0);
    }

    #[test]
    fn registered_names_sorted() {
        let s = switcher(SwitchStrategy::PipelinedOptimal);
        assert_eq!(s.registered(), vec!["daytime", "rain", "snow"]);
    }

    #[test]
    fn unregister_drops_the_name_but_refuses_the_active_model() {
        let s = switcher(SwitchStrategy::PipelinedOptimal);
        s.switch_to("daytime").unwrap();
        assert!(!s.unregister("daytime"), "the active model stays registered");
        assert!(s.unregister("snow"));
        assert!(!s.unregister("snow"), "already gone");
        assert_eq!(s.registered(), vec!["daytime", "rain"]);
        assert!(matches!(
            s.switch_to("snow"),
            Err(SwitchError::UnknownModel { .. })
        ));
    }

    #[test]
    fn unknown_model_is_a_typed_error() {
        let s = switcher(SwitchStrategy::PipelinedOptimal);
        let err = s.switch_to("fog").unwrap_err();
        match &err {
            SwitchError::UnknownModel { name, registered } => {
                assert_eq!(name, "fog");
                assert_eq!(registered, &["daytime", "rain", "snow"]);
            }
            other => panic!("expected UnknownModel, got {other:?}"),
        }
        assert!(err.to_string().contains("fog"));
        assert_eq!(s.active(), None, "failed switch must not activate anything");
    }

    #[test]
    fn oversized_model_keeps_previous_active() {
        // A pool that fits exactly one slowfast_r50 but not the larger
        // model: the failed switch must leave the old model serving.
        let small = ModelDesc::slowfast_r50();
        let s = ModelSwitcher::new(
            GpuSpec::rtx_2080_ti(),
            small.total_bytes() + 1024,
            SwitchStrategy::PipelinedOptimal,
        );
        s.register("daytime", small.clone());
        s.register("huge", ModelDesc::resnet152());
        s.switch_to("daytime").unwrap();
        let err = s.switch_to("huge").unwrap_err();
        assert!(matches!(err, SwitchError::OutOfMemory { .. }));
        assert_eq!(s.active().as_deref(), Some("daytime"));
        // The rollback must leave the pool usable: switching back to an
        // already-active model is still a no-op, and the log holds only
        // the one successful switch.
        assert_eq!(s.switch_to("daytime").unwrap(), SwitchOutcome::AlreadyActive);
        assert_eq!(s.switch_count(), 1);
    }

    #[test]
    fn switch_log_carries_frame_and_breakdown() {
        let s = switcher(SwitchStrategy::PipelinedOptimal);
        s.switch_to_at("daytime", 7).unwrap();
        s.switch_to_at("snow", 42).unwrap();
        s.with_switch_log(|log| {
            assert_eq!(log.len(), 2);
            assert_eq!(log[0].model, "daytime");
            assert_eq!(log[0].frame, 7);
            assert_eq!(log[1].model, "snow");
            assert_eq!(log[1].frame, 42);
            for rec in log {
                assert!(rec.latency_ms > 0.0);
                assert!(rec.breakdown.transmit_ms > 0.0);
                assert!(rec.breakdown.compute_ms > 0.0);
                // Pipelined strategies skip per-task setup entirely.
                assert_eq!(rec.breakdown.setup_ms, 0.0);
            }
        });
    }

    #[test]
    fn instrumented_switcher_records_metrics_and_events() {
        let registry = Registry::new();
        let s = switcher(SwitchStrategy::PipelinedOptimal);
        s.instrument(&registry);
        s.switch_to_at("daytime", 0).unwrap();
        s.switch_to_at("daytime", 1).unwrap();
        s.switch_to_at("rain", 9).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ms.switches"), Some(2));
        assert_eq!(snap.counter("ms.already_active"), Some(1));
        let hist = snap.histogram("ms.switch_ms").expect("switch histogram");
        assert_eq!(hist.count, 2);
        let events = registry.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].name, "model_switch");
        assert_eq!(
            events[1].field("model").map(|v| v.to_string()),
            Some("rain".to_owned())
        );
    }

    fn stored_switcher(gpu_memory: usize) -> (ModelSwitcher, ModelRegistry) {
        let store = ModelRegistry::new();
        let daytime = vec![
            ("stem".to_owned(), vec![("stem.w".to_owned(), Tensor::full(&[64], 1.0))]),
            ("head".to_owned(), vec![("head.w".to_owned(), Tensor::full(&[8], 2.0))]),
        ];
        let rain = vec![
            ("stem".to_owned(), vec![("stem.w".to_owned(), Tensor::full(&[64], 1.0))]),
            ("head".to_owned(), vec![("head.w".to_owned(), Tensor::full(&[8], 5.0))]),
        ];
        store.register_model("daytime", &daytime);
        store.register_model("rain", &rain);
        let s = ModelSwitcher::new(
            GpuSpec::rtx_2080_ti(),
            gpu_memory,
            SwitchStrategy::PipelinedOptimal,
        );
        s.attach_store(&store);
        s.register_from_store("daytime", 1.0e9).unwrap();
        s.register_from_store("rain", 1.0e9).unwrap();
        (s, store)
    }

    #[test]
    fn stored_descriptor_carries_real_group_sizes() {
        let (s, store) = stored_switcher(1 << 20);
        let desc = store.shared_model_desc("daytime", 1.0e9).expect("registered");
        assert_eq!(desc.num_layers(), 2, "one timeline layer per group");
        assert_eq!(desc.layers[0].param_bytes, 64 * 4);
        assert_eq!(desc.layers[1].param_bytes, 8 * 4);
        // The simulated switch moves exactly the manifest's bytes.
        if let SwitchOutcome::Switched(r) = s.switch_to("daytime").unwrap() {
            assert!(r.total_ms > 0.0);
        } else {
            panic!("expected a switch");
        }
    }

    #[test]
    fn activation_bytes_land_in_telemetry() {
        let registry = Registry::new();
        let (s, _store) = stored_switcher(1 << 20);
        s.instrument(&registry);
        s.switch_to("daytime").unwrap();
        s.switch_to("rain").unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("switch.activate.bytes"),
            Some((2 * (64 + 8) * 4) as u64),
        );
    }

    #[test]
    fn switchable_checkpoint_is_never_evicted() {
        let (s, store) = stored_switcher(1 << 20);
        store.pin_model("daytime");
        s.switch_to("rain").unwrap();
        s.switch_to("daytime").unwrap();
        // Daytime's 72 floats plus rain's own head fill the ceiling; one
        // more checkpoint forces an eviction. Rain is registered here,
        // so only the newcomer may go.
        store.set_memory_ceiling(Some((64 + 8 + 8) * 4));
        let fog = vec![("fog".to_owned(), vec![("fog.w".to_owned(), Tensor::full(&[8], 7.0))])];
        store.register_model("fog", &fog);
        assert!(store.contains("rain"), "a switchable checkpoint was evicted");
        let rain = store.state_dict("rain").expect("switchable checkpoint is stored");
        assert_eq!(rain[1].1, Tensor::full(&[8], 5.0));
        assert!(!store.contains("fog"), "the unprotected newcomer went instead");
        // Unregistering releases the protection: rain is now the LRU.
        assert!(s.unregister("rain"));
        store.register_model("fog", &fog);
        assert!(!store.contains("rain"), "an unswitchable checkpoint stays evictable");
        assert!(store.contains("fog"));
    }

    #[test]
    fn register_from_store_requires_a_stored_checkpoint() {
        let s = ModelSwitcher::new(
            GpuSpec::rtx_2080_ti(),
            1 << 20,
            SwitchStrategy::PipelinedOptimal,
        );
        // No store attached at all.
        assert!(matches!(
            s.register_from_store("daytime", 1.0),
            Err(SwitchError::UnknownModel { .. })
        ));
        let store = ModelRegistry::new();
        s.attach_store(&store);
        let err = s.register_from_store("fog", 1.0).unwrap_err();
        match err {
            SwitchError::UnknownModel { name, registered } => {
                assert_eq!(name, "fog");
                assert!(registered.is_empty());
            }
            other => panic!("expected UnknownModel, got {other:?}"),
        }
    }

    #[test]
    fn shared_across_threads() {
        let s = switcher(SwitchStrategy::PipelinedOptimal);
        let s2 = s.clone();
        let h = std::thread::spawn(move || {
            s2.switch_to("daytime").unwrap();
        });
        h.join().unwrap();
        assert_eq!(s.active().as_deref(), Some("daytime"));
    }
}
