//! The SafeCross orchestrator.
//!
//! The per-frame work is factored into three *stages* — scene detection
//! plus model switching ([`SceneStage`]), VP preprocessing plus segment
//! assembly ([`VpStage`]), and clip classification ([`ClassifyStage`]).
//! [`SafeCross::process_frame`] drives them back-to-back on the calling
//! thread. [`SafeCross::prepare_frame`] / [`SafeCross::complete_frame`]
//! split the same stage code around classification, so a serving layer
//! (`safecross-serve`) can overlap one camera's preprocessing with its
//! classification on another core — or batch many cameras' clips — and
//! still execute identical stage transitions in identical frame order;
//! `tests/serve_equivalence.rs` locks that bit-identity in.

use crate::errors::{ConfigError, SafeCrossError};
use crate::scene::SceneDetector;
use safecross_dataset::Class;
use safecross_modelswitch::{
    GpuSpec, ModelRegistry, ModelSwitcher, SwitchError, SwitchFaultHook, SwitchOutcome,
    SwitchRecord, SwitchReport, SwitchStrategy,
};
use safecross_nn::Mode;
use safecross_telemetry::{Counter, Histogram, Registry};
use safecross_tensor::kernel::{self, GemmObserverFn};
use safecross_tensor::{KernelScratch, Tensor};
use safecross_trafficsim::Weather;
use safecross_videoclass::{SlowFastLite, VideoClassifier};
use safecross_vision::{GrayFrame, PreprocessConfig, Preprocessor, SegmentBuffer};
use std::collections::HashMap;
use std::sync::Arc;

/// Orchestrator configuration.
///
/// Construct via [`SafeCrossConfig::builder`] to get validation at
/// build time, or fill the fields directly and let
/// [`SafeCross::try_new`] validate.
#[derive(Debug, Clone, Copy)]
pub struct SafeCrossConfig {
    /// Camera frame width.
    pub frame_width: usize,
    /// Camera frame height.
    pub frame_height: usize,
    /// VP pipeline settings.
    pub preprocess: PreprocessConfig,
    /// Frames per classified segment (paper: 32).
    pub segment_frames: usize,
    /// Scene-detector voting window.
    pub scene_window: usize,
    /// Minimum softmax confidence to emit a verdict at all.
    pub min_confidence: f32,
    /// Whether the built-in telemetry registry records anything. When
    /// `false` (the default) every metric handle is inert and the frame
    /// path never reads the clock for instrumentation.
    pub telemetry: bool,
}

impl Default for SafeCrossConfig {
    fn default() -> Self {
        SafeCrossConfig {
            frame_width: 320,
            frame_height: 240,
            preprocess: PreprocessConfig::default(),
            segment_frames: 32,
            scene_window: 8,
            min_confidence: 0.0,
            telemetry: false,
        }
    }
}

impl SafeCrossConfig {
    /// Starts a builder seeded with the defaults.
    pub fn builder() -> SafeCrossConfigBuilder {
        SafeCrossConfigBuilder {
            config: SafeCrossConfig::default(),
        }
    }

    /// Checks every invariant the orchestrator relies on.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.frame_width == 0 || self.frame_height == 0 {
            return Err(ConfigError::EmptyFrame {
                frame_width: self.frame_width,
                frame_height: self.frame_height,
            });
        }
        if self.segment_frames < 2 {
            return Err(ConfigError::SegmentTooShort {
                segment_frames: self.segment_frames,
            });
        }
        if self.scene_window == 0 {
            return Err(ConfigError::EmptySceneWindow);
        }
        if !self.min_confidence.is_finite() || !(0.0..=1.0).contains(&self.min_confidence) {
            return Err(ConfigError::BadConfidence {
                min_confidence: self.min_confidence,
            });
        }
        Ok(())
    }
}

/// Fluent, validating constructor for [`SafeCrossConfig`].
///
/// ```
/// use safecross::SafeCrossConfig;
///
/// let config = SafeCrossConfig::builder()
///     .frame_size(320, 240)
///     .segment_frames(32)
///     .min_confidence(0.25)
///     .telemetry(true)
///     .build()
///     .expect("valid configuration");
/// assert!(config.telemetry);
/// ```
#[derive(Debug, Clone)]
pub struct SafeCrossConfigBuilder {
    config: SafeCrossConfig,
}

impl SafeCrossConfigBuilder {
    /// Camera frame dimensions.
    pub fn frame_size(mut self, width: usize, height: usize) -> Self {
        self.config.frame_width = width;
        self.config.frame_height = height;
        self
    }

    /// VP pipeline settings.
    pub fn preprocess(mut self, preprocess: PreprocessConfig) -> Self {
        self.config.preprocess = preprocess;
        self
    }

    /// Frames per classified segment (paper: 32).
    pub fn segment_frames(mut self, segment_frames: usize) -> Self {
        self.config.segment_frames = segment_frames;
        self
    }

    /// Scene-detector voting window.
    pub fn scene_window(mut self, scene_window: usize) -> Self {
        self.config.scene_window = scene_window;
        self
    }

    /// Minimum softmax confidence to emit a verdict.
    pub fn min_confidence(mut self, min_confidence: f32) -> Self {
        self.config.min_confidence = min_confidence;
        self
    }

    /// Enables or disables the telemetry registry.
    pub fn telemetry(mut self, telemetry: bool) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a [`ConfigError`].
    pub fn build(self) -> Result<SafeCrossConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A turn/no-turn verdict for the waiting left-turner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Predicted class at the decision keyframe.
    pub class: Class,
    /// Softmax confidence of that class.
    pub confidence: f32,
    /// Scene model that produced the verdict.
    pub weather: Weather,
}

impl Verdict {
    /// Whether the verdict warns against turning.
    pub fn is_warning(&self) -> bool {
        self.class == Class::Danger
    }
}

/// Everything one camera frame produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameOutcome {
    /// A classification verdict, once the segment buffer is full.
    pub verdict: Option<Verdict>,
    /// A model switch triggered by a scene change, with its simulated
    /// latency report.
    pub scene_switch: Option<(Weather, SwitchReport)>,
}

/// The output of the pre-classification half of the frame path
/// ([`SafeCross::prepare_frame`]): everything scene detection and VP
/// produced for one frame, ready for classification.
///
/// A serving layer can run many sessions' `prepare_frame` calls locally
/// and funnel the clips into shared, batched inference, then hand each
/// raw verdict back through [`SafeCross::complete_frame`]. Driving the
/// two halves back-to-back with the session's own models is exactly
/// [`SafeCross::process_frame`].
#[derive(Debug, Clone)]
pub struct FramePrep {
    /// A model switch triggered by this frame's scene vote.
    pub scene_switch: Option<(Weather, SwitchReport)>,
    /// The scene whose model should classify this frame (the detected
    /// scene, the daytime fallback, or the first registered scene).
    pub effective: Option<Weather>,
    /// The assembled `[1, T, H, W]` clip, once the segment buffer is
    /// full.
    pub clip: Option<Tensor>,
}

/// FLOP budget attributed to a scene checkpoint's switch descriptor —
/// the cost model every scene registration (and continual-learning
/// promotion) derives its transfer timeline from.
pub const SCENE_TOTAL_FLOPS: f64 = 36.0e9;

/// Stage 1: scene detection and model switching.
///
/// Owns the voting-window detector and the MS runtime. Sequential per
/// frame (the voting window is stateful), but independent of the VP and
/// classification state.
struct SceneStage {
    scene: SceneDetector,
    switcher: ModelSwitcher,
    /// Scenes with a registered model, in registration order. The first
    /// entry doubles as the deterministic fallback when neither the
    /// detected scene nor daytime has a model.
    registered: Vec<Weather>,
    /// Checkpoint name bound to each scene. Starts as the weather label
    /// at registration; continual-learning promotions rebind a scene to
    /// an adapted challenger ([`SafeCross::bind_scene_model`]), and
    /// every later switch onto that scene activates the bound name.
    names: HashMap<Weather, Arc<str>>,
    frames_total: Counter,
    step_ms: Histogram,
}

impl SceneStage {
    fn new(scene_window: usize, registry: &Registry) -> Self {
        let switcher = ModelSwitcher::new(
            GpuSpec::rtx_2080_ti(),
            11_000_000_000,
            SwitchStrategy::PipelinedOptimal,
        );
        switcher.instrument(registry);
        SceneStage {
            scene: SceneDetector::new(scene_window),
            switcher,
            registered: Vec::new(),
            names: HashMap::new(),
            frames_total: registry.counter("stage.scene.frames"),
            step_ms: registry.histogram("stage.scene.step_ms"),
        }
    }

    /// Consumes frame number `frame_index` of the stream: updates the
    /// scene vote, performs a model switch (attributed to that index)
    /// when the vote flips onto a registered scene, and reports the
    /// scene whose model should classify this frame.
    fn step(
        &mut self,
        frame: &GrayFrame,
        frame_index: u64,
    ) -> (Option<(Weather, SwitchReport)>, Option<Weather>) {
        let _t = self.step_ms.start_timer();
        self.frames_total.inc();
        let mut scene_switch = None;
        if let Some(new_scene) = self.scene.observe(frame) {
            if self.registered.contains(&new_scene) {
                let name = self.model_name(new_scene);
                // The registered-scene guard makes an error here
                // unreachable; a refused switch just means no swap.
                if let Ok(SwitchOutcome::Switched(report)) =
                    self.switcher.switch_to_at(name.as_ref(), frame_index)
                {
                    scene_switch = Some((new_scene, report));
                }
            }
        }
        (scene_switch, self.effective_scene())
    }

    /// The checkpoint name bound to `weather`: the promotion-bound
    /// challenger if one was promoted, else the weather label itself.
    fn model_name(&self, weather: Weather) -> Arc<str> {
        self.names
            .get(&weather)
            .cloned()
            .unwrap_or_else(|| Arc::from(weather.label()))
    }

    /// Whether `name` must stay switchable: a registered scene's base
    /// label or a checkpoint some scene is currently bound to.
    fn keeps(&self, name: &str) -> bool {
        self.registered.iter().any(|w| w.label() == name)
            || self.names.values().any(|n| n.as_ref() == name)
    }

    /// The scene whose model should run: the detected scene when a model
    /// exists for it, else the daytime fallback, else the first
    /// registered scene.
    fn effective_scene(&self) -> Option<Weather> {
        let detected = self.scene.current();
        if self.registered.contains(&detected) {
            Some(detected)
        } else if self.registered.contains(&Weather::Daytime) {
            Some(Weather::Daytime)
        } else {
            self.registered.first().copied()
        }
    }
}

/// Stage 2: VP preprocessing and segment assembly.
///
/// Owns the background-subtraction state and the sliding segment buffer;
/// emits a full `[1, T, H, W]` clip once the buffer fills.
struct VpStage {
    vp: Preprocessor,
    buffer: SegmentBuffer,
    step_ms: Histogram,
}

impl VpStage {
    fn new(config: &SafeCrossConfig, registry: &Registry) -> Self {
        let mut vp = Preprocessor::new(config.frame_width, config.frame_height, config.preprocess);
        vp.instrument(registry);
        VpStage {
            vp,
            buffer: SegmentBuffer::new(config.segment_frames),
            step_ms: registry.histogram("stage.vp.step_ms"),
        }
    }

    /// Consumes one frame; returns the assembled clip when the segment
    /// buffer is full.
    fn step(&mut self, frame: &GrayFrame) -> Option<Tensor> {
        let _t = self.step_ms.start_timer();
        let grid = self.vp.process(frame);
        self.buffer.push(grid);
        self.buffer.as_clip()
    }
}

/// Stage 3: clip classification with the per-scene models.
struct ClassifyStage {
    models: HashMap<Weather, SlowFastLite>,
    /// Kernel scratch arena reused across every clip this stage
    /// classifies; after the first few clips the steady-state forward
    /// pass performs no heap allocation at all.
    scratch: KernelScratch,
    min_confidence: f32,
    step_ms: Histogram,
    verdicts_total: Counter,
}

impl ClassifyStage {
    fn new(config: &SafeCrossConfig, registry: &Registry) -> Self {
        ClassifyStage {
            models: HashMap::new(),
            scratch: KernelScratch::new(),
            min_confidence: config.min_confidence,
            step_ms: registry.histogram("stage.classify.step_ms"),
            verdicts_total: registry.counter("stage.classify.verdicts"),
        }
    }

    /// The lookup-and-forward half: classifies a clip with this
    /// session's own model for `scene`, without confidence gating.
    fn classify(&mut self, clip: Option<&Tensor>, scene: Option<Weather>) -> Option<Verdict> {
        let _t = self.step_ms.start_timer();
        let clip = clip?;
        let weather = scene?;
        let model = self.models.get_mut(&weather)?;
        Some(classify_with_model(model, clip, weather, &mut self.scratch))
    }

    /// The gating half: applies the minimum-confidence threshold to a
    /// raw verdict (however it was computed) and counts accepted ones.
    fn accept(&mut self, raw: Option<Verdict>) -> Option<Verdict> {
        let verdict = raw?;
        if verdict.confidence < self.min_confidence {
            return None;
        }
        self.verdicts_total.inc();
        Some(verdict)
    }
}

/// The shared classification kernel: every verdict in the system — a
/// solo [`SafeCross::process_frame`] loop, the fleet's reference mode,
/// or a shard's queue entry — goes through this one function, so the
/// numeric path is identical everywhere. `clip` (`[C, T, H, W]`) is
/// copied into a `[1, C, T, H, W]` eval forward of `model`.
///
/// The verdict is **not** confidence-gated; feed it through
/// [`SafeCross::complete_frame`] (or compare against
/// [`SafeCrossConfig::min_confidence`]) for that.
///
/// `scratch` is the caller-owned kernel arena: once it has warmed up
/// (a few forwards), classification performs no heap allocation — every
/// intermediate, including the batched clip and the probability row,
/// cycles through the pool.
pub fn classify_with_model(
    model: &mut SlowFastLite,
    clip: &Tensor,
    weather: Weather,
    scratch: &mut KernelScratch,
) -> Verdict {
    let d: [usize; 4] = clip
        .dims()
        .try_into()
        .expect("expected a [C, T, H, W] clip");
    let mut batched = scratch.take_tensor(&[1, d[0], d[1], d[2], d[3]]);
    batched.data_mut().copy_from_slice(clip.data());
    let logits = model.forward_scratch(&batched, Mode::Eval, scratch);
    scratch.recycle_tensor(batched);
    let mut probs = scratch.take(logits.len());
    let (class_idx, confidence) = top_class_from_logits(logits.data(), &mut probs);
    scratch.recycle(probs);
    scratch.recycle_tensor(logits);
    Verdict {
        class: Class::from_index(class_idx),
        confidence,
        weather,
    }
}

/// Softmax + argmax over one logit row, written into a caller-provided
/// probability buffer. Arithmetic is expression-for-expression identical
/// to [`Tensor::softmax_rows`] followed by [`Tensor::argmax_rows`] (same
/// max-shift, same accumulation order, same strict `>` first-on-ties
/// argmax), so verdicts computed through this allocation-free path are
/// bit-identical to the tensor-op path.
///
/// # Panics
///
/// Panics if `probs` is shorter than `row`.
pub fn top_class_from_logits(row: &[f32], probs: &mut [f32]) -> (usize, f32) {
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0;
    for (p, &v) in probs.iter_mut().zip(row) {
        *p = (v - m).exp();
        z += *p;
    }
    for p in &mut probs[..row.len()] {
        *p /= z;
    }
    let mut best = 0;
    for (i, &v) in probs[..row.len()].iter().enumerate() {
        if v > probs[best] {
            best = i;
        }
    }
    (best, probs[best])
}

/// The deployed SafeCross system: VP -> VC with FL-produced per-scene
/// models and MS-managed switching.
pub struct SafeCross {
    config: SafeCrossConfig,
    registry: Registry,
    /// Content-addressed store holding every registered checkpoint's
    /// layer-group blobs. Private to this session unless a serving layer
    /// shares one handle across sessions
    /// ([`SafeCross::share_model_store`]), in which case per-weather
    /// weights are held once for the whole fleet.
    model_store: ModelRegistry,
    scene_stage: SceneStage,
    vp_stage: VpStage,
    classify_stage: ClassifyStage,
    verdicts: Vec<Verdict>,
    frames_seen: usize,
    /// Strong handle keeping the `nn.gemm.*` telemetry bridge alive in
    /// the kernel layer's observer registry; the registry itself only
    /// holds a `Weak`, so dropping the system unhooks the observer.
    _gemm_observer: Option<Arc<GemmObserverFn>>,
}

impl SafeCross {
    /// Creates a system after validating `config`. When
    /// `config.telemetry` is set, the system carries a live
    /// [`Registry`] (see [`SafeCross::telemetry`]); otherwise every
    /// instrument is inert and costs one branch per use.
    ///
    /// # Errors
    ///
    /// The first violated configuration invariant.
    pub fn try_new(config: SafeCrossConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let registry = if config.telemetry {
            Registry::new()
        } else {
            Registry::disabled()
        };
        // Bridge the kernel layer's GEMM samples into this system's
        // registry. Only live (telemetry-enabled) systems register, so a
        // disabled system never makes the kernel layer read the clock.
        let gemm_observer = if config.telemetry {
            let calls = registry.counter("nn.gemm.calls");
            let flops = registry.counter("nn.gemm.flops");
            let ms = registry.histogram("nn.gemm.ms");
            let observer: Arc<GemmObserverFn> = Arc::new(move |sample| {
                calls.inc();
                flops.add(sample.flops());
                ms.observe_ms(sample.elapsed_ms);
            });
            kernel::register_gemm_observer(&observer);
            Some(observer)
        } else {
            None
        };
        let model_store = ModelRegistry::new();
        model_store.instrument(&registry);
        let scene_stage = SceneStage::new(config.scene_window, &registry);
        scene_stage.switcher.attach_store(&model_store);
        Ok(SafeCross {
            config,
            model_store,
            scene_stage,
            vp_stage: VpStage::new(&config, &registry),
            classify_stage: ClassifyStage::new(&config, &registry),
            verdicts: Vec::new(),
            frames_seen: 0,
            registry,
            _gemm_observer: gemm_observer,
        })
    }

    /// Registers the classifier for one weather scene (the FL module's
    /// output). The first registered model becomes active.
    ///
    /// The checkpoint is stored in the [`ModelRegistry`] as
    /// content-addressed layer groups, and the session's local replica
    /// is resolved back *through the store* — so the weights this
    /// session classifies with are bit-identical to the stored
    /// checkpoint, and identical groups across weather checkpoints are
    /// held once.
    pub fn register_model(&mut self, weather: Weather, mut model: SlowFastLite) {
        self.register_scene(weather, &model);
        let state = self
            .model_store
            .state_dict(weather.label())
            .expect("checkpoint was stored by register_scene");
        model.load_state_dict(&state);
        model.instrument(&self.registry);
        self.classify_stage.models.insert(weather, model);
    }

    /// Registers a weather scene for detection and model switching
    /// *without* storing a local copy of the classifier — `model` is
    /// only measured to build the switcher's transfer descriptor.
    ///
    /// This is the serving-layer entry point: a fleet front keeps one
    /// shared copy of each scene model and runs classification
    /// centrally (see `safecross-serve`), while every session still
    /// owns its scene detector and switcher so its switch log is
    /// bit-identical to a standalone run that called
    /// [`SafeCross::register_model`] with the same models. A session
    /// set up this way never classifies locally:
    /// [`SafeCross::process_frame`] yields no verdicts; pair
    /// [`SafeCross::prepare_frame`] with external classification and
    /// [`SafeCross::complete_frame`] instead. Either way the checkpoint
    /// lands in the [`ModelRegistry`] and the switcher's transfer
    /// descriptor is derived from its layer-group manifest, so a switch
    /// moves the checkpoint's real bytes.
    pub fn register_scene(&mut self, weather: Weather, model: &SlowFastLite) {
        self.model_store
            .register_model(weather.label(), &model.state_groups());
        self.scene_stage
            .switcher
            .register_from_store(weather.label(), SCENE_TOTAL_FLOPS)
            .expect("checkpoint was just stored");
        if self.scene_stage.registered.is_empty() {
            self.scene_stage
                .switcher
                .switch_to(weather.label())
                .expect("first registered model must fit the empty GPU pool");
        }
        if !self.scene_stage.registered.contains(&weather) {
            self.scene_stage.registered.push(weather);
            self.scene_stage
                .names
                .insert(weather, Arc::from(weather.label()));
        }
    }

    /// Rebinds the scene `weather` to the stored checkpoint `name` and
    /// activates it — the continual-learning promotion entry point.
    ///
    /// Returns `Ok(true)` when the challenger was activated (the
    /// switcher swapped to its checkpoint and every later switch
    /// onto this scene uses it), or `Ok(false)` when the promotion was
    /// *deferred* without binding anything: the scene is not the one
    /// currently classified, and activating a model the stream is not
    /// running would perturb the switch log of an unaffected scene.
    ///
    /// # Errors
    ///
    /// [`SwitchError::UnknownModel`] if `weather` has no registered
    /// scene or `name` is not in the model store;
    /// [`SwitchError::OutOfMemory`] if activation failed — the
    /// switcher's rollback machinery has already restored the previous
    /// active model, no binding is changed and `name` is not left
    /// switchable. After a successful rebind the superseded challenger
    /// (never a base scene label) stops being switchable too.
    pub fn bind_scene_model(&mut self, weather: Weather, name: &str) -> Result<bool, SwitchError> {
        if !self.scene_stage.registered.contains(&weather) {
            return Err(SwitchError::UnknownModel {
                name: name.to_owned(),
                registered: self
                    .scene_stage
                    .registered
                    .iter()
                    .map(|w| w.label().to_owned())
                    .collect(),
            });
        }
        if !self.model_store.contains(name) {
            return Err(SwitchError::UnknownModel {
                name: name.to_owned(),
                registered: self.model_store.models(),
            });
        }
        if self.scene_stage.effective_scene() != Some(weather) {
            return Ok(false);
        }
        let stage = &mut self.scene_stage;
        stage
            .switcher
            .register_from_store(name, SCENE_TOTAL_FLOPS)?;
        if let Err(err) = stage.switcher.switch_to_at(name, self.frames_seen as u64) {
            if !stage.keeps(name) {
                stage.switcher.unregister(name);
            }
            return Err(err);
        }
        if let Some(old) = stage.names.insert(weather, Arc::from(name)) {
            if !stage.keeps(&old) {
                stage.switcher.unregister(&old);
            }
        }
        // Standalone sessions classify locally: refresh that replica so
        // the local path serves the promoted weights too.
        if let Some(model) = self.classify_stage.models.get_mut(&weather) {
            if let Some(state) = self.model_store.state_dict(name) {
                model.load_state_dict(&state);
            }
        }
        Ok(true)
    }

    /// The checkpoint name currently bound to `weather`: the weather
    /// label after [`SafeCross::register_scene`], or the promoted
    /// challenger after a successful [`SafeCross::bind_scene_model`].
    /// `None` when the scene has no registered model.
    pub fn scene_model_name(&self, weather: Weather) -> Option<Arc<str>> {
        if !self.scene_stage.registered.contains(&weather) {
            return None;
        }
        Some(self.scene_stage.model_name(weather))
    }

    /// The telemetry registry the frame path records into. Disabled (all
    /// handles inert) unless the configuration enabled telemetry; call
    /// [`Registry::snapshot`] on it for a point-in-time export.
    pub fn telemetry(&self) -> &Registry {
        &self.registry
    }

    /// The content-addressed checkpoint store this session registers
    /// its models into. The returned handle shares state with the
    /// session (a [`ModelRegistry`] is a shared handle), so few-shot
    /// adapters or evaluation harnesses can store and resolve
    /// checkpoints next to the scene models.
    pub fn model_store(&self) -> &ModelRegistry {
        &self.model_store
    }

    /// Replaces this session's private model store with a shared handle
    /// — the fleet-serving setup, where N sessions register the same
    /// per-weather checkpoints and each unique layer group must be held
    /// once, not N times.
    ///
    /// # Panics
    ///
    /// Panics if a model was already registered: the store must be
    /// shared before any [`SafeCross::register_model`] /
    /// [`SafeCross::register_scene`] call, otherwise earlier
    /// checkpoints would be stranded in the private store.
    pub fn share_model_store(&mut self, store: &ModelRegistry) {
        assert!(
            self.scene_stage.registered.is_empty(),
            "share the model store before registering scene models"
        );
        self.model_store = store.clone();
        self.scene_stage.switcher.attach_store(&self.model_store);
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SafeCrossConfig {
        &self.config
    }

    /// Scenes with a registered model.
    pub fn registered_scenes(&self) -> Vec<Weather> {
        let mut scenes: Vec<Weather> = self.scene_stage.registered.clone();
        scenes.sort_by_key(|w| w.label());
        scenes
    }

    /// The scene the detector currently believes in.
    pub fn current_scene(&self) -> Weather {
        self.scene_stage.scene.current()
    }

    /// Total frames processed.
    pub fn frames_seen(&self) -> usize {
        self.frames_seen
    }

    /// All verdicts emitted so far.
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// Runs `f` over a borrowed view of the switch log — every model
    /// swap performed so far, oldest first, with the frame index it was
    /// attributed to and the per-phase latency breakdown — without
    /// cloning any record.
    pub fn with_switch_log<R>(&self, f: impl FnOnce(&[SwitchRecord]) -> R) -> R {
        self.scene_stage.switcher.with_switch_log(f)
    }

    /// How many model swaps have completed, without cloning the log.
    pub fn switch_count(&self) -> usize {
        self.scene_stage.switcher.switch_count()
    }

    /// Installs a chaos fault hook on this session's model switcher:
    /// subsequent switch attempts can be forced to fail with a
    /// synthetic out-of-memory error after evicting the old model,
    /// exercising the full rollback path (see [`SwitchFaultHook`]).
    /// Install after registration — the initial activation of the first
    /// registered scene happens inside
    /// [`SafeCross::register_model`] / [`SafeCross::register_scene`].
    pub fn set_switch_fault_hook(&self, hook: Arc<dyn SwitchFaultHook>) {
        self.scene_stage.switcher.set_fault_hook(hook);
    }

    /// Removes any installed switch fault hook.
    pub fn clear_switch_fault_hook(&self) {
        self.scene_stage.switcher.clear_fault_hook();
    }

    /// Consumes one camera frame: scene detection (and model switch if
    /// the scene flipped), VP, and — once a full segment is buffered — a
    /// VC verdict.
    pub fn process_frame(&mut self, frame: &GrayFrame) -> FrameOutcome {
        let prep = self.prepare_frame(frame);
        let raw = self
            .classify_stage
            .classify(prep.clip.as_ref(), prep.effective);
        self.complete_frame(prep, raw)
    }

    /// Runs the pre-classification half of the frame path: scene
    /// detection (and model switch if the scene flipped) plus VP and
    /// segment assembly. The caller owns classification: compute a raw
    /// verdict for [`FramePrep::clip`] — with
    /// [`classify_with_model`] against any model replica for
    /// [`FramePrep::effective`] — and hand it to
    /// [`SafeCross::complete_frame`]. `prepare_frame` /
    /// `complete_frame` pairs executed in feed order are bit-identical
    /// to [`SafeCross::process_frame`] on the same frames.
    pub fn prepare_frame(&mut self, frame: &GrayFrame) -> FramePrep {
        let (scene_switch, effective) = self.scene_stage.step(frame, self.frames_seen as u64);
        self.frames_seen += 1;
        let clip = self.vp_stage.step(frame);
        FramePrep {
            scene_switch,
            effective,
            clip,
        }
    }

    /// Completes a prepared frame with an externally-computed raw
    /// verdict: applies the configured minimum-confidence gate, records
    /// the verdict, and assembles the [`FrameOutcome`]. Pass `None`
    /// when the frame produced no clip or no model exists for its
    /// effective scene.
    pub fn complete_frame(&mut self, prep: FramePrep, raw: Option<Verdict>) -> FrameOutcome {
        let verdict = self.classify_stage.accept(raw);
        if let Some(v) = verdict {
            self.verdicts.push(v);
        }
        FrameOutcome {
            verdict,
            scene_switch: prep.scene_switch,
        }
    }

    /// Classifies one externally-prepared clip (`[1, T, H, W]`) with the
    /// model for `weather` — the batch path used by the evaluation
    /// harnesses.
    ///
    /// # Errors
    ///
    /// [`SafeCrossError::NoModel`] if no model is registered for
    /// `weather`.
    pub fn classify_clip(
        &mut self,
        clip: &Tensor,
        weather: Weather,
    ) -> Result<Verdict, SafeCrossError> {
        let registered = self.registered_scenes();
        let model =
            self.classify_stage
                .models
                .get_mut(&weather)
                .ok_or(SafeCrossError::NoModel {
                    weather,
                    registered,
                })?;
        Ok(classify_with_model(
            model,
            clip,
            weather,
            &mut self.classify_stage.scratch,
        ))
    }
}

impl std::fmt::Debug for SafeCross {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SafeCross(scene {}, {} models, {} frames seen, {} verdicts)",
            self.scene_stage.scene.current(),
            self.classify_stage.models.len(),
            self.frames_seen,
            self.verdicts.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safecross_tensor::TensorRng;
    use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator};

    fn system_with_models() -> SafeCross {
        let mut rng = TensorRng::seed_from(0);
        let mut sc =
            SafeCross::try_new(SafeCrossConfig::default()).expect("default configuration is valid");
        sc.register_model(Weather::Daytime, SlowFastLite::new(2, &mut rng));
        sc.register_model(Weather::Snow, SlowFastLite::new(2, &mut rng));
        sc.register_model(Weather::Rain, SlowFastLite::new(2, &mut rng));
        sc
    }

    #[test]
    fn needs_full_buffer_for_verdict() {
        let mut sc = system_with_models();
        let frame = GrayFrame::filled(320, 240, 90);
        for i in 0..31 {
            let out = sc.process_frame(&frame);
            assert!(out.verdict.is_none(), "frame {i} produced early verdict");
        }
        let out = sc.process_frame(&frame);
        assert!(out.verdict.is_some());
        assert_eq!(sc.frames_seen(), 32);
        assert_eq!(sc.verdicts().len(), 1);
    }

    #[test]
    fn scene_change_triggers_model_switch() {
        let mut sc = system_with_models();
        let mut sim = Simulator::new(Scenario::new(Weather::Snow, true, 0.2), 1);
        let mut renderer = Renderer::new(RenderConfig::default(), Weather::Snow, 1);
        let mut switched = None;
        for _ in 0..20 {
            sim.step(1.0 / 30.0);
            let frame = renderer.render(&sim);
            let out = sc.process_frame(&frame);
            if let Some((scene, report)) = out.scene_switch {
                switched = Some((scene, report));
            }
        }
        let (scene, report) = switched.expect("snow frames should switch the model");
        assert_eq!(scene, Weather::Snow);
        assert!(report.switch_overhead_ms < 10.0);
        assert_eq!(sc.current_scene(), Weather::Snow);
        // The switch log recorded daytime (initial) then snow, with the
        // snow switch attributed to a real frame index.
        sc.with_switch_log(|log| {
            assert_eq!(log.len(), 2);
            assert_eq!(log[0].model, "daytime");
            assert_eq!(log[0].frame, 0);
            assert_eq!(log[1].model, "snow");
            assert!(log[1].frame > 0);
            assert!(log[1].breakdown.transmit_ms > 0.0);
        });
    }

    #[test]
    fn classify_clip_batches() {
        let mut sc = system_with_models();
        let clip = Tensor::zeros(&[1, 32, 20, 20]);
        let v = sc.classify_clip(&clip, Weather::Daytime).unwrap();
        assert!(v.confidence >= 0.5);
        assert_eq!(v.weather, Weather::Daytime);
    }

    #[test]
    fn fallback_to_daytime_model() {
        let mut rng = TensorRng::seed_from(1);
        let mut sc =
            SafeCross::try_new(SafeCrossConfig::default()).expect("default configuration is valid");
        sc.register_model(Weather::Daytime, SlowFastLite::new(2, &mut rng));
        // Snow frames but no snow model: the daytime model still answers.
        let bright = GrayFrame::filled(320, 240, 150);
        for _ in 0..32 {
            sc.process_frame(&bright);
        }
        assert!(!sc.verdicts().is_empty());
        assert_eq!(sc.verdicts()[0].weather, Weather::Daytime);
    }

    #[test]
    fn fallback_to_first_registered_model() {
        let mut rng = TensorRng::seed_from(2);
        let mut sc =
            SafeCross::try_new(SafeCrossConfig::default()).expect("default configuration is valid");
        // Only a rain model exists; daytime frames must still classify
        // with it (deterministic first-registered fallback).
        sc.register_model(Weather::Rain, SlowFastLite::new(2, &mut rng));
        let frame = GrayFrame::filled(320, 240, 90);
        for _ in 0..32 {
            sc.process_frame(&frame);
        }
        assert!(!sc.verdicts().is_empty());
        assert_eq!(sc.verdicts()[0].weather, Weather::Rain);
    }

    #[test]
    fn failed_bind_leaves_no_switch_descriptor_behind() {
        struct AlwaysOom;
        impl SwitchFaultHook for AlwaysOom {
            fn inject_oom(&self, _name: &str, _attempt: u64) -> bool {
                true
            }
        }
        let mut sc = system_with_models();
        let mut rng = TensorRng::seed_from(3);
        for name in ["daytime#g1", "daytime#g2"] {
            sc.model_store()
                .register_model(name, &SlowFastLite::new(2, &mut rng).state_groups());
        }
        let before = sc.scene_stage.switcher.registered();

        sc.set_switch_fault_hook(Arc::new(AlwaysOom));
        let err = sc
            .bind_scene_model(Weather::Daytime, "daytime#g1")
            .unwrap_err();
        assert!(matches!(err, SwitchError::OutOfMemory { .. }), "{err}");
        assert_eq!(
            sc.scene_model_name(Weather::Daytime).as_deref(),
            Some("daytime")
        );
        assert_eq!(sc.scene_stage.switcher.registered(), before);

        // A successful rebind drops the superseded challenger, never a
        // base scene label.
        sc.clear_switch_fault_hook();
        assert_eq!(
            sc.bind_scene_model(Weather::Daytime, "daytime#g1"),
            Ok(true)
        );
        assert_eq!(
            sc.bind_scene_model(Weather::Daytime, "daytime#g2"),
            Ok(true)
        );
        assert_eq!(
            sc.scene_stage.switcher.registered(),
            ["daytime", "daytime#g2", "rain", "snow"]
        );
    }

    #[test]
    fn classify_without_model_is_a_typed_error() {
        let mut rng = TensorRng::seed_from(3);
        let mut sc =
            SafeCross::try_new(SafeCrossConfig::default()).expect("default configuration is valid");
        sc.register_model(Weather::Daytime, SlowFastLite::new(2, &mut rng));
        let err = sc
            .classify_clip(&Tensor::zeros(&[1, 32, 20, 20]), Weather::Rain)
            .unwrap_err();
        match err {
            SafeCrossError::NoModel {
                weather,
                registered,
            } => {
                assert_eq!(weather, Weather::Rain);
                assert_eq!(registered, vec![Weather::Daytime]);
            }
            other => panic!("expected NoModel, got {other:?}"),
        }
    }

    #[test]
    fn builder_validates() {
        assert!(SafeCrossConfig::builder().build().is_ok());
        assert_eq!(
            SafeCrossConfig::builder()
                .segment_frames(1)
                .build()
                .unwrap_err(),
            ConfigError::SegmentTooShort { segment_frames: 1 }
        );
        assert_eq!(
            SafeCrossConfig::builder()
                .scene_window(0)
                .build()
                .unwrap_err(),
            ConfigError::EmptySceneWindow
        );
        assert_eq!(
            SafeCrossConfig::builder()
                .min_confidence(1.5)
                .build()
                .unwrap_err(),
            ConfigError::BadConfidence {
                min_confidence: 1.5
            }
        );
        assert!(SafeCrossConfig::builder()
            .min_confidence(f32::NAN)
            .build()
            .is_err());
        assert_eq!(
            SafeCrossConfig::builder()
                .frame_size(0, 240)
                .build()
                .unwrap_err(),
            ConfigError::EmptyFrame {
                frame_width: 0,
                frame_height: 240
            }
        );
    }

    #[test]
    fn try_new_rejects_bad_configs() {
        let bad = SafeCrossConfig {
            segment_frames: 0,
            ..SafeCrossConfig::default()
        };
        assert!(SafeCross::try_new(bad).is_err());
        assert!(SafeCross::try_new(SafeCrossConfig::default()).is_ok());
    }

    #[test]
    fn telemetry_records_the_sequential_frame_path() {
        let mut rng = TensorRng::seed_from(4);
        let config = SafeCrossConfig::builder().telemetry(true).build().unwrap();
        let mut sc = SafeCross::try_new(config).expect("validated configuration");
        sc.register_model(Weather::Daytime, SlowFastLite::new(2, &mut rng));
        let frame = GrayFrame::filled(320, 240, 90);
        for _ in 0..32 {
            sc.process_frame(&frame);
        }
        let snap = sc.telemetry().snapshot();
        assert_eq!(snap.counter("stage.scene.frames"), Some(32));
        assert_eq!(snap.counter("vp.frames"), Some(32));
        assert_eq!(snap.counter("stage.classify.verdicts"), Some(1));
        assert_eq!(snap.counter("ms.switches"), Some(1)); // initial switch
        let forwards = snap.counter("vc.slowfast.forwards");
        assert_eq!(forwards, Some(1));
        assert!(snap.histogram("stage.vp.step_ms").unwrap().count == 32);
    }

    #[test]
    fn telemetry_exports_gemm_kernel_metrics() {
        let mut rng = TensorRng::seed_from(11);
        let config = SafeCrossConfig::builder().telemetry(true).build().unwrap();
        let mut sc = SafeCross::try_new(config).expect("validated configuration");
        sc.register_model(Weather::Daytime, SlowFastLite::new(2, &mut rng));
        let frame = GrayFrame::filled(320, 240, 90);
        for _ in 0..32 {
            sc.process_frame(&frame);
        }
        // The observer registry is process-global, so GEMMs issued by
        // concurrently running tests can also land here — assert the
        // bridge recorded activity, never exact counts.
        let snap = sc.telemetry().snapshot();
        assert!(snap.counter("nn.gemm.calls").unwrap_or(0) > 0);
        assert!(snap.counter("nn.gemm.flops").unwrap_or(0) > 0);
        assert!(snap.histogram("nn.gemm.ms").map_or(0, |h| h.count) > 0);
    }

    #[test]
    fn top_class_matches_tensor_softmax_argmax() {
        // Row 0 carries a tie (0.3 at indices 0 and 2) to pin the
        // first-on-ties argmax convention; row 1 is a spread-out case.
        let logits = Tensor::from_vec(vec![0.3, -1.2, 0.3, 2.0, 7.5, -3.0], &[2, 3]);
        let reference = logits.softmax_rows();
        let winners = logits.argmax_rows();
        for (r, &winner) in winners.iter().enumerate() {
            let row = &logits.data()[r * 3..(r + 1) * 3];
            let mut probs = vec![0.0; 3];
            let (idx, conf) = top_class_from_logits(row, &mut probs);
            assert_eq!(idx, winner);
            assert_eq!(conf, reference.at(&[r, idx]));
            for (j, &p) in probs.iter().enumerate() {
                assert_eq!(p, reference.at(&[r, j]));
            }
        }
    }

    #[test]
    fn disabled_telemetry_stays_at_zero() {
        let mut sc = system_with_models();
        assert!(!sc.telemetry().is_enabled());
        let frame = GrayFrame::filled(320, 240, 90);
        for _ in 0..5 {
            sc.process_frame(&frame);
        }
        let snap = sc.telemetry().snapshot();
        assert_eq!(snap.counter("stage.scene.frames"), Some(0));
        assert!(snap.events.is_empty());
    }

    #[test]
    fn verdict_warning_semantics() {
        let warn = Verdict {
            class: Class::Danger,
            confidence: 0.9,
            weather: Weather::Daytime,
        };
        let clear = Verdict {
            class: Class::Safe,
            confidence: 0.9,
            weather: Weather::Daytime,
        };
        assert!(warn.is_warning());
        assert!(!clear.is_warning());
    }

    #[test]
    fn min_confidence_gates_verdicts() {
        let mut rng = TensorRng::seed_from(9);
        let mut sc = SafeCross::try_new(SafeCrossConfig {
            min_confidence: 0.999, // an untrained model never reaches this
            ..SafeCrossConfig::default()
        })
        .expect("validated configuration");
        sc.register_model(Weather::Daytime, SlowFastLite::new(2, &mut rng));
        let frame = GrayFrame::filled(320, 240, 90);
        for _ in 0..35 {
            sc.process_frame(&frame);
        }
        assert!(sc.verdicts().is_empty(), "low-confidence verdicts leaked");
    }

    #[test]
    fn debug_output_is_informative() {
        let sc = system_with_models();
        let s = format!("{sc:?}");
        assert!(s.contains("SafeCross"));
        assert!(s.contains("3 models"));
    }
}
