//! The continual-learning soak: repeated fleet rounds with an eager
//! learner that promotes a challenger on every adaptation, run under a
//! counting global allocator with a hard live-memory ceiling and a
//! deliberately tight store ceiling. Generations of challengers churn
//! through the registry; the LRU evictor must keep reclaiming retired
//! checkpoints so that (1) eviction actually fires, (2) the pinned
//! base checkpoints and every checkpoint a stream's scene is bound to
//! survive, (3) the store accounting stays exact, and (4) the whole
//! process never crosses the live-memory high-water ceiling. The file holds a single test: the allocator
//! counters are process-global.

use safecross::SafeCrossConfig;
use safecross_learn::{ContinualLearner, LearnConfig};
use safecross_serve::{FleetServer, ServeConfig, StreamSpec};
use safecross_tensor::TensorRng;
use safecross_trafficsim::sim::DT;
use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, Weather};
use safecross_videoclass::SlowFastLite;
use safecross_vision::GrayFrame;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    HIGH_WATER.fetch_max(live, Ordering::Relaxed);
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counters
// are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    // SAFETY: same contract as `System::dealloc`; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    // SAFETY: same contract as `System::realloc`; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Hard ceiling on live heap bytes for the whole soak — same budget as
/// the chaos soak: the working set here is a few tens of MB, so 256 MB
/// catches unbounded challenger accumulation with room for allocator
/// bookkeeping noise.
const MEMORY_CEILING: usize = 256 * 1024 * 1024;

const W: usize = 64;
const H: usize = 48;
const FRAMES: usize = 48;

fn rendered(weather: Weather, frames: usize, seed: u64) -> Vec<GrayFrame> {
    let mut sim = Simulator::new(Scenario::new(weather, true, 0.15), seed);
    let rc = RenderConfig {
        width: W,
        height: H,
        ..RenderConfig::default()
    };
    let mut renderer = Renderer::new(rc, weather, seed);
    (0..frames)
        .map(|_| {
            sim.step(DT);
            renderer.render(&sim)
        })
        .collect()
}

fn feeds() -> Vec<Vec<GrayFrame>> {
    let mut rain = rendered(Weather::Daytime, 24, 2);
    rain.extend(rendered(Weather::Rain, FRAMES - 24, 21));
    let mut snow = rendered(Weather::Daytime, 24, 3);
    snow.extend(rendered(Weather::Snow, FRAMES - 24, 31));
    vec![rendered(Weather::Daytime, FRAMES, 1), rain, snow]
}

#[test]
fn challenger_churn_stays_bounded_under_the_lru_evictor() {
    let config = ServeConfig::builder()
        .shards(2)
        .shedding(false)
        .stream(SafeCrossConfig {
            frame_width: W,
            frame_height: H,
            segment_frames: 8,
            scene_window: 4,
            min_confidence: 0.0,
            ..SafeCrossConfig::default()
        })
        .build()
        .expect("config is valid");
    let mut fleet = FleetServer::new(config).expect("valid config");
    let mut rng = TensorRng::seed_from(3);
    let mut templates: HashMap<Weather, SlowFastLite> = HashMap::new();
    for &w in Weather::ALL.iter() {
        let model = SlowFastLite::new(2, &mut rng);
        templates.insert(w, model.clone());
        fleet.register_model(w, model).expect("no streams yet");
    }
    let streams = feeds().len();
    for _ in 0..streams {
        fleet.open_stream(StreamSpec::new()).expect("models registered");
    }

    // An eager learner: every clip harvests, every adaptation wins its
    // canary, generations never run out — maximum checkpoint churn.
    let learner = ContinualLearner::new(
        LearnConfig {
            seed: 7,
            harvest_below: 1.1,
            min_support: 2,
            min_win: -1.0,
            max_generations: 64,
            ..LearnConfig::default()
        },
        fleet.model_store().clone(),
        templates,
        fleet.telemetry(),
    );
    fleet.set_learn_hook(learner.clone());

    // Store ceiling just above the pinned bases: every challenger that
    // outlives its promotion pushes the registry over and the LRU
    // evictor must reclaim retired generations to get back under.
    let store = fleet.model_store().clone();
    let base_bytes = store.stored_bytes();
    assert!(base_bytes > 0, "base checkpoints registered");
    store.set_memory_ceiling(Some(base_bytes + base_bytes / 2));

    for round in 0..6 {
        let report = fleet.run(feeds()).expect("soak round completes");
        assert_eq!(
            report.completed,
            (FRAMES * streams) as u64,
            "round {round} lost frames under challenger churn"
        );
        // Whatever each stream's scenes are bound to — a base label or a
        // promoted challenger, current scene or not — is still stored:
        // the evictor never takes a checkpoint a stream can switch to.
        for (s, handle) in fleet.handles().iter().enumerate() {
            let session = handle.session(&fleet);
            for weather in session.registered_scenes() {
                let name = session.scene_model_name(weather).expect("registered scene");
                assert!(
                    store.state_dict(&name).is_some(),
                    "round {round}: stream {s} {} checkpoint {name:?} was evicted",
                    weather.label()
                );
            }
        }
    }

    let stats = learner.stats();
    assert!(stats.adaptations > 0, "the soak never adapted anything");
    assert!(stats.activated > 0, "the soak never promoted anything");
    assert!(
        store.evictions() > 0,
        "challenger churn never triggered the LRU evictor (stored {} bytes, ceiling {:?})",
        store.stored_bytes(),
        store.memory_ceiling()
    );

    // The pinned base checkpoints are untouchable: still stored, still
    // serving as the eviction fallback.
    for &w in Weather::ALL.iter() {
        assert!(
            store.state_dict(w.label()).is_some(),
            "pinned base checkpoint {} was evicted",
            w.label()
        );
    }

    // Accounting is exact through register/evict/remove churn.
    assert_eq!(
        store.logical_bytes(),
        store.stored_bytes() + store.dedup_bytes(),
        "store accounting drifted under eviction churn"
    );
    assert!(store.evicted_bytes() > 0, "evictions freed no bytes");

    let high = HIGH_WATER.load(Ordering::Relaxed);
    assert!(
        high < MEMORY_CEILING,
        "soak high-water {high} bytes crossed the {MEMORY_CEILING}-byte ceiling"
    );
}
