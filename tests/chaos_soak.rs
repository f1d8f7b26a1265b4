//! The chaos soak: repeated fleet iterations with worker deaths,
//! forced switch OOMs, and feed-side stalls/floods/skew, run under a
//! counting global allocator with a hard live-memory ceiling. The run
//! must (1) complete every iteration's invariant checks, (2) stay
//! under the ceiling at its high-water mark, (3) not leak across
//! iterations, and (4) keep the steady-state classify path at zero
//! allocations afterwards — chaos must not have poisoned the scratch
//! arena discipline.
//!
//! Soak length defaults to ~2 wall seconds so the suite stays quick;
//! set `SAFECROSS_SOAK_SECS` (CI smoke uses 3, a nightly soak uses
//! 120+) to stretch it. The file holds a single test: the allocator
//! counters are process-global.

use safecross::{classify_with_model, SafeCrossConfig};
use safecross_replay::{run_soak, ChaosConfig, FeedChaos, ModelSpec, SoakConfig};
use safecross_serve::ServeConfig;
use safecross_tensor::{kernel, KernelScratch, TensorRng};
use safecross_trafficsim::Weather;
use safecross_videoclass::SlowFastLite;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
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

/// Hard ceiling on live heap bytes for the whole soak, frames and
/// models and queues included. The working set of this configuration
/// is a few tens of MB; 256 MB catches runaway growth with margin for
/// allocator bookkeeping noise.
const MEMORY_CEILING: usize = 256 * 1024 * 1024;

fn soak_secs() -> f64 {
    std::env::var("SAFECROSS_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0)
}

#[test]
fn chaos_soak_stays_under_the_memory_ceiling_with_zero_steady_state_allocs() {
    let config = SoakConfig {
        serve: ServeConfig::builder()
            .shards(2)
            .shedding(false)
            .stream(SafeCrossConfig {
                frame_width: 64,
                frame_height: 48,
                segment_frames: 8,
                scene_window: 4,
                min_confidence: 0.0,
                ..SafeCrossConfig::default()
            })
            .build()
            .expect("config is valid"),
        models: ModelSpec {
            seed: 23,
            classes: 2,
            weathers: Weather::ALL.to_vec(),
        },
        streams: 4,
        frames_per_stream: 48,
        base_interval: Duration::ZERO,
        chaos: ChaosConfig {
            seed: 97,
            worker_death_period: 4,
            worker_stall_period: 9,
            worker_stall_for: Duration::from_micros(200),
            oom_period: 3,
            ..ChaosConfig::default()
        },
        feed_chaos: FeedChaos {
            seed: 97,
            stall_streams: vec![1],
            stall_every: 16,
            stall_for: Duration::from_micros(500),
            flood_streams: vec![2],
            skew: true,
        },
        duration: Duration::from_secs_f64(soak_secs()),
    };

    // Live bytes at the end of each iteration: the plateau check.
    let mut live_per_iteration: Vec<usize> = Vec::new();
    let report = run_soak(&config, |_, _| {
        live_per_iteration.push(LIVE_BYTES.load(Ordering::Relaxed));
    })
    .expect("soak passes its invariant checks");

    assert!(report.iterations >= 1);
    assert_eq!(
        report.completed,
        report.iterations * (config.streams * config.frames_per_stream) as u64,
        "lossless fleet: every fed frame completed every iteration"
    );
    assert_eq!(report.shed, 0);
    assert!(report.worker_deaths > 0, "death schedule never fired");
    assert!(report.forced_ooms > 0, "OOM schedule never fired");
    assert!(report.switches > 0, "weather phases must drive switches");

    let high_water = HIGH_WATER.load(Ordering::Relaxed);
    assert!(
        high_water < MEMORY_CEILING,
        "soak high-water {high_water} bytes breached the {MEMORY_CEILING}-byte ceiling"
    );

    // No leak across iterations: once warm, end-of-iteration live
    // bytes must plateau. Iteration 1 pays one-time costs (thread-local
    // buffers, channel spine); later iterations may not keep growing.
    if live_per_iteration.len() >= 3 {
        let warm = live_per_iteration[0];
        let last = *live_per_iteration.last().expect("non-empty");
        let slack = 8 * 1024 * 1024;
        assert!(
            last <= warm + slack,
            "live bytes grew across iterations: {warm} after warmup, {last} at the end"
        );
    }

    // Steady-state classify is still allocation-free after all that
    // chaos. Frame-path GEMMs sit below the kernel's serial bar, so they
    // run on the caller's thread whatever the worker count; configure
    // more workers than this suite's hosts have, so a spawned worker
    // would allocate and fail the count. Mirrors tests/kernel_alloc.rs,
    // post-soak.
    kernel::set_threads(8);
    let mut rng = TensorRng::seed_from(23);
    let mut model = SlowFastLite::new(2, &mut rng);
    let clip = rng.uniform(&[1, 8, 20, 20], 0.0, 1.0);
    let mut scratch = KernelScratch::new();
    let expected = classify_with_model(&mut model, &clip, Weather::Daytime, &mut scratch);
    for _ in 0..3 {
        classify_with_model(&mut model, &clip, Weather::Daytime, &mut scratch);
    }
    let allocs_before = ALLOCS.load(Ordering::SeqCst);
    let mut verdict = expected;
    for _ in 0..8 {
        verdict = classify_with_model(&mut model, &clip, Weather::Daytime, &mut scratch);
    }
    assert_eq!(
        ALLOCS.load(Ordering::SeqCst) - allocs_before,
        0,
        "steady-state classify allocated after the soak"
    );
    assert_eq!(verdict, expected, "warm classifies diverged");
}
