//! Allocation bound of the pre-classification half of the frame path.
//!
//! `SafeCross::prepare_frame` is scene vote + background subtraction +
//! opening + remap + segment assembly. Its masks are scratch owned by
//! the `Preprocessor` and its segment buffer is one flat ring, so a warm
//! call allocates exactly what it hands out: the `[H, W]` occupancy grid
//! and the `[1, T, H, W]` clip — never a mask, never a per-frame tensor
//! of the window. This pins that with the counting allocator of
//! `tests/kernel_alloc.rs`.
//!
//! The file deliberately holds a single test: the allocator counters
//! are process-global, so a sibling test running on another thread
//! would corrupt the measurement.

use safecross::{SafeCross, SafeCrossConfig};
use safecross_trafficsim::sim::DT;
use safecross_trafficsim::{RenderConfig, Renderer, Scenario, Simulator, Weather};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Allocations that are neither a grid nor a clip.
static OTHER_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGEST_OTHER: AtomicUsize = AtomicUsize::new(0);

// Default configuration: 32-frame segments of 20 × 20 `f32` grids.
const GRID_BYTES: usize = 20 * 20 * 4;
const CLIP_BYTES: usize = 32 * GRID_BYTES;

struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if size != GRID_BYTES && size != CLIP_BYTES {
            OTHER_ALLOCS.fetch_add(1, Ordering::Relaxed);
            LARGEST_OTHER.fetch_max(size, Ordering::Relaxed);
        }
    }
}

// SAFETY: delegates every operation to `System` unchanged; the counters
// are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    // SAFETY: same contract as `System::alloc_zeroed`; forwarded verbatim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: same contract as `System::dealloc`; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same contract as `System::realloc`; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn warm_prepare_frame_allocates_only_the_grid_and_the_clip() {
    const WARM_UP: usize = 40; // > one 32-frame segment
    const MEASURED: usize = 24;

    let mut sim = Simulator::new(Scenario::new(Weather::Daytime, true, 0.3), 21);
    let mut renderer = Renderer::new(RenderConfig::default(), Weather::Daytime, 21);
    let frames: Vec<_> = (0..WARM_UP + MEASURED)
        .map(|_| {
            sim.step(DT);
            renderer.render(&sim)
        })
        .collect();

    let mut system = SafeCross::try_new(SafeCrossConfig::default()).expect("default config");
    for frame in &frames[..WARM_UP] {
        assert_eq!(system.prepare_frame(frame).scene_switch, None);
    }

    let mut foreground = 0.0;
    for frame in &frames[WARM_UP..] {
        let before = ALLOCS.load(Ordering::SeqCst);
        let other_before = OTHER_ALLOCS.load(Ordering::SeqCst);
        let prep = system.prepare_frame(frame);
        let allocs = ALLOCS.load(Ordering::SeqCst) - before;
        let other = OTHER_ALLOCS.load(Ordering::SeqCst) - other_before;

        let clip = prep.clip.expect("segment buffer is full after warm-up");
        assert_eq!(clip.dims(), &[1, 32, 20, 20]);
        foreground += clip.sum();
        assert!(
            allocs <= 2 && other == 0,
            "prepare_frame made {allocs} allocations, {other} of them neither grid nor clip \
             (largest {} bytes)",
            LARGEST_OTHER.load(Ordering::SeqCst)
        );
    }
    assert!(foreground > 0.0, "footage with no moving vehicle measures nothing");
}
