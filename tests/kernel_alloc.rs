//! Zero-allocation guarantee of the steady-state classification path.
//!
//! `classify_with_model` routes every intermediate — the batched clip
//! view, all layer activations, vol2col patch matrices, and the
//! probability row — through a caller-owned [`KernelScratch`] arena.
//! After a few warm-up clips the pool reaches a fixed point and a
//! classify performs **no** heap allocation at all. This test pins that
//! down with a counting global allocator, for the SlowFast classify call
//! and for the f32 eval forward of every classifier family (TSN is the
//! one that exercises the 2-D layers); the int8 forwards are held to a
//! weaker bound, see below.
//!
//! The file deliberately holds a single test: the allocator counters
//! are process-global, so a sibling test running on another thread
//! would corrupt the measurement.

use safecross::classify_with_model;
use safecross_nn::Mode;
use safecross_tensor::{kernel, KernelScratch, Precision, TensorRng};
use safecross_trafficsim::Weather;
use safecross_videoclass::{C3dLite, SlowFastLite, TsnLite, VideoClassifier};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static DEALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counters
// are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: same contract as `System::dealloc`; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    // SAFETY: same contract as `System::realloc`; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_classify_allocates_nothing() {
    // Spawning scoped GEMM workers allocates (thread stacks, join
    // handles), so the zero-allocation guarantee is specific to the
    // serial kernel path; pin it explicitly rather than relying on the
    // host's core count.
    kernel::set_threads(1);

    let mut rng = TensorRng::seed_from(0);
    let mut model = SlowFastLite::new(2, &mut rng);
    let clip = rng.uniform(&[1, 32, 20, 20], 0.0, 1.0);
    let mut scratch = KernelScratch::new();

    // Warm the arena until the buffer pool reaches its fixed point.
    let expected = classify_with_model(&mut model, &clip, Weather::Daytime, &mut scratch);
    for _ in 0..3 {
        classify_with_model(&mut model, &clip, Weather::Daytime, &mut scratch);
    }

    let allocs_before = ALLOCS.load(Ordering::SeqCst);
    let deallocs_before = DEALLOCS.load(Ordering::SeqCst);
    let mut verdicts = [expected; 8];
    for v in &mut verdicts {
        *v = classify_with_model(&mut model, &clip, Weather::Daytime, &mut scratch);
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - allocs_before;
    let deallocs = DEALLOCS.load(Ordering::SeqCst) - deallocs_before;

    assert_eq!(allocs, 0, "steady-state classify hit the allocator");
    assert_eq!(deallocs, 0, "steady-state classify freed memory");
    for v in verdicts {
        assert_eq!(v, expected, "warm classifies diverged");
    }

    let families: [Box<dyn VideoClassifier>; 3] = [
        Box::new(model),
        Box::new(C3dLite::new(2, &mut rng)),
        Box::new(TsnLite::new(2, &mut rng)),
    ];
    let clips = rng.uniform(&[1, 1, 32, 20, 20], 0.0, 1.0);
    for mut model in families {
        for precision in [Precision::F32, Precision::Int8] {
            model.set_precision(precision);
            for _ in 0..4 {
                let logits = model.forward_scratch(&clips, Mode::Eval, &mut scratch);
                scratch.recycle_tensor(logits);
            }
            let allocs_before = ALLOCS.load(Ordering::SeqCst);
            let deallocs_before = DEALLOCS.load(Ordering::SeqCst);
            for _ in 0..8 {
                let logits = model.forward_scratch(&clips, Mode::Eval, &mut scratch);
                scratch.recycle_tensor(logits);
            }
            let allocs = ALLOCS.load(Ordering::SeqCst) - allocs_before;
            let deallocs = DEALLOCS.load(Ordering::SeqCst) - deallocs_before;
            let cell = (model.name(), precision);
            match precision {
                Precision::F32 => {
                    assert_eq!(allocs, 0, "steady-state forward hit the allocator: {cell:?}");
                    assert_eq!(deallocs, 0, "steady-state forward freed memory: {cell:?}");
                }
                // Known gap: `qtensor::qgemm_paired_into` allocates its i32
                // accumulator row on every call, so each int8 convolution
                // costs one short-lived allocation per clip. Until that
                // buffer is pooled, int8 is only held to "nothing retained".
                Precision::Int8 => {
                    println!("{cell:?}: {allocs} allocations over 8 warm forwards");
                    assert_eq!(allocs, deallocs, "steady-state forward retained memory: {cell:?}");
                }
            }
        }
    }
}
