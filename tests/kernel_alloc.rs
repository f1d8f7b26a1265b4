//! Zero-allocation guarantee of the steady-state classification path.
//!
//! `classify_with_model` routes every intermediate — the batched clip
//! view, all layer activations, vol2col patch matrices, and the
//! probability row — through a caller-owned [`KernelScratch`] arena.
//! After a few warm-up clips the pool reaches a fixed point and a
//! classify performs **no** heap allocation at all. This test pins that
//! down with a counting global allocator, for the SlowFast classify call
//! and for the eval forward of every classifier family at both
//! precisions (TSN is the one that exercises the 2-D layers) — on a
//! dense clip, a sparse one and an empty one, since SlowFast's eval
//! forward plans its columns from the clip's occupancy and each of the
//! three sizes those plans differently.
//!
//! It also pins that serving never spawns: the kernel worker count is
//! set to 8, and spawning a GEMM worker allocates (thread stack, join
//! handle), so zero allocations mean no frame-path GEMM fanned out on
//! any core count.
//!
//! The file deliberately holds a single test: the allocator counters
//! are process-global, so a sibling test running on another thread
//! would corrupt the measurement.

use safecross::classify_with_model;
use safecross_nn::Mode;
use safecross_tensor::{kernel, KernelScratch, Precision, Tensor, TensorRng};
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

/// A 3×4 blob drifting across an otherwise empty 32×20×20 clip: 384 of
/// 12 800 cells (3 %) are non-zero, about the share the VP module's
/// occupancy grids have on the benchmark's footage.
fn blob_clip(rng: &mut TensorRng) -> Tensor {
    let mut clip = Tensor::zeros(&[1, 1, 32, 20, 20]);
    let values = rng.uniform(&[32 * 12], 0.1, 1.0);
    let mut next = values.data().iter().copied();
    for t in 0..32 {
        for dy in 0..3 {
            for dx in 0..4 {
                let v = next.next().expect("one value per blob cell");
                clip.set(&[0, 0, t, 7 + dy, (2 + dx + t / 2) % 20], v);
            }
        }
    }
    clip
}

#[test]
fn steady_state_classify_allocates_nothing() {
    // Frame-path GEMMs sit below the kernel's serial bar, so they run on
    // the caller's thread whatever the worker count. Configure more
    // workers than this suite's hosts have: a spawned worker would
    // allocate and fail the counts below.
    kernel::set_threads(8);

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
    let clips = [
        ("uniform", rng.uniform(&[1, 1, 32, 20, 20], 0.0, 1.0)),
        ("blob", blob_clip(&mut rng)),
        ("empty", Tensor::zeros(&[1, 1, 32, 20, 20])),
    ];
    for mut model in families {
        for precision in [Precision::F32, Precision::Int8] {
            model.set_precision(precision);
            for (kind, clip) in &clips {
                let cold = model.forward(clip, Mode::Eval);
                for _ in 0..4 {
                    let logits = model.forward_scratch(clip, Mode::Eval, &mut scratch);
                    scratch.recycle_tensor(logits);
                }
                let allocs_before = ALLOCS.load(Ordering::SeqCst);
                let deallocs_before = DEALLOCS.load(Ordering::SeqCst);
                let mut same = true;
                for _ in 0..8 {
                    let logits = model.forward_scratch(clip, Mode::Eval, &mut scratch);
                    same &= logits
                        .data()
                        .iter()
                        .zip(cold.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    scratch.recycle_tensor(logits);
                }
                let allocs = ALLOCS.load(Ordering::SeqCst) - allocs_before;
                let deallocs = DEALLOCS.load(Ordering::SeqCst) - deallocs_before;
                let cell = (model.name(), precision, kind);
                assert_eq!(
                    allocs, 0,
                    "steady-state forward hit the allocator: {cell:?}"
                );
                assert_eq!(deallocs, 0, "steady-state forward freed memory: {cell:?}");
                assert!(same, "warm forward diverged from a cold one: {cell:?}");
            }
        }
    }
}
