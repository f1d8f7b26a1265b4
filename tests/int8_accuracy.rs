//! Fixed-seed int8-vs-f32 accuracy gates, tiered per classifier
//! family.
//!
//! The f32 path is the bit-identity reference; int8 trades a bounded
//! amount of logit accuracy for throughput. These gates pin that trade
//! with family-specific tolerances (deeper stacks accumulate more
//! quantization noise, so each family gets its own tier) plus a
//! decision-level check: on every clip whose f32 logit margin is
//! comfortably above the tier, int8 must pick the same class. Seeds and
//! shapes are fixed, and the int8 path is integer-exact, so these
//! bounds are exact regressions — not flaky statistical tests.

use safecross_nn::Mode;
use safecross_tensor::{kernel, Precision, Tensor, TensorRng};
use safecross_videoclass::{C3dLite, SlowFastLite, TsnLite, VideoClassifier};

const CLASSES: usize = 2;
const CLIPS: usize = 8;

/// Renders a deterministic batch of clips in the models' input domain.
fn clip_batch(seed: u64) -> Tensor {
    let mut rng = TensorRng::seed_from(seed);
    rng.uniform(&[CLIPS, 1, 32, 20, 20], 0.0, 1.0)
}

/// Worst logit disagreement and decision agreement between the f32 and
/// int8 forwards of one model.
fn compare(model: &mut dyn VideoClassifier, clips: &Tensor, tol: f32) -> f32 {
    model.set_precision(Precision::F32);
    let f32_logits = model.forward(clips, Mode::Eval);
    model.set_precision(Precision::Int8);
    let int8_logits = model.forward(clips, Mode::Eval);
    model.set_precision(Precision::F32);
    assert_eq!(f32_logits.dims(), &[CLIPS, CLASSES]);
    assert_eq!(int8_logits.dims(), &[CLIPS, CLASSES]);

    let mut worst = 0.0f32;
    for c in 0..CLIPS {
        let fl = &f32_logits.data()[c * CLASSES..(c + 1) * CLASSES];
        let il = &int8_logits.data()[c * CLASSES..(c + 1) * CLASSES];
        for (a, b) in fl.iter().zip(il) {
            worst = worst.max((a - b).abs());
        }
        // Decision agreement wherever f32 is confident relative to the
        // tier: a margin above 2·tol cannot be flipped by per-logit
        // error within tol.
        let margin = (fl[0] - fl[1]).abs();
        if margin > 2.0 * tol {
            let f_arg = (fl[1] > fl[0]) as usize;
            let i_arg = (il[1] > il[0]) as usize;
            assert_eq!(
                f_arg,
                i_arg,
                "{}: int8 flipped a confident decision (clip {c}, margin {margin})",
                model.name()
            );
        }
    }
    worst
}

/// The per-family tolerance tiers. SlowFast runs two conv stacks and a
/// channel fusion, C3D a single deeper conv stack, TSN a shallow 2-D
/// backbone over snippets — quantization noise grows with conv depth
/// and fan-in, which is what the tiers encode. Values are roughly 2×
/// the worst observed drift at these seeds, so genuine regressions
/// (a broken quantizer, a scale mismatch) trip them while benign
/// rounding churn does not.
#[test]
fn int8_logits_track_f32_within_family_tiers() {
    let mut rng = TensorRng::seed_from(11);
    let clips = clip_batch(12);
    let families: [(Box<dyn VideoClassifier>, f32); 3] = [
        (Box::new(SlowFastLite::new(CLASSES, &mut rng)), 0.02),
        (Box::new(C3dLite::new(CLASSES, &mut rng)), 0.04),
        (Box::new(TsnLite::new(CLASSES, &mut rng)), 0.02),
    ];
    for (mut model, tol) in families {
        let worst = compare(model.as_mut(), &clips, tol);
        println!(
            "{}: worst int8 logit drift {worst:.5} (tier {tol})",
            model.name()
        );
        assert!(
            worst <= tol,
            "{}: int8 drift {worst} exceeds the {tol} tier",
            model.name()
        );
        assert!(
            worst > 0.0,
            "{}: int8 suspiciously exact — is it quantizing at all?",
            model.name()
        );
    }
}

/// The int8 forward is integer-exact, so its logits must be
/// bit-identical across instruction sets and thread counts — the same
/// invariance contract the f32 path has, just at the quantized level.
///
/// Every SlowFast GEMM here is below the kernel's serial bar (2²⁴
/// flops), so the `workers = 4` arm runs on one thread and only the ISA
/// arm varies the arithmetic. The partition half of the contract is
/// carried by `int8_product_is_the_i32_product_bit_for_bit` in
/// `safecross-tensor`, which splits every product across two workers.
#[test]
fn int8_logits_are_isa_and_thread_invariant() {
    let mut rng = TensorRng::seed_from(13);
    let clips = clip_batch(14);
    let mut model = SlowFastLite::new(CLASSES, &mut rng);
    model.set_precision(Precision::Int8);

    let detected = kernel::isa();
    let threads = kernel::threads();
    let mut reference: Option<Vec<u32>> = None;
    for isa in [kernel::Isa::Scalar, detected] {
        for workers in [1usize, 4] {
            kernel::set_isa(isa);
            kernel::set_threads(workers);
            let logits = model.forward(&clips, Mode::Eval);
            kernel::set_isa(detected);
            kernel::set_threads(threads);
            let bits: Vec<u32> = logits.data().iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(want) => {
                    assert_eq!(
                        &bits, want,
                        "int8 logits diverged at isa={isa:?} workers={workers}"
                    )
                }
            }
        }
    }
}
