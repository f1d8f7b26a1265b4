//! The contract between `forward` and `forward_scratch`.
//!
//! `forward` is a wrapper that runs a model's one forward body on a
//! throw-away arena, so "the two agree" on a fresh scratch is true by
//! construction. What is *not* automatic is that the body ignores the
//! history of the arena it is handed: a serve worker's scratch has
//! already served other batch shapes, and its recycled buffers arrive
//! with stale sizes and contents. These tests pin that, for every
//! classifier family at both precisions and in both modes — in eval
//! over a dense clip, a sparse one and an empty one, because SlowFast's
//! eval forward plans its work from the clip's occupancy and each of
//! the three takes a different path through it.

use safecross_nn::{softmax_cross_entropy, Mode};
use safecross_tensor::{KernelScratch, Precision, Tensor, TensorRng};
use safecross_videoclass::{C3dLite, SlowFastLite, TsnLite, VideoClassifier};

const CLASSES: usize = 2;

fn families(rng: &mut TensorRng) -> Vec<Box<dyn VideoClassifier>> {
    vec![
        Box::new(SlowFastLite::new(CLASSES, rng)),
        Box::new(C3dLite::new(CLASSES, rng)),
        Box::new(TsnLite::new(CLASSES, rng)),
    ]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A 3×4 blob drifting across an otherwise empty 32×20×20 clip, per
/// batch item: 384 of 12 800 cells (3 %) are non-zero, about the share
/// the VP module's occupancy grids have on the benchmark's footage.
fn blob_clips(rng: &mut TensorRng, n: usize) -> Tensor {
    let mut clips = Tensor::zeros(&[n, 1, 32, 20, 20]);
    let values = rng.uniform(&[n * 32 * 12], 0.1, 1.0);
    let mut next = values.data().iter().copied();
    for i in 0..n {
        for t in 0..32 {
            for dy in 0..3 {
                for dx in 0..4 {
                    let v = next.next().expect("one value per blob cell");
                    clips.set(&[i, 0, t, 2 + 5 * i + dy, (1 + 3 * i + dx + t / 2) % 20], v);
                }
            }
        }
    }
    clips
}

/// The eval clips: uniform noise (every cell non-zero, so SlowFast
/// plans every position), a sparse blob and an all-zero clip (no cell
/// active, every position a border-class representative's copy).
fn eval_clips(rng: &mut TensorRng) -> [(&'static str, Tensor); 3] {
    [
        ("uniform", rng.uniform(&[2, 1, 32, 20, 20], 0.0, 1.0)),
        ("blob", blob_clips(rng, 2)),
        ("empty", Tensor::zeros(&[2, 1, 32, 20, 20])),
    ]
}

/// A scratch that has already served a differently-shaped batch of
/// `model` at its current precision.
fn used_scratch(model: &mut dyn VideoClassifier, rng: &mut TensorRng) -> KernelScratch {
    let mut scratch = KernelScratch::new();
    let other = rng.uniform(&[3, 1, 16, 14, 18], 0.0, 1.0);
    let logits = model.forward_scratch(&other, Mode::Eval, &mut scratch);
    scratch.recycle_tensor(logits);
    scratch
}

#[test]
fn eval_on_a_warm_shared_scratch_matches_a_cold_forward() {
    let mut rng = TensorRng::seed_from(21);
    for (kind, clips) in eval_clips(&mut rng) {
        for mut model in families(&mut rng) {
            for precision in [Precision::F32, Precision::Int8] {
                model.set_precision(precision);
                let what = format!("{} at {precision:?} on the {kind} clip", model.name());
                let cold = bits(&model.forward(&clips, Mode::Eval));
                let mut scratch = used_scratch(model.as_mut(), &mut rng);
                for _ in 0..3 {
                    let warm = model.forward_scratch(&clips, Mode::Eval, &mut scratch);
                    assert_eq!(
                        bits(&warm),
                        cold,
                        "{what}: scratch history leaked into the logits"
                    );
                    scratch.recycle_tensor(warm);
                }
                // Once warm, repeated batches must cycle the same buffer set.
                let settled = scratch.pooled_buffers();
                let warm = model.forward_scratch(&clips, Mode::Eval, &mut scratch);
                scratch.recycle_tensor(warm);
                assert_eq!(
                    scratch.pooled_buffers(),
                    settled,
                    "{what}: pool kept growing"
                );
            }
        }
    }
}

#[test]
fn training_through_either_entry_point_yields_the_same_gradients() {
    let mut rng = TensorRng::seed_from(22);
    let clips = rng.uniform(&[2, 1, 32, 20, 20], 0.0, 1.0);
    // Two copies of each family from one seed, so weights, batch-norm
    // statistics and the dropout RNG start equal on both sides.
    let twins = families(&mut TensorRng::seed_from(23))
        .into_iter()
        .zip(families(&mut TensorRng::seed_from(23)));
    for (mut cold, mut warm) in twins {
        let cold_logits = cold.forward(&clips, Mode::Train);
        let mut scratch = used_scratch(warm.as_mut(), &mut rng);
        let warm_logits = warm.forward_scratch(&clips, Mode::Train, &mut scratch);
        assert_eq!(
            bits(&warm_logits),
            bits(&cold_logits),
            "{}: train logits",
            cold.name()
        );

        let (_, grad) = softmax_cross_entropy(&cold_logits, &[0, 1]);
        cold.backward(&grad);
        warm.backward(&grad);
        for (i, (c, w)) in cold.params().into_iter().zip(warm.params()).enumerate() {
            assert_eq!(
                bits(&w.grad_or_zeros()),
                bits(&c.grad_or_zeros()),
                "{}: gradient of param {i} ({})",
                cold.name(),
                c.name
            );
        }
    }
}
