//! The TSN-lite classifier.

use crate::model::{dims5, ForwardTelemetry, VideoClassifier};
use safecross_nn::{
    BatchNorm, Conv2d, Dropout, GlobalAvgPool, Layer, Linear, MaxPool2d, Mode, Param, Relu,
    Sequential,
};
use safecross_telemetry::Registry;
use safecross_tensor::{KernelScratch, Tensor, TensorRng};

/// A miniature Temporal Segment Network (Wang et al., ECCV 2016): the
/// clip is divided into `SNIPPETS` segments, one frame is sampled from
/// each, all snippets share a 2-D backbone, and the per-snippet logits
/// are averaged (segment consensus).
///
/// TSN's sparse sampling is cheap but discards the inter-frame dynamics
/// that distinguish a fast oncoming vehicle from a slow one — which is
/// why Table IV shows it clearly behind SlowFast and C3D in mean-class
/// accuracy on SafeCross data.
#[derive(Clone)]
pub struct TsnLite {
    backbone: Sequential,
    num_classes: usize,
    cache: Option<(usize, usize)>, // (batch, snippets)
    telemetry: Option<ForwardTelemetry>,
}

/// Number of temporal segments (the paper's `tsn_r50_1x1x3` uses 3).
pub const SNIPPETS: usize = 3;

impl TsnLite {
    /// Builds the model for `num_classes` output classes.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero.
    pub fn new(num_classes: usize, rng: &mut TensorRng) -> Self {
        assert!(num_classes > 0, "need at least one class");
        let backbone = Sequential::new(vec![
            Box::new(Conv2d::new(1, 8, 3, 1, 1, rng)),
            Box::new(BatchNorm::new(8)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Conv2d::new(8, 16, 3, 2, 1, rng)),
            Box::new(BatchNorm::new(16)),
            Box::new(Relu::new()),
            Box::new(GlobalAvgPool::new()),
            Box::new(Dropout::new(0.2, rng)),
            Box::new(Linear::new(16, num_classes, rng)),
        ]);
        TsnLite {
            backbone,
            num_classes,
            cache: None,
            telemetry: None,
        }
    }

    /// Output class count.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Extracts the snippet frames as a pooled `[SNIPPETS*N, 1, H, W]`
    /// batch (snippet-major), so one shared-backbone pass covers all
    /// snippets.
    fn snippet_batch(clips: &Tensor, scratch: &mut KernelScratch) -> Tensor {
        let (n, _c, t, h, w) = dims5(clips);
        let mut batch = scratch.take_tensor(&[SNIPPETS * n, 1, h, w]);
        let bd = batch.data_mut();
        for s in 0..SNIPPETS {
            // Centre frame of each of the SNIPPETS equal segments.
            let idx = (2 * s + 1) * t / (2 * SNIPPETS);
            for i in 0..n {
                let src = (i * t + idx) * h * w;
                let dst = (s * n + i) * h * w;
                bd[dst..dst + h * w].copy_from_slice(&clips.data()[src..src + h * w]);
            }
        }
        batch
    }
}

impl VideoClassifier for TsnLite {
    fn instrument(&mut self, registry: &Registry) {
        self.telemetry = Some(ForwardTelemetry::new(registry, "tsn"));
    }

    fn forward_scratch(&mut self, clips: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        assert_eq!(clips.shape().ndim(), 5, "expected [N, 1, T, H, W]");
        let _timer = self.telemetry.as_ref().map(ForwardTelemetry::start);
        let (n, c, t, _, _) = dims5(clips);
        assert_eq!(c, 1, "TsnLite expects single-channel clips");
        assert!(t >= SNIPPETS, "need at least {SNIPPETS} frames");
        let batch = Self::snippet_batch(clips, scratch);
        let logits = self.backbone.forward_scratch(&batch, mode, scratch); // [S*N, K]
        scratch.recycle_tensor(batch);
        if mode == Mode::Train {
            self.cache = Some((n, SNIPPETS));
        }
        // Segment consensus: average per-sample over snippets.
        let k = self.num_classes;
        let mut out = scratch.take_tensor(&[n, k]);
        for s in 0..SNIPPETS {
            for i in 0..n {
                for j in 0..k {
                    let v = logits.data()[(s * n + i) * k + j];
                    out.data_mut()[i * k + j] += v / SNIPPETS as f32;
                }
            }
        }
        scratch.recycle_tensor(logits);
        out
    }

    fn backward(&mut self, grad: &Tensor) {
        let (n, snippets) = self
            .cache
            .expect("TsnLite::backward called before a training forward");
        let k = self.num_classes;
        let mut big = Tensor::zeros(&[snippets * n, k]);
        for s in 0..snippets {
            for i in 0..n {
                for j in 0..k {
                    big.data_mut()[(s * n + i) * k + j] =
                        grad.data()[i * k + j] / snippets as f32;
                }
            }
        }
        self.backbone.backward(&big);
    }

    fn params(&self) -> Vec<&Param> {
        self.backbone.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.backbone.params_mut()
    }

    fn buffers(&self) -> Vec<(String, Tensor)> {
        self.backbone.buffers()
    }

    fn set_buffer(&mut self, name: &str, value: Tensor) {
        self.backbone.set_buffer(name, value);
    }

    fn set_precision(&mut self, precision: safecross_tensor::Precision) {
        self.backbone.set_precision(precision);
    }

    fn name(&self) -> &'static str {
        "tsn_lite_1x1x3"
    }

    fn describe(&self) -> String {
        format!(
            "TsnLite ({} params, {} sparse snippets, shared 2-D backbone, average consensus)\n{:?}",
            self.num_parameters(),
            SNIPPETS,
            self.backbone
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safecross_nn::{softmax_cross_entropy, Optimizer, Sgd};

    #[test]
    fn forward_shape() {
        let mut rng = TensorRng::seed_from(0);
        let mut m = TsnLite::new(2, &mut rng);
        let x = rng.uniform(&[3, 1, 32, 20, 20], 0.0, 1.0);
        let y = m.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[3, 2]);
    }

    #[test]
    fn snippet_batch_picks_segment_centres() {
        // 6-frame clip with frame index encoded in pixel value.
        let mut clip = Tensor::zeros(&[1, 1, 6, 1, 1]);
        for t in 0..6 {
            clip.set(&[0, 0, t, 0, 0], t as f32);
        }
        let batch = TsnLite::snippet_batch(&clip, &mut KernelScratch::new());
        assert_eq!(batch.dims(), &[3, 1, 1, 1]);
        // Segments [0,2), [2,4), [4,6) -> centres 1, 3, 5.
        assert_eq!(batch.data(), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn consensus_averages_snippets() {
        // A clip whose snippets are identical must produce the same
        // logits as any single snippet would (consensus is an average).
        let mut rng = TensorRng::seed_from(1);
        let mut m = TsnLite::new(2, &mut rng);
        let frame = rng.uniform(&[1, 20, 20], 0.0, 1.0);
        let mut clip = Tensor::zeros(&[1, 1, 32, 20, 20]);
        for t in 0..32 {
            let dst = t * 400;
            clip.data_mut()[dst..dst + 400].copy_from_slice(frame.data());
        }
        let consensus = m.forward(&clip, Mode::Eval);
        assert!(consensus.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cannot_learn_direction_but_learns_presence() {
        // TSN's snapshots cannot tell left-moving from right-moving when
        // the blob positions are symmetric, but presence/absence works.
        let mut rng = TensorRng::seed_from(2);
        let mut m = TsnLite::new(2, &mut rng);
        let mut clips = Vec::new();
        let mut labels = Vec::new();
        for i in 0..8 {
            let mut clip = Tensor::zeros(&[1, 32, 20, 20]);
            if i % 2 == 0 {
                for t in 0..32 {
                    clip.set(&[0, t, 10, 5 + (t % 10)], 1.0);
                }
            }
            clips.push(clip);
            labels.push(i % 2);
        }
        let batch = Tensor::stack(&clips);
        let mut opt = Sgd::with_momentum(0.1, 0.9);
        let mut last = f32::INFINITY;
        for _ in 0..30 {
            let logits = m.forward(&batch, Mode::Train);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            m.backward(&grad);
            opt.step(&mut m.params_mut());
            last = loss;
        }
        assert!(last < 0.35, "loss stayed at {last}");
    }

    #[test]
    fn state_dict_roundtrip() {
        let mut rng = TensorRng::seed_from(3);
        let mut a = TsnLite::new(2, &mut rng);
        let mut b = TsnLite::new(2, &mut rng);
        let x = rng.uniform(&[1, 1, 32, 12, 12], 0.0, 1.0);
        a.forward(&x, Mode::Train);
        b.load_state_dict(&a.state_dict());
        assert!(a
            .forward(&x, Mode::Eval)
            .allclose(&b.forward(&x, Mode::Eval), 1e-5));
    }
}
