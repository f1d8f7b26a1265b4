//! Pointwise activation layers: ReLU and dropout.

use crate::{Layer, Mode};
use safecross_tensor::{KernelScratch, Tensor, TensorRng};

/// Rectified linear unit, applied elementwise to any tensor shape.
///
/// ```
/// use safecross_nn::{Layer, Mode, Relu};
/// use safecross_tensor::Tensor;
///
/// let mut relu = Relu::new();
/// let y = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]), Mode::Eval);
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        if mode == Mode::Train {
            self.mask = Some(x.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
        }
        let mut y = scratch.take_tensor(x.dims());
        for (o, &v) in y.data_mut().iter_mut().zip(x.data()) {
            *o = v.max(0.0);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("Relu::backward called before a training forward");
        grad_out.zip_map(mask, |g, m| g * m)
    }

    fn name(&self) -> String {
        "relu".to_owned()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Inverted dropout: zeroes activations with probability `p` during
/// training and rescales the survivors by `1/(1-p)`, so evaluation is a
/// no-op.
///
/// The layer owns a seeded RNG so training runs stay reproducible.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: TensorRng,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, rng: &mut TensorRng) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Dropout {
            p,
            rng: rng.fork(),
            mask: None,
        }
    }

    /// The configured drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        let mut y = scratch.take_tensor(x.dims());
        if mode == Mode::Eval || self.p == 0.0 {
            self.mask = None;
            y.data_mut().copy_from_slice(x.data());
            return y;
        }
        let keep = 1.0 - self.p;
        let mut mask = Tensor::zeros(x.dims());
        for v in mask.data_mut() {
            *v = if self.rng.unit() < keep {
                1.0 / keep
            } else {
                0.0
            };
        }
        for ((o, &a), &m) in y.data_mut().iter_mut().zip(x.data()).zip(mask.data()) {
            *o = a * m;
        }
        self.mask = Some(mask);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.mask {
            Some(mask) => grad_out.zip_map(mask, |g, m| g * m),
            // Forward ran in eval mode (or p == 0): identity.
            None => grad_out.clone(),
        }
    }

    fn name(&self) -> String {
        format!("dropout(p={})", self.p)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_backward_masks_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, 3.0, 0.0], &[1, 3]);
        relu.forward(&x, Mode::Train);
        let dx = relu.backward(&Tensor::ones(&[1, 3]));
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut rng = TensorRng::seed_from(0);
        let mut d = Dropout::new(0.5, &mut rng);
        let x = Tensor::ones(&[2, 4]);
        assert_eq!(d.forward(&x, Mode::Eval), x);
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut rng = TensorRng::seed_from(0);
        let mut d = Dropout::new(0.3, &mut rng);
        let x = Tensor::ones(&[1, 20000]);
        let y = d.forward(&x, Mode::Train);
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Survivors are exactly scaled, casualties exactly zero.
        let keep = 1.0 / 0.7;
        assert!(y
            .data()
            .iter()
            .all(|&v| v == 0.0 || (v - keep).abs() < 1e-6));
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut rng = TensorRng::seed_from(1);
        let mut d = Dropout::new(0.5, &mut rng);
        let x = Tensor::ones(&[1, 100]);
        let y = d.forward(&x, Mode::Train);
        let dx = d.backward(&Tensor::ones(&[1, 100]));
        assert_eq!(y.data(), dx.data());
    }

    #[test]
    fn zero_probability_dropout_is_identity_even_in_train() {
        let mut rng = TensorRng::seed_from(2);
        let mut d = Dropout::new(0.0, &mut rng);
        let x = Tensor::ones(&[2, 3]);
        assert_eq!(d.forward(&x, Mode::Train), x);
        assert_eq!(d.backward(&x), x);
    }
}
