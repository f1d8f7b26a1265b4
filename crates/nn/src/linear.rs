//! Fully-connected layer.

use crate::layer::Int8Weight;
use crate::{Layer, Mode, Param};
use safecross_tensor::{kernel, qtensor, KernelScratch, Precision, Tensor, TensorRng};

/// A dense affine map `y = x W^T + b` over a `[N, in]` batch.
///
/// Weights are stored `[out, in]` (PyTorch convention) and initialised
/// with Kaiming-normal scaling for ReLU networks.
///
/// ```
/// use safecross_nn::{Layer, Linear, Mode};
/// use safecross_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(1);
/// let mut fc = Linear::new(3, 2, &mut rng);
/// let y = fc.forward(&Tensor::ones(&[4, 3]), Mode::Eval);
/// assert_eq!(y.dims(), &[4, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
    // Some(..) only while Precision::Int8 is selected: the weight
    // quantized per output row, refreshed by `set_precision`.
    qweight: Option<Int8Weight>,
}

impl Linear {
    /// Creates a layer mapping `in_features` to `out_features`.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut TensorRng) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "feature counts must be positive"
        );
        Linear {
            weight: Param::new(
                "weight",
                rng.kaiming(&[out_features, in_features], in_features),
            ),
            bias: Param::new("bias", Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            cached_input: None,
            qweight: None,
        }
    }

    /// The int8 product `x Wᵀ`: quantize the `[n, in]` input per row,
    /// multiply on the f32 GEMM (exact, see [`safecross_tensor::qtensor`])
    /// against the cached quantized weight, then scale each sum by its
    /// row's and its output's scale.
    fn gemm_int8(&self, qw: &Int8Weight, x: &Tensor, y: &mut [f32], scratch: &mut KernelScratch) {
        let n = x.shape().dim(0);
        let (k, out) = (self.in_features, self.out_features);
        let mut qx = scratch.take(n * k);
        let mut xscales = scratch.take(n);
        qtensor::quantize_rows(x.data(), k, &mut qx, &mut xscales);
        kernel::gemm_transb_into(&qx, &qw.values, y, n, k, out);
        qtensor::dequantize(y, &xscales, &qw.scales);
        scratch.recycle(qx);
        scratch.recycle(xscales);
    }
}

impl Layer for Linear {
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        assert_eq!(x.shape().ndim(), 2, "Linear expects a [N, in] batch");
        assert_eq!(
            x.shape().dim(1),
            self.in_features,
            "Linear input width mismatch"
        );
        if mode == Mode::Train {
            self.cached_input = Some(x.clone());
        }
        let n = x.shape().dim(0);
        let out = self.out_features;
        let mut y = scratch.take_tensor(&[n, out]);
        match (&self.qweight, mode) {
            // Int8 inference path; training always stays f32.
            (Some(qw), Mode::Eval) => self.gemm_int8(qw, x, y.data_mut(), scratch),
            // W is stored [out, in], exactly the packed layout the transb
            // kernel wants: y = x Wᵀ without materialising the transpose.
            _ => kernel::gemm_transb_into(
                x.data(),
                self.weight.value.data(),
                y.data_mut(),
                n,
                self.in_features,
                out,
            ),
        }
        let b = self.bias.value.data();
        let data = y.data_mut();
        for i in 0..n {
            for (j, &bj) in b.iter().enumerate() {
                data[i * out + j] += bj;
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Linear::backward called before a training forward");
        // dW = dy^T x ; db = column sums of dy ; dx = dy W
        let dw = grad_out.transpose().matmul(x);
        self.weight.grad_mut().add_scaled(&dw, 1.0);
        let n = grad_out.shape().dim(0);
        let out = self.out_features;
        let g = grad_out.data();
        let db = self.bias.grad_mut().data_mut();
        for i in 0..n {
            for (j, dbj) in db.iter_mut().enumerate() {
                *dbj += g[i * out + j];
            }
        }
        grad_out.matmul(&self.weight.value)
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn set_precision(&mut self, precision: Precision) {
        self.qweight = match precision {
            Precision::Int8 => Some(Int8Weight::new(&self.weight.value)),
            Precision::F32 => None,
        };
    }

    fn name(&self) -> String {
        format!("linear({}->{})", self.in_features, self.out_features)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual_affine() {
        let mut rng = TensorRng::seed_from(0);
        let mut fc = Linear::new(2, 2, &mut rng);
        fc.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        fc.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = fc.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_gradients_match_manual() {
        let mut rng = TensorRng::seed_from(0);
        let mut fc = Linear::new(2, 1, &mut rng);
        fc.weight.value = Tensor::from_vec(vec![1.0, -1.0], &[1, 2]);
        fc.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(vec![2.0, 3.0], &[1, 2]);
        fc.forward(&x, Mode::Train);
        let dx = fc.backward(&Tensor::ones(&[1, 1]));
        assert_eq!(fc.weight.grad_or_zeros().data(), &[2.0, 3.0]);
        assert_eq!(fc.bias.grad_or_zeros().data(), &[1.0]);
        assert_eq!(dx.data(), &[1.0, -1.0]);
    }

    #[test]
    fn gradients_accumulate_across_calls() {
        let mut rng = TensorRng::seed_from(0);
        let mut fc = Linear::new(1, 1, &mut rng);
        let x = Tensor::ones(&[1, 1]);
        fc.forward(&x, Mode::Train);
        fc.backward(&Tensor::ones(&[1, 1]));
        let g1 = fc.bias.grad_or_zeros().data()[0];
        fc.forward(&x, Mode::Train);
        fc.backward(&Tensor::ones(&[1, 1]));
        assert_eq!(fc.bias.grad_or_zeros().data()[0], 2.0 * g1);
    }

    #[test]
    #[should_panic(expected = "int8 fan-in 1041 exceeds 1040")]
    fn int8_rejects_a_fan_in_past_the_exact_bound() {
        let mut rng = TensorRng::seed_from(0);
        Linear::new(1041, 1, &mut rng).set_precision(Precision::Int8);
    }

    #[test]
    fn int8_eval_tracks_f32_and_f32_restore_is_exact() {
        let mut rng = TensorRng::seed_from(7);
        let mut fc = Linear::new(16, 5, &mut rng);
        let x = rng.uniform(&[3, 16], -1.0, 1.0);
        let exact = fc.forward(&x, Mode::Eval);
        fc.set_precision(Precision::Int8);
        let quant = fc.forward(&x, Mode::Eval);
        assert_ne!(quant, exact, "int8 branch was not taken");
        assert!(
            quant.allclose(&exact, 0.05),
            "int8 affine drifted: {quant:?} vs {exact:?}"
        );
        fc.set_precision(Precision::F32);
        assert_eq!(
            fc.forward(&x, Mode::Eval),
            exact,
            "f32 restore must be exact"
        );
    }

    #[test]
    fn int8_training_forward_stays_f32() {
        let mut rng = TensorRng::seed_from(2);
        let mut fc = Linear::new(4, 3, &mut rng);
        let x = rng.uniform(&[2, 4], -1.0, 1.0);
        let exact = fc.forward(&x, Mode::Train);
        fc.set_precision(Precision::Int8);
        assert_eq!(fc.forward(&x, Mode::Train), exact);
    }

    #[test]
    #[should_panic(expected = "before a training forward")]
    fn backward_without_forward_panics() {
        let mut rng = TensorRng::seed_from(0);
        let mut fc = Linear::new(1, 1, &mut rng);
        fc.backward(&Tensor::ones(&[1, 1]));
    }
}
