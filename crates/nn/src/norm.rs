//! Batch normalisation.

use crate::{Layer, Mode, Param};
use safecross_tensor::{KernelScratch, Tensor};

/// Batch normalisation over the channel axis (axis 1).
///
/// Accepts `[N, C]`, `[N, C, H, W]` or `[N, C, T, H, W]` inputs — i.e. any
/// rank ≥ 2 tensor whose second axis is channels — and normalises each
/// channel over the batch and all trailing axes. Running statistics are
/// tracked for evaluation mode and serialised as layer buffers.
///
/// ```
/// use safecross_nn::{BatchNorm, Layer, Mode};
/// use safecross_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(0);
/// let mut bn = BatchNorm::new(3);
/// let x = rng.uniform(&[8, 3, 4, 4], -5.0, 5.0);
/// let y = bn.forward(&x, Mode::Train);
/// assert!(y.mean().abs() < 1e-4); // zero-mean after normalisation
/// ```
#[derive(Debug, Clone)]
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    channels: usize,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>, // per channel
    dims: Vec<usize>,
}

impl BatchNorm {
    /// Creates a batch-norm layer for `channels` channels with the
    /// standard momentum (0.1) and epsilon (1e-5).
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channel count must be positive");
        BatchNorm {
            gamma: Param::new("gamma", Tensor::ones(&[channels])),
            beta: Param::new("beta", Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            channels,
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Channel count this layer normalises.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Splits a shape into `(batch, channels, rest)` extents.
    fn split_dims(&self, dims: &[usize]) -> (usize, usize) {
        assert!(dims.len() >= 2, "BatchNorm expects rank >= 2");
        assert_eq!(dims[1], self.channels, "BatchNorm channel mismatch");
        let n = dims[0];
        let rest: usize = dims[2..].iter().product();
        (n, rest.max(1))
    }
}

impl Layer for BatchNorm {
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        let (n, rest) = self.split_dims(x.dims());
        let c = self.channels;
        let xd = x.data();
        // Training normalises with this batch's statistics (and folds them
        // into the running ones); eval reads the running ones in place.
        let batch_stats = (mode == Mode::Train).then(|| {
            let count = (n * rest) as f32;
            let mut means = vec![0.0f32; c];
            let mut vars = vec![0.0f32; c];
            for ch in 0..c {
                let mut sum = 0.0;
                for i in 0..n {
                    let base = (i * c + ch) * rest;
                    sum += xd[base..base + rest].iter().sum::<f32>();
                }
                means[ch] = sum / count;
                let mut sq = 0.0;
                for i in 0..n {
                    let base = (i * c + ch) * rest;
                    sq += xd[base..base + rest]
                        .iter()
                        .map(|&v| (v - means[ch]) * (v - means[ch]))
                        .sum::<f32>();
                }
                vars[ch] = sq / count;
                // PyTorch-style update: running += m * (batch - running)
                let rm = self.running_mean.data_mut();
                rm[ch] += self.momentum * (means[ch] - rm[ch]);
                let rv = self.running_var.data_mut();
                rv[ch] += self.momentum * (vars[ch] - rv[ch]);
            }
            (means, vars)
        });
        let (means, vars) = match &batch_stats {
            Some((means, vars)) => (means.as_slice(), vars.as_slice()),
            None => (self.running_mean.data(), self.running_var.data()),
        };
        let g = self.gamma.value.data();
        let b = self.beta.value.data();
        let mut out = scratch.take_tensor(x.dims());
        let od = out.data_mut();
        for i in 0..n {
            for ch in 0..c {
                let inv_std = 1.0 / (vars[ch] + self.eps).sqrt();
                let base = (i * c + ch) * rest;
                for r in 0..rest {
                    let h = (xd[base + r] - means[ch]) * inv_std;
                    od[base + r] = g[ch] * h + b[ch];
                }
            }
        }
        if mode == Mode::Train {
            let inv_std: Vec<f32> = vars.iter().map(|v| 1.0 / (v + self.eps).sqrt()).collect();
            let mut xhat = Tensor::zeros(x.dims());
            let xh = xhat.data_mut();
            for i in 0..n {
                for ch in 0..c {
                    let base = (i * c + ch) * rest;
                    for r in 0..rest {
                        xh[base + r] = (xd[base + r] - means[ch]) * inv_std[ch];
                    }
                }
            }
            self.cache = Some(BnCache {
                xhat,
                inv_std,
                dims: x.dims().to_vec(),
            });
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("BatchNorm::backward called before a training forward");
        assert_eq!(
            grad_out.dims(),
            cache.dims.as_slice(),
            "gradient shape mismatch"
        );
        let (n, rest) = self.split_dims(&cache.dims);
        let c = self.channels;
        let count = (n * rest) as f32;
        let mut dx = Tensor::zeros(grad_out.dims());
        let dy = grad_out.data();
        let xh = cache.xhat.data();
        let g = self.gamma.value.data().to_vec();
        // The channel index addresses strided slices of four buffers at
        // once; an iterator over `g` alone would obscure that.
        #[allow(clippy::needless_range_loop)]
        for ch in 0..c {
            // Per-channel sums needed by the closed-form BN backward.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for i in 0..n {
                let base = (i * c + ch) * rest;
                for r in 0..rest {
                    sum_dy += dy[base + r];
                    sum_dy_xhat += dy[base + r] * xh[base + r];
                }
            }
            self.gamma.grad_mut().data_mut()[ch] += sum_dy_xhat;
            self.beta.grad_mut().data_mut()[ch] += sum_dy;
            let scale = g[ch] * cache.inv_std[ch];
            let mean_dy = sum_dy / count;
            let mean_dy_xhat = sum_dy_xhat / count;
            let dxd = dx.data_mut();
            for i in 0..n {
                let base = (i * c + ch) * rest;
                for r in 0..rest {
                    dxd[base + r] = scale * (dy[base + r] - mean_dy - xh[base + r] * mean_dy_xhat);
                }
            }
        }
        dx
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn buffers(&self) -> Vec<(String, Tensor)> {
        vec![
            ("running_mean".to_owned(), self.running_mean.clone()),
            ("running_var".to_owned(), self.running_var.clone()),
        ]
    }

    fn set_buffer(&mut self, name: &str, value: Tensor) {
        match name {
            "running_mean" => self.running_mean = value,
            "running_var" => self.running_var = value,
            _ => {}
        }
    }

    fn name(&self) -> String {
        format!("batchnorm({})", self.channels)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safecross_tensor::TensorRng;

    #[test]
    fn train_output_is_standardised_per_channel() {
        let mut rng = TensorRng::seed_from(0);
        let mut bn = BatchNorm::new(2);
        let x = rng.uniform(&[16, 2, 3, 3], -4.0, 9.0);
        let y = bn.forward(&x, Mode::Train);
        // Per-channel mean ~0 and var ~1.
        let (n, c, rest) = (16, 2, 9);
        for ch in 0..c {
            let mut vals = Vec::new();
            for i in 0..n {
                let base = (i * c + ch) * rest;
                vals.extend_from_slice(&y.data()[base..base + rest]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut rng = TensorRng::seed_from(1);
        let mut bn = BatchNorm::new(1);
        // Feed constant-distribution batches so the running stats converge.
        for _ in 0..200 {
            let x = rng.normal(&[32, 1], 2.0).map(|v| v + 5.0);
            bn.forward(&x, Mode::Train);
        }
        let rm = bn.running_mean.data()[0];
        let rv = bn.running_var.data()[0];
        assert!((rm - 5.0).abs() < 0.3, "running mean {rm}");
        assert!((rv - 4.0).abs() < 0.6, "running var {rv}");
        // A single eval sample at the distribution mean maps near zero.
        let y = bn.forward(&Tensor::full(&[1, 1], 5.0), Mode::Eval);
        assert!(y.data()[0].abs() < 0.2);
    }

    #[test]
    fn gamma_beta_scale_and_shift() {
        let mut bn = BatchNorm::new(1);
        bn.gamma.value = Tensor::full(&[1], 3.0);
        bn.beta.value = Tensor::full(&[1], -1.0);
        let x = Tensor::from_vec(vec![-1.0, 1.0], &[2, 1]);
        let y = bn.forward(&x, Mode::Train);
        // xhat = [-1, 1] (up to eps), so y ~ [-4, 2].
        assert!((y.data()[0] + 4.0).abs() < 1e-2);
        assert!((y.data()[1] - 2.0).abs() < 1e-2);
    }

    #[test]
    fn buffers_roundtrip() {
        let mut bn = BatchNorm::new(2);
        bn.set_buffer("running_mean", Tensor::full(&[2], 7.0));
        bn.set_buffer("nonexistent", Tensor::zeros(&[1])); // ignored
        let bufs = bn.buffers();
        assert_eq!(bufs[0].1.data(), &[7.0, 7.0]);
    }

    #[test]
    fn works_on_5d_video_batches() {
        let mut rng = TensorRng::seed_from(2);
        let mut bn = BatchNorm::new(3);
        let x = rng.uniform(&[2, 3, 4, 2, 2], -1.0, 1.0);
        let y = bn.forward(&x, Mode::Train);
        assert_eq!(y.dims(), x.dims());
        let dx = bn.backward(&Tensor::ones(y.dims()));
        assert_eq!(dx.dims(), x.dims());
    }
}
