//! Pooling and shape-adapter layers.

use crate::{Layer, Mode};
use safecross_tensor::{KernelScratch, Tensor};

/// Max pooling over `[N, C, H, W]` with a square window.
///
/// ```
/// use safecross_nn::{Layer, MaxPool2d, Mode};
/// use safecross_tensor::Tensor;
///
/// let mut pool = MaxPool2d::new(2, 2);
/// let y = pool.forward(&Tensor::ones(&[1, 1, 4, 4]), Mode::Eval);
/// assert_eq!(y.dims(), &[1, 1, 2, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    // For each output element, the flat index of the winning input element.
    argmax: Option<(Vec<usize>, Vec<usize>)>, // (winners, input dims proxy)
    in_dims: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a pool with the given window and stride.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        MaxPool2d {
            kernel,
            stride,
            argmax: None,
            in_dims: Vec::new(),
        }
    }
}

impl Layer for MaxPool2d {
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        assert_eq!(x.shape().ndim(), 4, "MaxPool2d expects [N, C, H, W]");
        let (n, c, h, w) = (
            x.shape().dim(0),
            x.shape().dim(1),
            x.shape().dim(2),
            x.shape().dim(3),
        );
        assert!(
            h >= self.kernel && w >= self.kernel,
            "input smaller than window"
        );
        let oh = (h - self.kernel) / self.stride + 1;
        let ow = (w - self.kernel) / self.stride + 1;
        let mut out = scratch.take_tensor(&[n, c, oh, ow]);
        // Eval never back-propagates, so only training records winners.
        let mut winners = (mode == Mode::Train).then(|| vec![0usize; n * c * oh * ow]);
        let xd = x.data();
        let od = out.data_mut();
        for i in 0..n {
            for ch in 0..c {
                let ibase = (i * c + ch) * h * w;
                let obase = (i * c + ch) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let idx =
                                    ibase + (oy * self.stride + ky) * w + ox * self.stride + kx;
                                if xd[idx] > best {
                                    best = xd[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        od[obase + oy * ow + ox] = best;
                        if let Some(winners) = &mut winners {
                            winners[obase + oy * ow + ox] = best_idx;
                        }
                    }
                }
            }
        }
        if let Some(winners) = winners {
            self.in_dims = x.dims().to_vec();
            self.argmax = Some((winners, vec![n, c, oh, ow]));
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (winners, _) = self
            .argmax
            .as_ref()
            .expect("MaxPool2d::backward called before a training forward");
        let mut dx = Tensor::zeros(&self.in_dims);
        let dxd = dx.data_mut();
        for (o, &win) in winners.iter().enumerate() {
            dxd[win] += grad_out.data()[o];
        }
        dx
    }

    fn name(&self) -> String {
        format!("maxpool2d(k{}, s{})", self.kernel, self.stride)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Max pooling over `[N, C, T, H, W]` with independent temporal and
/// spatial windows (C3D-style).
#[derive(Debug, Clone)]
pub struct MaxPool3d {
    kernel: (usize, usize), // (temporal, spatial)
    stride: (usize, usize),
    argmax: Option<Vec<usize>>,
    in_dims: Vec<usize>,
}

impl MaxPool3d {
    /// Creates a pool with `(temporal, spatial)` window and stride pairs.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn new(kernel: (usize, usize), stride: (usize, usize)) -> Self {
        assert!(kernel.0 > 0 && kernel.1 > 0 && stride.0 > 0 && stride.1 > 0);
        MaxPool3d {
            kernel,
            stride,
            argmax: None,
            in_dims: Vec::new(),
        }
    }
}

impl Layer for MaxPool3d {
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        assert_eq!(x.shape().ndim(), 5, "MaxPool3d expects [N, C, T, H, W]");
        let (n, c, t, h, w) = (
            x.shape().dim(0),
            x.shape().dim(1),
            x.shape().dim(2),
            x.shape().dim(3),
            x.shape().dim(4),
        );
        let (kt, ks) = self.kernel;
        let (st, ss) = self.stride;
        assert!(t >= kt && h >= ks && w >= ks, "input smaller than window");
        let ot = (t - kt) / st + 1;
        let oh = (h - ks) / ss + 1;
        let ow = (w - ks) / ss + 1;
        let mut out = scratch.take_tensor(&[n, c, ot, oh, ow]);
        let mut winners = (mode == Mode::Train).then(|| vec![0usize; n * c * ot * oh * ow]);
        let xd = x.data();
        let od = out.data_mut();
        for i in 0..n {
            for ch in 0..c {
                let ibase = (i * c + ch) * t * h * w;
                let obase = (i * c + ch) * ot * oh * ow;
                for oti in 0..ot {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut best = f32::NEG_INFINITY;
                            let mut best_idx = 0;
                            for ktt in 0..kt {
                                for ky in 0..ks {
                                    for kx in 0..ks {
                                        let idx = ibase
                                            + (oti * st + ktt) * h * w
                                            + (oy * ss + ky) * w
                                            + ox * ss
                                            + kx;
                                        if xd[idx] > best {
                                            best = xd[idx];
                                            best_idx = idx;
                                        }
                                    }
                                }
                            }
                            let o = obase + oti * oh * ow + oy * ow + ox;
                            od[o] = best;
                            if let Some(winners) = &mut winners {
                                winners[o] = best_idx;
                            }
                        }
                    }
                }
            }
        }
        if let Some(winners) = winners {
            self.in_dims = x.dims().to_vec();
            self.argmax = Some(winners);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let winners = self
            .argmax
            .as_ref()
            .expect("MaxPool3d::backward called before a training forward");
        let mut dx = Tensor::zeros(&self.in_dims);
        let dxd = dx.data_mut();
        for (o, &win) in winners.iter().enumerate() {
            dxd[win] += grad_out.data()[o];
        }
        dx
    }

    fn name(&self) -> String {
        format!(
            "maxpool3d(kt{} ks{}, st{} ss{})",
            self.kernel.0, self.kernel.1, self.stride.0, self.stride.1
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Global average pooling: collapses every axis after the channel axis,
/// mapping `[N, C, ...]` to `[N, C]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    in_dims: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates a global average pool.
    pub fn new() -> Self {
        GlobalAvgPool {
            in_dims: Vec::new(),
        }
    }
}

impl Layer for GlobalAvgPool {
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        assert!(x.shape().ndim() >= 3, "GlobalAvgPool expects [N, C, ...]");
        let (n, c) = (x.shape().dim(0), x.shape().dim(1));
        let rest: usize = x.dims()[2..].iter().product();
        let mut out = scratch.take_tensor(&[n, c]);
        let xd = x.data();
        let od = out.data_mut();
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * rest;
                od[i * c + ch] = xd[base..base + rest].iter().sum::<f32>() / rest as f32;
            }
        }
        if mode == Mode::Train {
            self.in_dims = x.dims().to_vec();
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.in_dims.is_empty(),
            "GlobalAvgPool::backward before forward"
        );
        let (n, c) = (self.in_dims[0], self.in_dims[1]);
        let rest: usize = self.in_dims[2..].iter().product();
        let mut dx = Tensor::zeros(&self.in_dims);
        let dxd = dx.data_mut();
        for i in 0..n {
            for ch in 0..c {
                let g = grad_out.data()[i * c + ch] / rest as f32;
                let base = (i * c + ch) * rest;
                for v in &mut dxd[base..base + rest] {
                    *v = g;
                }
            }
        }
        dx
    }

    fn name(&self) -> String {
        "globalavgpool".to_owned()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Flattens `[N, ...]` to `[N, prod(...)]`; backward restores the shape.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    in_dims: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten {
            in_dims: Vec::new(),
        }
    }
}

impl Layer for Flatten {
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        assert!(x.shape().ndim() >= 2, "Flatten expects a batched input");
        let n = x.shape().dim(0);
        let rest = x.len() / n;
        if mode == Mode::Train {
            self.in_dims = x.dims().to_vec();
        }
        let mut out = scratch.take_tensor(&[n, rest]);
        out.data_mut().copy_from_slice(x.data());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(!self.in_dims.is_empty(), "Flatten::backward before forward");
        grad_out.reshape(&self.in_dims)
    }

    fn name(&self) -> String {
        "flatten".to_owned()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool2d_picks_maxima() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        );
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        let dx = pool.backward(&Tensor::ones(&[1, 1, 2, 2]));
        assert_eq!(dx.sum(), 4.0);
        assert_eq!(dx.at(&[0, 0, 1, 1]), 1.0); // position of "6"
        assert_eq!(dx.at(&[0, 0, 3, 3]), 1.0); // position of "16"
    }

    #[test]
    fn maxpool3d_shapes_and_values() {
        let mut pool = MaxPool3d::new((2, 2), (2, 2));
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 2, 2, 4]);
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[1, 1, 1, 1, 2]);
        // Window over t={0,1}, y={0,1}, x={0,1} -> max is element 13; second window -> 15.
        assert_eq!(y.data(), &[13.0, 15.0]);
    }

    #[test]
    fn global_avg_pool_means() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 10.0, 20.0], &[1, 2, 2, 1]);
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[2.0, 15.0]);
        let dx = pool.backward(&Tensor::ones(&[1, 2]));
        assert!(dx.data().iter().all(|&v| (v - 0.5).abs() < 1e-6));
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::ones(&[2, 3, 4]);
        let y = f.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 12]);
        let dx = f.backward(&y);
        assert_eq!(dx.dims(), &[2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "smaller than window")]
    fn pool_window_too_large_panics() {
        MaxPool2d::new(5, 1).forward(&Tensor::ones(&[1, 1, 4, 4]), Mode::Eval);
    }
}
