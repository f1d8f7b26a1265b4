//! Optimizers.

use crate::Param;
use safecross_tensor::Tensor;

/// A first-order optimizer over a flat list of parameters.
///
/// State (momentum) is keyed by position, so the same
/// parameter list must be passed on every step — which is natural because
/// layers own their parameters in a fixed order.
pub trait Optimizer {
    /// Applies one update using the accumulated gradients, then clears
    /// them.
    fn step(&mut self, params: &mut [&mut Param]);

    /// Clears gradients without updating (e.g. after a diagnostic pass).
    fn zero_grad(&mut self, params: &mut [&mut Param]) {
        for p in params.iter_mut() {
            p.zero_grad();
        }
    }
}

/// Stochastic gradient descent with optional momentum.
///
/// ```
/// use safecross_nn::{Optimizer, Param, Sgd};
/// use safecross_tensor::Tensor;
///
/// let mut p = Param::new("w", Tensor::ones(&[1]));
/// p.set_grad(Tensor::ones(&[1]));
/// Sgd::new(0.5).step(&mut [&mut p]);
/// assert_eq!(p.value.data(), &[0.5]);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        Sgd::with_momentum(lr, 0.0)
    }

    /// SGD with momentum.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.len() != params.len() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value.dims()))
                .collect();
        }
        for (i, p) in params.iter_mut().enumerate() {
            // An unallocated gradient is logically zero: momentum must
            // still act exactly as it would on real zeros.
            let g = p.grad_or_zeros();
            if self.momentum > 0.0 {
                let v = &mut self.velocity[i];
                v.map_in_place(|x| x * self.momentum);
                v.add_scaled(&g, 1.0);
                p.value.add_scaled(v, -self.lr);
            } else {
                p.value.add_scaled(&g, -self.lr);
            }
            p.zero_grad();
        }
    }
}

/// Scales all gradients so their global L2 norm is at most `max_norm`.
///
/// Returns the pre-clip norm, useful for logging training stability.
pub fn clip_grad_norm(params: &mut [&mut Param], max_norm: f32) -> f32 {
    let total: f32 = params
        .iter()
        .map(|p| {
            p.grad()
                .map_or(0.0, |g| g.data().iter().map(|&g| g * g).sum::<f32>())
        })
        .sum::<f32>()
        .sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for p in params.iter_mut() {
            // Scaling an unallocated (all-zero) gradient is a no-op, so
            // only touch parameters that actually hold one.
            if p.has_grad() {
                p.grad_mut().map_in_place(|g| g * scale);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &Param) -> Tensor {
        // d/dw of 0.5 * (w - 3)^2 is (w - 3).
        p.value.map(|w| w - 3.0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p = Param::new("w", Tensor::zeros(&[4]));
        let mut opt = Sgd::new(0.2);
        for _ in 0..100 {
            p.set_grad(quadratic_grad(&p));
            opt.step(&mut [&mut p]);
        }
        assert!(p.value.data().iter().all(|&w| (w - 3.0).abs() < 1e-3));
    }

    #[test]
    fn sgd_momentum_converges_faster_than_plain() {
        let run = |mut opt: Sgd| {
            let mut p = Param::new("w", Tensor::zeros(&[1]));
            for _ in 0..40 {
                p.set_grad(quadratic_grad(&p));
                opt.step(&mut [&mut p]);
            }
            (p.value.data()[0] - 3.0).abs()
        };
        let plain = run(Sgd::new(0.02));
        let momentum = run(Sgd::with_momentum(0.02, 0.9));
        assert!(
            momentum < plain,
            "momentum error {momentum} vs plain error {plain}"
        );
    }

    #[test]
    fn step_clears_gradients() {
        let mut p = Param::new("w", Tensor::zeros(&[2]));
        p.set_grad(Tensor::ones(&[2]));
        Sgd::new(0.1).step(&mut [&mut p]);
        assert_eq!(p.grad_or_zeros().sum(), 0.0);
    }

    #[test]
    fn clip_grad_norm_caps_global_norm() {
        let mut a = Param::new("a", Tensor::zeros(&[2]));
        let mut b = Param::new("b", Tensor::zeros(&[2]));
        a.set_grad(Tensor::full(&[2], 3.0));
        b.set_grad(Tensor::full(&[2], 4.0));
        let pre = clip_grad_norm(&mut [&mut a, &mut b], 1.0);
        assert!((pre - 50.0f32.sqrt()).abs() < 1e-4);
        let (ga, gb) = (a.grad_or_zeros(), b.grad_or_zeros());
        let post: f32 = (ga.data().iter().chain(gb.data()))
            .map(|&g| g * g)
            .sum::<f32>()
            .sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_leaves_small_gradients_alone() {
        let mut p = Param::new("w", Tensor::zeros(&[1]));
        p.set_grad(Tensor::full(&[1], 0.5));
        clip_grad_norm(&mut [&mut p], 1.0);
        assert_eq!(p.grad_or_zeros().data(), &[0.5]);
    }
}
