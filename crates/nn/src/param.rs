//! Learnable parameters.

use safecross_tensor::Tensor;

/// A learnable tensor together with its lazily allocated gradient.
///
/// Layers own their parameters; optimizers mutate them through
/// [`crate::Layer::params_mut`]. The `name` is used for weight
/// serialisation and debugging.
///
/// The gradient buffer does not exist until a backward pass (or an
/// explicit [`Param::set_grad`]) first touches it, so inference-only
/// model loads hold exactly one tensor per parameter instead of two.
/// Readers treat a missing gradient as all zeros; [`Param::grad_mut`]
/// materialises the buffer on demand, and once allocated it is reused
/// across steps ([`Param::zero_grad`] clears in place rather than
/// deallocating, keeping steady-state training allocation-free).
///
/// ```
/// use safecross_nn::Param;
/// use safecross_tensor::Tensor;
///
/// let mut p = Param::new("fc.weight", Tensor::ones(&[2, 2]));
/// assert!(p.grad().is_none()); // no gradient storage until backward
/// p.grad_mut().map_in_place(|_| 1.0);
/// assert_eq!(p.grad_or_zeros().sum(), 4.0);
/// ```
#[derive(Debug, Clone)]
pub struct Param {
    /// Identifier used in state dictionaries (e.g. `"conv1.weight"`).
    pub name: String,
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient; allocated on first use, same shape as
    /// `value` once present.
    grad: Option<Tensor>,
}

impl Param {
    /// Creates a parameter with no gradient storage.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        Param {
            name: name.into(),
            value,
            grad: None,
        }
    }

    /// The accumulated gradient, or `None` if no backward pass has
    /// touched this parameter since construction.
    pub fn grad(&self) -> Option<&Tensor> {
        self.grad.as_ref()
    }

    /// Mutable access to the gradient, allocating a zeroed buffer on
    /// first use. Backward passes accumulate through this.
    pub fn grad_mut(&mut self) -> &mut Tensor {
        if self.grad.is_none() {
            self.grad = Some(Tensor::zeros(self.value.dims()));
        }
        self.grad.as_mut().expect("gradient was just allocated")
    }

    /// Replaces the gradient wholesale.
    ///
    /// # Panics
    ///
    /// Panics if `grad` has a different shape than the value.
    pub fn set_grad(&mut self, grad: Tensor) {
        assert_eq!(
            grad.dims(),
            self.value.dims(),
            "gradient shape must match parameter {:?}",
            self.name
        );
        self.grad = Some(grad);
    }

    /// Whether gradient storage has been allocated.
    pub(crate) fn has_grad(&self) -> bool {
        self.grad.is_some()
    }

    /// A clone of the gradient, or a zero tensor of the value's shape
    /// when none has been allocated. Optimizers use this so a parameter
    /// that never saw a backward pass behaves exactly like one whose
    /// gradient is zero (weight decay still applies, moments still
    /// decay).
    pub fn grad_or_zeros(&self) -> Tensor {
        match &self.grad {
            Some(g) => g.clone(),
            None => Tensor::zeros(self.value.dims()),
        }
    }

    /// Resets the gradient to zero in place; a no-op when no gradient
    /// buffer exists (it is already logically zero).
    pub fn zero_grad(&mut self) {
        if let Some(g) = self.grad.as_mut() {
            g.map_in_place(|_| 0.0);
        }
    }

    /// Number of scalar weights.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Parameters always hold at least one weight.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_no_grad_allocation() {
        let p = Param::new("w", Tensor::ones(&[3]));
        assert!(!p.has_grad());
        assert!(p.grad().is_none());
        assert_eq!(p.grad_or_zeros().dims(), &[3]);
        assert_eq!(p.grad_or_zeros().sum(), 0.0);
        assert_eq!(p.name, "w");
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn grad_mut_allocates_zeros_once() {
        let mut p = Param::new("w", Tensor::ones(&[2, 2]));
        assert_eq!(p.grad_mut().sum(), 0.0);
        p.grad_mut().map_in_place(|_| 2.0);
        assert!(p.has_grad());
        assert_eq!(p.grad().expect("allocated").sum(), 8.0);
    }

    #[test]
    fn zero_grad_clears_in_place_and_keeps_allocation() {
        let mut p = Param::new("w", Tensor::ones(&[2]));
        p.set_grad(Tensor::full(&[2], 5.0));
        p.zero_grad();
        assert!(p.has_grad());
        assert_eq!(p.grad_or_zeros().sum(), 0.0);
    }

    #[test]
    fn zero_grad_on_unallocated_is_noop() {
        let mut p = Param::new("w", Tensor::ones(&[2]));
        p.zero_grad();
        assert!(!p.has_grad());
    }

    #[test]
    #[should_panic(expected = "gradient shape must match")]
    fn set_grad_rejects_shape_mismatch() {
        let mut p = Param::new("w", Tensor::ones(&[2]));
        p.set_grad(Tensor::ones(&[3]));
    }
}
