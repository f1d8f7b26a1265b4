//! The core `Layer` abstraction.

use crate::Param;
use safecross_tensor::{qtensor, KernelScratch, Precision, Tensor};

/// Whether a forward pass is part of training or inference.
///
/// Layers with train/eval divergence (batch-norm statistics, dropout)
/// branch on this; all other layers ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: update normalisation statistics, apply dropout, cache
    /// everything backward needs.
    Train,
    /// Inference: use running statistics, no dropout, caching optional.
    Eval,
}

/// A differentiable network layer.
///
/// The contract is the classic "define-by-layer" one:
///
/// 1. `forward_scratch` consumes a batch-leading input (`[N, ...]`),
///    caches whatever its backward pass needs when training, and produces
///    the output; `forward` is the same pass on a throw-away arena.
/// 2. `backward` receives the gradient of the loss with respect to that
///    output, **accumulates** gradients into its parameters, and returns
///    the gradient with respect to the input.
///
/// `backward` must be preceded by a forward in `Mode::Train` on the same
/// data; implementations are allowed to panic otherwise.
///
/// The trait is object-safe so networks can be composed as
/// `Vec<Box<dyn Layer>>` (see [`crate::Sequential`]); `clone_box` enables
/// cloning whole models, which the MAML inner loop relies on.
pub trait Layer: Send + Sync {
    /// Runs the layer on `x`, caching backward state when training.
    ///
    /// Provided: runs [`Layer::forward_scratch`] — the layer's one
    /// forward body — on a fresh [`KernelScratch`], so the result is
    /// bit-identical to it by construction. Implementors should not
    /// override this. (Before the two were unified the default pointed
    /// the other way: out-of-tree layers that implemented `forward` must
    /// now move that body into `forward_scratch`.)
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_scratch(x, mode, &mut KernelScratch::new())
    }

    /// The forward pass, for both modes: working buffers and the returned
    /// tensor's storage are borrowed from `scratch` instead of allocated.
    ///
    /// The contract: results must not depend on what the recycled buffers
    /// held, and in `Mode::Eval` an implementation must not touch the heap
    /// beyond what `scratch` already pooled — this is what makes the
    /// steady-state classify path allocation-free once warm. Callers
    /// recycle the returned tensor back into the same scratch when they
    /// are done with it. `Mode::Train` additionally writes the backward
    /// caches, which may allocate (they live beyond the call).
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor;

    /// Back-propagates `grad_out`, accumulating parameter gradients and
    /// returning the gradient with respect to the last `forward` input.
    ///
    /// # Panics
    ///
    /// Implementations may panic when called before any training-mode
    /// `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Immutable access to learnable parameters (possibly empty).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to learnable parameters (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Non-learnable persistent state to serialise alongside parameters
    /// (e.g. batch-norm running statistics), as `(name, tensor)` pairs.
    fn buffers(&self) -> Vec<(String, Tensor)> {
        Vec::new()
    }

    /// Restores a buffer previously returned by [`Layer::buffers`].
    /// Unknown names are ignored so state dictionaries stay
    /// forward-compatible.
    fn set_buffer(&mut self, _name: &str, _value: Tensor) {}

    /// Visits every named tensor of persistent state — parameters first,
    /// then buffers — as `(qualified name, tensor)` pairs.
    ///
    /// `prefix` is prepended verbatim to each name, so containers can
    /// qualify their children (e.g. [`crate::Sequential`] recurses with
    /// `"{prefix}{index}."`). This is the state-dict visitor the model
    /// artifact IR is built on: serialisation and the model registry
    /// enumerate weights through it instead of assuming a flat layout.
    ///
    /// The default implementation emits `params()` under their own
    /// [`Param::name`]s followed by `buffers()`; containers should
    /// override it to recurse so nested names stay stable.
    fn visit_params(&self, prefix: &str, visit: &mut dyn FnMut(&str, &Tensor)) {
        for p in self.params() {
            visit(&format!("{prefix}{}", p.name), &p.value);
        }
        for (name, buf) in self.buffers() {
            visit(&format!("{prefix}{name}"), &buf);
        }
    }

    /// Selects the arithmetic precision used by eval-mode forward passes.
    ///
    /// [`Precision::Int8`] asks the layer to quantize its weights
    /// (symmetric per-output-channel int8, see
    /// [`safecross_tensor::qtensor`]) and run inference on quantized
    /// operands; [`Precision::F32`] restores exact full-precision
    /// compute and drops any cached quantized weights. Layers without a
    /// quantizable kernel ignore the call, so the default is a no-op.
    /// Training-mode forwards and `backward` always run in f32
    /// regardless of this setting.
    ///
    /// Callers must re-invoke this after mutating weights (e.g. after
    /// `load_state_dict`-style restores) so cached quantized copies stay
    /// in sync; containers recurse into their children.
    fn set_precision(&mut self, _precision: Precision) {}

    /// A short human-readable identifier (`"linear(4->8)"`).
    fn name(&self) -> String;

    /// Clones the layer behind a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Total number of scalar weights in a parameter list.
pub fn param_count(params: &[&Param]) -> usize {
    params.iter().map(|p| p.len()).sum()
}

/// A `[rows, fan_in]` weight quantized for int8 eval: its integer
/// values as `f32` and one scale per row (output channel).
#[derive(Debug, Clone)]
pub(crate) struct Int8Weight {
    pub(crate) values: Vec<f32>,
    pub(crate) scales: Vec<f32>,
}

impl Int8Weight {
    /// Quantizes `w` per row.
    ///
    /// # Panics
    ///
    /// Panics if the fan-in exceeds [`qtensor::MAX_FAN_IN`].
    pub(crate) fn new(w: &Tensor) -> Self {
        let rows = w.shape().dim(0);
        let mut values = vec![0.0; w.len()];
        let mut scales = vec![0.0; rows];
        qtensor::quantize_rows(w.data(), w.len() / rows, &mut values, &mut scales);
        Int8Weight { values, scales }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;
    use safecross_tensor::TensorRng;

    #[test]
    fn boxed_layers_clone() {
        let mut rng = TensorRng::seed_from(0);
        let l: Box<dyn Layer> = Box::new(Linear::new(2, 3, &mut rng));
        let c = l.clone();
        assert_eq!(c.name(), l.name());
        let pv: Vec<_> = l.params().iter().map(|p| p.value.clone()).collect();
        let cv: Vec<_> = c.params().iter().map(|p| p.value.clone()).collect();
        assert_eq!(pv, cv);
    }

    #[test]
    fn param_count_sums() {
        let mut rng = TensorRng::seed_from(0);
        let l = Linear::new(2, 3, &mut rng);
        assert_eq!(param_count(&l.params()), 2 * 3 + 3);
    }
}
