//! Layer composition.

use crate::{Layer, Mode, Param};
use safecross_tensor::{KernelScratch, Tensor};

/// A straight-line stack of layers executed in order.
///
/// `Sequential` itself implements [`Layer`], so stacks nest. Cloning a
/// `Sequential` deep-copies every layer (weights, buffers and optimizer-
/// visible gradients), which is what the MAML inner loop uses to create a
/// task-adapted model without disturbing the meta parameters.
///
/// ```
/// use safecross_nn::{Layer, Linear, Mode, Relu, Sequential};
/// use safecross_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(0);
/// let mut net = Sequential::new(vec![
///     Box::new(Linear::new(4, 8, &mut rng)),
///     Box::new(Relu::new()),
///     Box::new(Linear::new(8, 2, &mut rng)),
/// ]);
/// let y = net.forward(&Tensor::ones(&[1, 4]), Mode::Eval);
/// assert_eq!(y.dims(), &[1, 2]);
/// ```
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Builds a stack from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Appends a layer to the end of the stack.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the contained layers.
    pub fn iter(&self) -> std::slice::Iter<'_, Box<dyn Layer>> {
        self.layers.iter()
    }

    /// Resets every parameter gradient to zero.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total scalar weight count (for model-size reporting).
    pub fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self.layers.iter().map(|l| l.name()).collect();
        write!(f, "Sequential[{}]", names.join(" -> "))
    }
}

impl Layer for Sequential {
    fn forward_scratch(&mut self, x: &Tensor, mode: Mode, scratch: &mut KernelScratch) -> Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            // An empty stack is the identity; copy so the caller can
            // recycle the result like any other scratch tensor.
            let mut out = scratch.take_tensor(x.dims());
            out.data_mut().copy_from_slice(x.data());
            return out;
        };
        let mut h = first.forward_scratch(x, mode, scratch);
        for layer in rest {
            let next = layer.forward_scratch(&h, mode, scratch);
            // The intermediate goes straight back into the pool, so a
            // warm stack cycles a fixed set of buffers.
            scratch.recycle_tensor(h);
            h = next;
        }
        h
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn buffers(&self) -> Vec<(String, Tensor)> {
        self.layers
            .iter()
            .enumerate()
            .flat_map(|(i, l)| {
                l.buffers()
                    .into_iter()
                    .map(move |(n, t)| (format!("{i}.{n}"), t))
            })
            .collect()
    }

    fn visit_params(&self, prefix: &str, visit: &mut dyn FnMut(&str, &Tensor)) {
        // Recurse with indexed prefixes so nested stacks yield stable
        // qualified names ("0.weight", "2.1.running_mean", ...).
        for (i, layer) in self.layers.iter().enumerate() {
            layer.visit_params(&format!("{prefix}{i}."), visit);
        }
    }

    fn set_precision(&mut self, precision: safecross_tensor::Precision) {
        for layer in &mut self.layers {
            layer.set_precision(precision);
        }
    }

    fn set_buffer(&mut self, name: &str, value: Tensor) {
        if let Some((idx, rest)) = name.split_once('.') {
            if let Ok(i) = idx.parse::<usize>() {
                if let Some(layer) = self.layers.get_mut(i) {
                    layer.set_buffer(rest, value);
                }
            }
        }
    }

    fn name(&self) -> String {
        format!("sequential({} layers)", self.layers.len())
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchNorm, Linear, Relu};
    use safecross_tensor::TensorRng;

    fn tiny_net(rng: &mut TensorRng) -> Sequential {
        Sequential::new(vec![
            Box::new(Linear::new(3, 5, rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(5, 2, rng)),
        ])
    }

    #[test]
    fn forward_backward_shapes() {
        let mut rng = TensorRng::seed_from(0);
        let mut net = tiny_net(&mut rng);
        let x = rng.uniform(&[4, 3], -1.0, 1.0);
        let y = net.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[4, 2]);
        let dx = net.backward(&Tensor::ones(&[4, 2]));
        assert_eq!(dx.dims(), &[4, 3]);
    }

    #[test]
    fn clone_is_deep() {
        let mut rng = TensorRng::seed_from(0);
        let mut net = tiny_net(&mut rng);
        let snapshot = net.clone();
        // Mutate the original's weights; the clone must not change.
        for p in net.params_mut() {
            p.value.map_in_place(|v| v + 1.0);
        }
        let orig: Vec<f32> = net
            .params()
            .iter()
            .flat_map(|p| p.value.data().to_vec())
            .collect();
        let copy: Vec<f32> = snapshot
            .params()
            .iter()
            .flat_map(|p| p.value.data().to_vec())
            .collect();
        assert_ne!(orig, copy);
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut rng = TensorRng::seed_from(0);
        let mut net = tiny_net(&mut rng);
        let x = rng.uniform(&[2, 3], -1.0, 1.0);
        net.forward(&x, Mode::Train);
        net.backward(&Tensor::ones(&[2, 2]));
        assert!(net.params().iter().any(|p| p.grad_or_zeros().norm() > 0.0));
        net.zero_grad();
        assert!(net.params().iter().all(|p| p.grad_or_zeros().norm() == 0.0));
    }

    #[test]
    fn nested_buffer_names() {
        let mut net = Sequential::new(vec![Box::new(BatchNorm::new(2))]);
        let bufs = net.buffers();
        assert_eq!(bufs.len(), 2);
        assert_eq!(bufs[0].0, "0.running_mean");
        net.set_buffer("0.running_mean", Tensor::full(&[2], 9.0));
        assert_eq!(net.buffers()[0].1.data(), &[9.0, 9.0]);
    }

    #[test]
    fn warm_shared_scratch_matches_cold_forward_and_pool_reaches_fixed_point() {
        use crate::{Conv2d, Dropout, Flatten, GlobalAvgPool, MaxPool2d};
        let mut rng = TensorRng::seed_from(3);
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(1, 4, 3, 1, 1, &mut rng)),
            Box::new(BatchNorm::new(4)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2, 2)),
            Box::new(Conv2d::new(4, 6, 3, 2, 1, &mut rng)),
            Box::new(Relu::new()),
            Box::new(GlobalAvgPool::new()),
            Box::new(Flatten::new()),
            Box::new(Dropout::new(0.5, &mut rng)),
            Box::new(Linear::new(6, 3, &mut rng)),
        ]);
        let x = rng.uniform(&[2, 1, 12, 12], -1.0, 1.0);
        let cold = net.forward(&x, Mode::Eval);
        // A scratch that already served another shape hands out recycled,
        // differently-sized buffers; none of that may reach the result.
        let mut scratch = safecross_tensor::KernelScratch::new();
        let other = net.forward_scratch(
            &rng.uniform(&[3, 1, 9, 10], -1.0, 1.0),
            Mode::Eval,
            &mut scratch,
        );
        scratch.recycle_tensor(other);
        for _ in 0..3 {
            let warm = net.forward_scratch(&x, Mode::Eval, &mut scratch);
            assert_eq!(warm, cold, "recycled buffers leaked into the result");
            scratch.recycle_tensor(warm);
        }
        // Once warm, repeated passes must cycle the same buffer set.
        let settled = scratch.pooled_buffers();
        let warm = net.forward_scratch(&x, Mode::Eval, &mut scratch);
        scratch.recycle_tensor(warm);
        assert_eq!(scratch.pooled_buffers(), settled, "pool kept growing");
    }

    #[test]
    fn empty_sequential_scratch_is_identity_copy() {
        let mut net = Sequential::default();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let mut scratch = safecross_tensor::KernelScratch::new();
        let y = net.forward_scratch(&x, Mode::Eval, &mut scratch);
        assert_eq!(y, x);
    }

    #[test]
    fn num_parameters_counts_everything() {
        let mut rng = TensorRng::seed_from(0);
        let net = tiny_net(&mut rng);
        assert_eq!(net.num_parameters(), 3 * 5 + 5 + 5 * 2 + 2);
    }
}
