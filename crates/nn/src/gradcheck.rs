//! Finite-difference gradient checks for every layer.
//!
//! These are the load-bearing correctness tests of the NN substrate: each
//! layer's analytic backward pass is compared against a central-difference
//! approximation of the loss gradient, both with respect to the input and
//! with respect to every parameter.

use crate::{
    softmax_cross_entropy, BatchNorm, Conv2d, Conv3d, Flatten, GlobalAvgPool, Layer, Linear,
    MaxPool2d, MaxPool3d, Mode, Relu, Sequential,
};
use safecross_tensor::{Tensor, TensorRng};

/// Scalar loss used by all checks: softmax cross-entropy needs a [N, K]
/// input, so each harness flattens the layer output through a fixed random
/// projection first (keeping the check sensitive to every output element).
fn scalar_loss(out: &Tensor, proj: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let n = out.shape().dim(0);
    let flat = out.reshape(&[n, out.len() / n]);
    let logits = flat.matmul(proj);
    let (loss, dlogits) = softmax_cross_entropy(&logits, labels);
    let dflat = dlogits.matmul(&proj.transpose());
    (loss, dflat.reshape(out.dims()))
}

/// Runs the full check on `layer` for input shape `in_dims`.
fn check_layer(layer: &mut dyn Layer, in_dims: &[usize], seed: u64, tol: f32) {
    check_layer_with_outliers(layer, in_dims, seed, tol, 0);
}

/// Like [`check_layer`] but tolerates up to `max_outliers` mismatching
/// positions. Deep stacks containing max-pools are not differentiable
/// everywhere: a parameter perturbation can flip a pooling winner, making
/// the finite difference disagree with the (correct) subgradient.
fn check_layer_with_outliers(
    layer: &mut dyn Layer,
    in_dims: &[usize],
    seed: u64,
    tol: f32,
    max_outliers: usize,
) {
    let mut rng = TensorRng::seed_from(seed);
    // Keep inputs away from zero so the central difference never straddles
    // a ReLU kink (which would make the numeric estimate meaningless).
    let x = rng.uniform(in_dims, -1.0, 1.0).map(|v| {
        if v.abs() < 0.1 {
            if v >= 0.0 {
                0.15
            } else {
                -0.15
            }
        } else {
            v
        }
    });
    let n = in_dims[0];
    let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();

    // Probe once to learn the output width for the projection.
    let probe = layer.forward(&x, Mode::Train);
    let out_width = probe.len() / n;
    let proj = rng.uniform(&[out_width, 2], -1.0, 1.0);

    // Analytic gradients.
    for p in layer.params_mut() {
        p.zero_grad();
    }
    let out = layer.forward(&x, Mode::Train);
    let (_, dout) = scalar_loss(&out, &proj, &labels);
    let dx = layer.backward(&dout);

    // Numeric input gradient (sampled positions to keep the test fast).
    let mut outliers: Vec<String> = Vec::new();
    let eps = 2e-3;
    let stride = (x.len() / 24).max(1);
    for i in (0..x.len()).step_by(stride) {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let lp = scalar_loss(&layer.forward(&xp, Mode::Train), &proj, &labels).0;
        let lm = scalar_loss(&layer.forward(&xm, Mode::Train), &proj, &labels).0;
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = dx.data()[i];
        if (numeric - analytic).abs() >= tol + 0.1 * numeric.abs() {
            outliers.push(format!(
                "input grad {i}: numeric {numeric} vs analytic {analytic}"
            ));
        }
    }

    // Numeric parameter gradients. Re-derive analytic grads first (the
    // probing forwards above disturbed the caches).
    for p in layer.params_mut() {
        p.zero_grad();
    }
    let out = layer.forward(&x, Mode::Train);
    let (_, dout) = scalar_loss(&out, &proj, &labels);
    layer.backward(&dout);
    let analytic_grads: Vec<Tensor> = layer.params().iter().map(|p| p.grad_or_zeros()).collect();

    let param_count = layer.params().len();
    // `pi` re-borrows `layer.params()` mutably inside the loop, so an
    // iterator over `analytic_grads` cannot replace the index.
    #[allow(clippy::needless_range_loop)]
    for pi in 0..param_count {
        let plen = layer.params()[pi].len();
        let stride = (plen / 12).max(1);
        for i in (0..plen).step_by(stride) {
            let orig = layer.params()[pi].value.data()[i];
            layer.params_mut()[pi].value.data_mut()[i] = orig + eps;
            let lp = scalar_loss(&layer.forward(&x, Mode::Train), &proj, &labels).0;
            layer.params_mut()[pi].value.data_mut()[i] = orig - eps;
            let lm = scalar_loss(&layer.forward(&x, Mode::Train), &proj, &labels).0;
            layer.params_mut()[pi].value.data_mut()[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = analytic_grads[pi].data()[i];
            if (numeric - analytic).abs() >= tol + 0.1 * numeric.abs() {
                outliers.push(format!(
                    "param {pi} grad {i}: numeric {numeric} vs analytic {analytic}"
                ));
            }
        }
    }
    assert!(
        outliers.len() <= max_outliers,
        "{} gradient mismatches (allowed {max_outliers}):\n{}",
        outliers.len(),
        outliers.join("\n")
    );
}

#[test]
fn gradcheck_linear() {
    let mut rng = TensorRng::seed_from(10);
    let mut layer = Linear::new(6, 4, &mut rng);
    check_layer(&mut layer, &[3, 6], 1, 1e-2);
}

#[test]
fn gradcheck_conv2d() {
    let mut rng = TensorRng::seed_from(11);
    let mut layer = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
    check_layer(&mut layer, &[2, 2, 5, 5], 2, 1e-2);
}

#[test]
fn gradcheck_conv2d_strided() {
    let mut rng = TensorRng::seed_from(12);
    let mut layer = Conv2d::new(1, 2, 3, 2, 0, &mut rng);
    check_layer(&mut layer, &[2, 1, 7, 7], 3, 1e-2);
}

#[test]
fn gradcheck_conv3d() {
    let mut rng = TensorRng::seed_from(13);
    let mut layer = Conv3d::new(2, 2, (3, 3), (1, 1), (1, 1), &mut rng);
    check_layer(&mut layer, &[2, 2, 4, 4, 4], 4, 1e-2);
}

#[test]
fn gradcheck_conv3d_temporal_stride() {
    let mut rng = TensorRng::seed_from(14);
    let mut layer = Conv3d::new(1, 2, (3, 2), (2, 2), (1, 0), &mut rng);
    check_layer(&mut layer, &[2, 1, 6, 4, 4], 5, 1e-2);
}

#[test]
fn gradcheck_batchnorm() {
    let mut layer = BatchNorm::new(3);
    check_layer(&mut layer, &[4, 3, 3, 3], 6, 2e-2);
}

#[test]
fn gradcheck_relu() {
    let mut layer = Relu::new();
    check_layer(&mut layer, &[3, 8], 7, 1e-2);
}

#[test]
fn gradcheck_maxpool2d() {
    let mut layer = MaxPool2d::new(2, 2);
    check_layer(&mut layer, &[2, 2, 4, 4], 8, 1e-2);
}

#[test]
fn gradcheck_maxpool3d() {
    let mut layer = MaxPool3d::new((2, 2), (2, 2));
    check_layer(&mut layer, &[2, 1, 4, 4, 4], 9, 1e-2);
}

#[test]
fn gradcheck_global_avg_pool() {
    let mut layer = GlobalAvgPool::new();
    check_layer(&mut layer, &[2, 3, 4, 4], 10, 1e-2);
}

#[test]
fn gradcheck_flatten() {
    let mut layer = Flatten::new();
    check_layer(&mut layer, &[2, 3, 4], 11, 1e-2);
}

#[test]
fn gradcheck_deep_sequential() {
    let mut rng = TensorRng::seed_from(15);
    let mut net = Sequential::new(vec![
        Box::new(Conv2d::new(1, 2, 3, 1, 1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Flatten::new()),
        Box::new(Linear::new(2 * 3 * 3, 4, &mut rng)),
    ]);
    check_layer_with_outliers(&mut net, &[2, 1, 6, 6], 12, 2e-2, 3);
}

#[test]
fn training_reduces_loss_end_to_end() {
    use crate::{Optimizer, Sgd};
    // A sanity check that the whole substrate learns: binary classification
    // of two Gaussian blobs with a small MLP.
    let mut rng = TensorRng::seed_from(20);
    let mut net = Sequential::new(vec![
        Box::new(Linear::new(2, 16, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Linear::new(16, 2, &mut rng)),
    ]);
    let n = 64;
    let mut xs = Tensor::zeros(&[n, 2]);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % 2;
        let cx = if class == 0 { -1.0 } else { 1.0 };
        xs.data_mut()[i * 2] = cx + rng.normal(&[1], 0.3).data()[0];
        xs.data_mut()[i * 2 + 1] = cx + rng.normal(&[1], 0.3).data()[0];
        labels.push(class);
    }
    let mut opt = Sgd::new(0.5);
    let first = {
        let logits = net.forward(&xs, Mode::Train);
        softmax_cross_entropy(&logits, &labels).0
    };
    let mut last = first;
    for _ in 0..50 {
        let logits = net.forward(&xs, Mode::Train);
        let (loss, grad) = softmax_cross_entropy(&logits, &labels);
        net.backward(&grad);
        opt.step(&mut net.params_mut());
        last = loss;
    }
    assert!(last < first * 0.2, "loss {first} -> {last}");
    let logits = net.forward(&xs, Mode::Eval);
    assert!(crate::accuracy(&logits, &labels) > 0.95);
}
