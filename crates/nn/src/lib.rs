//! # safecross-nn
//!
//! A compact neural-network library — layers with explicit
//! forward/backward passes, losses, optimizers and weight serialisation —
//! built on [`safecross-tensor`]. It is the CPU substitution for the
//! PyTorch/CUDA stack used by the SafeCross paper (see `DESIGN.md`).
//!
//! The design is deliberately layer-centric rather than autograd-centric:
//! every [`Layer`] caches what its backward pass needs during `forward`,
//! and `backward` both accumulates parameter gradients and returns the
//! gradient with respect to its input. This is enough to express the
//! miniature SlowFast / C3D / TSN video classifiers and the MAML
//! inner/outer loops of the few-shot module, while staying easy to verify
//! with finite-difference gradient checks (see the `gradcheck` tests).
//!
//! ## Example
//!
//! ```
//! use safecross_nn::{Layer, Linear, Mode, Relu, Sequential, Sgd, Optimizer, softmax_cross_entropy};
//! use safecross_tensor::{Tensor, TensorRng};
//!
//! let mut rng = TensorRng::seed_from(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Linear::new(4, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 2, &mut rng)),
//! ]);
//! let x = rng.uniform(&[3, 4], -1.0, 1.0);
//! let logits = net.forward(&x, Mode::Train);
//! let (loss, grad) = softmax_cross_entropy(&logits, &[0, 1, 0]);
//! net.backward(&grad);
//! let mut opt = Sgd::new(0.1);
//! opt.step(&mut net.params_mut());
//! assert!(loss.is_finite());
//! ```
//!
//! [`safecross-tensor`]: ../safecross_tensor/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod conv;
mod layer;
mod linear;
mod loss;
mod norm;
mod optim;
mod param;
mod pool;
mod sequential;
mod serialize;

pub use activation::{Dropout, Relu};
pub use conv::{Conv2d, Conv3d};
pub use layer::{param_count, Layer, Mode};
pub use linear::Linear;
pub use loss::{accuracy, mean_class_accuracy, softmax_cross_entropy};
pub use norm::BatchNorm;
pub use optim::{clip_grad_norm, Optimizer, Sgd};
pub use param::Param;
pub use pool::{Flatten, GlobalAvgPool, MaxPool2d, MaxPool3d};
pub use sequential::Sequential;
pub use serialize::{
    load_grouped, manifest_for, save_grouped, GroupManifest, ModelManifest, SerializeError,
};

#[cfg(test)]
mod gradcheck;
