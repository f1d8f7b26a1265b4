//! # safecross-tensor
//!
//! A small, dependency-light N-dimensional `f32` tensor library that serves
//! as the numeric substrate for the SafeCross reproduction. It provides
//! exactly the operations the neural-network crate ([`safecross-nn`]) needs:
//! row-major dense storage, broadcast-free elementwise arithmetic, 2-D
//! matrix multiplication, axis reductions, and the `vol2col` lowering used
//! by 2-D and 3-D convolutions.
//!
//! The paper's original system runs on PyTorch/CUDA; this crate is the
//! CPU substitution documented in `DESIGN.md`. It favours clarity and
//! testability over raw throughput, while keeping the hot paths (matmul,
//! vol2col) cache-friendly enough to train the miniature video classifiers
//! on a laptop-class CPU.
//!
//! ## Example
//!
//! ```
//! use safecross_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```
//!
//! [`safecross-nn`]: ../safecross_nn/index.html

// `deny` rather than `forbid`: the one sanctioned exception is
// `kernel::simd`, which carries a module-level `allow` and confines
// every `unsafe` block behind a `// SAFETY:` contract (CI's
// unsafe-audit gate enforces both). Everything else in the crate is
// still statically unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod blob;
mod conv;
pub mod kernel;
mod linalg;
mod ops;
mod plan;
pub mod qtensor;
mod random;
mod shape;
mod tensor;

pub use blob::{content_hash, fnv1a, ContentHasher};
pub use conv::{col2vol, vol2col_cols_into, vol2col_into, Conv3dGeom};
pub use kernel::{Isa, KernelScratch};
pub use plan::GridPlan;
pub use qtensor::Precision;
pub use random::TensorRng;
pub use shape::{Shape, MAX_RANK};
pub use tensor::Tensor;

#[cfg(test)]
mod proptests;
