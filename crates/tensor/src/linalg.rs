//! Dense 2-D linear algebra: matmul and transposes.
//!
//! The products here are thin shape-checked wrappers over the kernel
//! layer ([`crate::kernel`]), which owns the deterministic parallel GEMM
//! and the sparsity heuristic. Allocation-free call sites use
//! [`crate::kernel::gemm_into`] directly with scratch buffers.

use crate::kernel;
use crate::Tensor;

/// Tile edge for the cache-blocked transpose: a 32×32 f32 tile is 4 KiB,
/// so source and destination tiles both sit in L1 while being swapped.
const TRANSPOSE_TILE: usize = 32;

impl Tensor {
    /// Matrix product of two 2-D tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// Runs on the kernel layer: the output is partitioned across the
    /// configured worker threads ([`crate::kernel::threads`]) while each
    /// element keeps the exact sequential (i, k, j) accumulation order,
    /// so results are bit-identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(rhs.shape().ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (k2, n) = (rhs.shape().dim(0), rhs.shape().dim(1));
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");

        let mut out = vec![0.0f32; m * n];
        kernel::gemm_into(self.data(), rhs.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix product against a transposed rhs without materialising the
    /// transpose: `[m, k] x [n, k]ᵀ -> [m, n]`.
    ///
    /// Both operands stream along their rows (the packed layout the
    /// backward passes and the linear layer already store), and the
    /// result is bit-identical to `self.matmul(&rhs.transpose())` for
    /// finite inputs.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions differ.
    pub fn matmul_transb(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(rhs.shape().ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (n, k2) = (rhs.shape().dim(0), rhs.shape().dim(1));
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");

        let mut out = vec![0.0f32; m * n];
        kernel::gemm_transb_into(self.data(), rhs.data(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a 2-D tensor.
    ///
    /// Cache-blocked: elements move tile by tile so both the row-major
    /// reads and the column-major writes stay within L1-sized footprints
    /// instead of striding the whole matrix per element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "transpose requires a 2-D tensor");
        let (m, n) = (self.shape().dim(0), self.shape().dim(1));
        let data = self.data();
        let mut out = vec![0.0f32; m * n];
        let mut bi = 0;
        while bi < m {
            let ie = (bi + TRANSPOSE_TILE).min(m);
            let mut bj = 0;
            while bj < n {
                let je = (bj + TRANSPOSE_TILE).min(n);
                for i in bi..ie {
                    for j in bj..je {
                        out[j * m + i] = data[i * n + j];
                    }
                }
                bj = je;
            }
            bi = ie;
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Dot product of two 1-D tensors.
    ///
    /// # Panics
    ///
    /// Panics on rank or length mismatch.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape().ndim(), 1, "dot lhs must be 1-D");
        assert_eq!(other.shape().ndim(), 1, "dot rhs must be 1-D");
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        self.data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| a * b)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec((0..9).map(|x| x as f32).collect(), &[3, 3]);
        let c = a.matmul(&Tensor::eye(3));
        assert_eq!(c, a);
        let c = Tensor::eye(3).matmul(&a);
        assert_eq!(c, a);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_mismatch_panics() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..15).map(|x| (x as f32).sin()).collect(), &[3, 5]);
        let b = Tensor::from_vec((0..20).map(|x| (x as f32).cos()).collect(), &[4, 5]);
        let fused = a.matmul_transb(&b);
        let explicit = a.matmul(&b.transpose());
        assert_eq!(fused, explicit, "transb fast path must be bit-identical");
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let t = a.transpose();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn transpose_crosses_tile_boundaries() {
        // 37 and 41 straddle the 32-wide tile edge, exercising the
        // partial-tile paths in both axes.
        let (m, n) = (37, 41);
        let a = Tensor::from_vec((0..m * n).map(|x| x as f32).collect(), &[m, n]);
        let t = a.transpose();
        for i in 0..m {
            for j in 0..n {
                assert_eq!(t.at(&[j, i]), a.at(&[i, j]));
            }
        }
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matvec_and_dot() {
        let v = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(v.dot(&v), 25.0);
    }

    #[test]
    fn matmul_transpose_identity_property() {
        // (A B)^T == B^T A^T on a modest random-ish case
        let a = Tensor::from_vec((0..12).map(|x| (x as f32).sin()).collect(), &[3, 4]);
        let b = Tensor::from_vec((0..20).map(|x| (x as f32).cos()).collect(), &[4, 5]);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert!(lhs.allclose(&rhs, 1e-5));
    }
}
