//! Elementwise arithmetic, reductions, and activation helpers.

use crate::Tensor;
use std::ops::{Add, Div, Mul, Neg, Sub};

macro_rules! elementwise_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip_map(rhs, |a, b| a $op b)
            }
        }
        impl $trait for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: Tensor) -> Tensor {
                (&self).$method(&rhs)
            }
        }
        impl $trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.map(|a| a $op rhs)
            }
        }
        impl $trait<f32> for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                (&self).$method(rhs)
            }
        }
    };
}

elementwise_binop!(Add, add, +);
elementwise_binop!(Sub, sub, -);
elementwise_binop!(Mul, mul, *);
elementwise_binop!(Div, div, /);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|a| -a)
    }
}

impl Neg for Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        -&self
    }
}

impl Tensor {
    /// Adds `other * scale` in place (the `axpy` pattern used by SGD).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            *a += b * scale;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Maximum element.
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element in the flattened buffer (first on ties).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &v) in self.data().iter().enumerate() {
            if v > self.data()[best] {
                best = i;
            }
        }
        best
    }

    /// Row-wise argmax of a 2-D tensor, one index per row.
    ///
    /// Used to turn a `[batch, classes]` logit matrix into predictions.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape().ndim(), 2, "argmax_rows requires a 2-D tensor");
        let (rows, cols) = (self.shape().dim(0), self.shape().dim(1));
        (0..rows)
            .map(|r| {
                let row = &self.data()[r * cols..(r + 1) * cols];
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data().iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Rectified linear unit, elementwise.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Numerically stable softmax over the last axis of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "softmax_rows requires a 2-D tensor");
        let (rows, cols) = (self.shape().dim(0), self.shape().dim(1));
        let mut out = self.clone();
        for r in 0..rows {
            let row = &mut out.data_mut()[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                z += *v;
            }
            for v in row.iter_mut() {
                *v /= z;
            }
        }
        out
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// `true` when every corresponding element differs by at most `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data()
                .iter()
                .zip(other.data())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()])
    }

    #[test]
    fn arithmetic_ops() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[3.0, 4.0]);
        assert_eq!((&a + &b).data(), &[4.0, 6.0]);
        assert_eq!((&b - &a).data(), &[2.0, 2.0]);
        assert_eq!((&a * &b).data(), &[3.0, 8.0]);
        assert_eq!((&b / &a).data(), &[3.0, 2.0]);
        assert_eq!((-&a).data(), &[-1.0, -2.0]);
        assert_eq!((&a * 2.0).data(), &[2.0, 4.0]);
        assert_eq!((a + 1.0).data(), &[2.0, 3.0]);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = t(&[1.0, 2.0]);
        a.add_scaled(&t(&[10.0, 10.0]), 0.5);
        assert_eq!(a.data(), &[6.0, 7.0]);
    }

    #[test]
    fn reductions() {
        let a = t(&[1.0, -3.0, 2.0]);
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.max(), 2.0);
        assert_eq!(a.min(), -3.0);
        assert_eq!(a.argmax(), 2);
        assert!((a.norm() - 14.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_per_sample() {
        let m = Tensor::from_vec(vec![0.1, 0.9, 0.8, 0.2], &[2, 2]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // uniform logits -> uniform probabilities
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let m = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]);
        let s = m.softmax_rows();
        assert!(s.data().iter().all(|v| v.is_finite()));
        assert!(s.at(&[0, 1]) > s.at(&[0, 0]));
    }

    #[test]
    fn relu_and_clamp() {
        let a = t(&[-1.0, 0.5, 2.0]);
        assert_eq!(a.relu().data(), &[0.0, 0.5, 2.0]);
        assert_eq!(a.clamp(0.0, 1.0).data(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn allclose_tolerance() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[1.0005, 2.0]);
        assert!(a.allclose(&b, 1e-3));
        assert!(!a.allclose(&b, 1e-4));
        assert!(!a.allclose(&Tensor::zeros(&[3]), 1.0));
    }
}
