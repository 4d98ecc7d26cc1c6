//! The naive reference loops every kernel is verified against: the
//! original single-threaded `Tensor` arithmetic, kept as the oracle for
//! `moss_tensor::Kernels`. Shared by the crate's unit tests (`backend.rs`
//! includes this file) and its integration tests.

#![allow(dead_code)]

use super::Tensor;

/// The oracle: plain i-k-j loops with the skip for zero coefficients
/// (circuit one-hot features are mostly zeros), and sequential
/// reductions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Naive;

impl Naive {
    /// `a × b`.
    pub fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
        let (m, k) = a.shape();
        let n = b.cols();
        let mut out = vec![0.0f32; m * n];
        for (i, out_row) in out.chunks_mut(n.max(1)).enumerate().take(m) {
            for (kk, &coeff) in a.data()[i * k..(i + 1) * k].iter().enumerate() {
                if coeff == 0.0 {
                    continue;
                }
                for (o, &bv) in out_row.iter_mut().zip(b.row_slice(kk)) {
                    *o += coeff * bv;
                }
            }
        }
        Tensor::from_vec(out, m, n)
    }

    /// `aᵀ × b` through an explicit transpose.
    pub fn matmul_at_b(&self, a: &Tensor, b: &Tensor) -> Tensor {
        self.matmul(&a.transpose(), b)
    }

    /// `a × bᵀ` through an explicit transpose.
    pub fn matmul_a_bt(&self, a: &Tensor, b: &Tensor) -> Tensor {
        self.matmul(a, &b.transpose())
    }

    /// Per-column sums, row by row.
    pub fn col_sums(&self, a: &Tensor) -> Vec<f32> {
        let mut out = vec![0.0f32; a.cols()];
        for r in 0..a.rows() {
            for (acc, &v) in out.iter_mut().zip(a.row_slice(r)) {
                *acc += v;
            }
        }
        out
    }

    /// Sum of all elements, left to right.
    pub fn sum(&self, a: &Tensor) -> f32 {
        a.data().iter().sum()
    }
}
