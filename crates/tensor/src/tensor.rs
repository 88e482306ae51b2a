//! The dense `f32` tensor type.
//!
//! Execution in the reproduction is row-major 2-D: a [`Tensor`] is a
//! `[rows, cols]` matrix where rows are batch items and columns are
//! features. Rank-1 data is represented as a single row.

use crate::rng::Prng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major `f32` matrix.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Construct from raw parts. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "tensor data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { rows, cols, data }
    }

    /// A single row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Tensor::from_vec(1, cols, data)
    }

    /// All zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// All ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut t = Tensor::zeros(n, n);
        for i in 0..n {
            t.set(i, i, 1.0);
        }
        t
    }

    /// Element-wise construction.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Tensor { rows, cols, data }
    }

    /// I.i.d. Gaussian entries with the given standard deviation.
    pub fn gaussian(rows: usize, cols: usize, std_dev: f64, rng: &mut Prng) -> Self {
        Tensor::from_fn(rows, cols, |_, _| rng.gaussian_with(0.0, std_dev) as f32)
    }

    /// I.i.d. uniform entries in `[lo, hi)`.
    pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut Prng) -> Self {
        Tensor::from_fn(rows, cols, |_, _| rng.uniform_in(lo, hi))
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Raw data slice, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Apply a function element-wise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise combination of two same-shaped tensors.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "zip_with requires identical shapes"
        );
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Stack a batch of single-row tensors into one tensor. Panics if the
    /// rows disagree on width or the input is empty.
    pub fn stack_rows(rows: &[Tensor]) -> Tensor {
        assert!(!rows.is_empty(), "cannot stack zero rows");
        let cols = rows[0].cols;
        let mut data = Vec::with_capacity(rows.len() * cols);
        let mut total_rows = 0;
        for t in rows {
            assert_eq!(t.cols, cols, "stacked rows must share width");
            data.extend_from_slice(&t.data);
            total_rows += t.rows;
        }
        Tensor {
            rows: total_rows,
            cols,
            data,
        }
    }

    /// Extract a copy of row `r` as a 1-row tensor.
    pub fn row_tensor(&self, r: usize) -> Tensor {
        Tensor::from_vec(1, self.cols, self.row(r).to_vec())
    }

    /// Frobenius norm of the whole tensor.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Mean of all entries (0 for an empty tensor).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&x| x as f64).sum::<f64>() / self.data.len() as f64
    }

    /// Index of the maximum entry of row `r` (ties broken toward the lower
    /// index). This is the top-1 "classification" readout used throughout
    /// the agreement experiments (paper Figure 3).
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        let t = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 0), 4.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_panics_on_bad_length() {
        let _ = Tensor::from_vec(2, 3, vec![1.0; 5]);
    }

    #[test]
    fn identity_diagonal() {
        let i = Tensor::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_round_trips() {
        let t = Tensor::from_fn(3, 5, |r, c| (r * 10 + c) as f32);
        assert_eq!(t.transpose().transpose(), t);
        assert_eq!(t.transpose().get(4, 2), t.get(2, 4));
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Tensor::from_vec(1, 3, vec![10., 20., 30.]);
        assert_eq!(a.map(|x| x * 2.0).as_slice(), &[2., 4., 6.]);
        assert_eq!(a.zip_with(&b, |x, y| x + y).as_slice(), &[11., 22., 33.]);
    }

    #[test]
    #[should_panic(expected = "identical shapes")]
    fn zip_with_shape_mismatch_panics() {
        let a = Tensor::zeros(1, 3);
        let b = Tensor::zeros(3, 1);
        let _ = a.zip_with(&b, |x, _| x);
    }

    #[test]
    fn stack_rows_concatenates() {
        let a = Tensor::row_vector(vec![1., 2.]);
        let b = Tensor::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let s = Tensor::stack_rows(&[a, b]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(2), &[5., 6.]);
    }

    #[test]
    fn argmax_row_picks_largest() {
        let t = Tensor::from_vec(2, 4, vec![0.1, 0.9, 0.3, 0.2, 5.0, 1.0, 6.0, 2.0]);
        assert_eq!(t.argmax_row(0), 1);
        assert_eq!(t.argmax_row(1), 2);
    }

    #[test]
    fn frobenius_norm_of_unit_vectors() {
        let t = Tensor::from_vec(1, 4, vec![3.0, 4.0, 0.0, 0.0]);
        assert!((t.frobenius_norm() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mean_and_max_abs() {
        let t = Tensor::from_vec(1, 4, vec![-4.0, 1.0, 2.0, 1.0]);
        assert!((t.mean() - 0.0).abs() < 1e-9);
        assert_eq!(t.max_abs(), 4.0);
    }

    #[test]
    fn gaussian_tensor_is_seeded() {
        let mut r1 = Prng::seed_from_u64(1);
        let mut r2 = Prng::seed_from_u64(1);
        let a = Tensor::gaussian(4, 4, 1.0, &mut r1);
        let b = Tensor::gaussian(4, 4, 1.0, &mut r2);
        assert_eq!(a, b);
    }
}
