//! Dense matrix support for verification.
//!
//! Iterative solvers in this workspace are validated against direct dense
//! solves (Gaussian elimination with partial pivoting) on small systems;
//! this module provides just enough dense linear algebra for that purpose.

use crate::error::SparseError;
use crate::scalar::Scalar;
use std::ops::{Index, IndexMut};

/// A row-major dense matrix.
///
/// # Examples
///
/// ```
/// use acamar_sparse::DenseMatrix;
///
/// let mut a = DenseMatrix::<f64>::zeros(2, 2);
/// a[(0, 0)] = 2.0;
/// a[(1, 1)] = 4.0;
/// let x = a.solve(&[2.0, 8.0])?;
/// assert_eq!(x, vec![1.0, 2.0]);
/// # Ok::<(), acamar_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// A zero-filled `nrows x ncols` matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![T::ZERO; nrows * ncols],
        }
    }

    /// Builds from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if
    /// `data.len() != nrows * ncols`.
    pub fn from_row_major(nrows: usize, ncols: usize, data: Vec<T>) -> Result<Self, SparseError> {
        if data.len() != nrows * ncols {
            return Err(SparseError::DimensionMismatch {
                expected: nrows * ncols,
                found: data.len(),
                what: "dense data length",
            });
        }
        Ok(DenseMatrix { nrows, ncols, data })
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// A view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.ncols, "vector length mismatch");
        (0..self.nrows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(x)
                    .fold(T::ZERO, |acc, (&a, &b)| acc + a * b)
            })
            .collect()
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// Intended for verification on small systems; O(n³).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for non-square `A`,
    /// [`SparseError::DimensionMismatch`] for a wrong-length `b`, and
    /// [`SparseError::ZeroDiagonal`] when the matrix is (numerically)
    /// singular.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, SparseError> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        if b.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                expected: self.nrows,
                found: b.len(),
                what: "right-hand-side length",
            });
        }
        let n = self.nrows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for k in 0..n {
            // partial pivot
            let mut p = k;
            let mut best = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best == T::ZERO {
                return Err(SparseError::ZeroDiagonal { row: k });
            }
            if p != k {
                for j in 0..n {
                    a.swap(k * n + j, p * n + j);
                }
                x.swap(k, p);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let f = a[i * n + k] / pivot;
                if f == T::ZERO {
                    continue;
                }
                for j in k..n {
                    let v = a[k * n + j];
                    a[i * n + j] -= f * v;
                }
                let xk = x[k];
                x[i] -= f * xk;
            }
        }
        // back substitution
        for k in (0..n).rev() {
            let mut acc = x[k];
            for j in (k + 1)..n {
                acc -= a[k * n + j] * x[j];
            }
            x[k] = acc / a[k * n + k];
        }
        Ok(x)
    }
}

impl<T: Scalar> Index<(usize, usize)> for DenseMatrix<T> {
    type Output = T;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        assert!(i < self.nrows && j < self.ncols, "index out of bounds");
        &self.data[i * self.ncols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for DenseMatrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        assert!(i < self.nrows && j < self.ncols, "index out of bounds");
        &mut self.data[i * self.ncols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_checks_length() {
        assert!(DenseMatrix::from_row_major(2, 2, vec![1.0_f64; 3]).is_err());
        assert!(DenseMatrix::from_row_major(2, 2, vec![1.0_f64; 4]).is_ok());
    }

    #[test]
    fn identity_mul_is_identity() {
        let i = DenseMatrix::<f64>::identity(3);
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(i.mul_vec(&x), x);
    }

    #[test]
    fn solve_small_system() {
        // [3 1; 1 2] x = [9; 8] => x = [2; 3]
        let a = DenseMatrix::from_row_major(2, 2, vec![3.0, 1.0, 1.0, 2.0]).unwrap();
        let x = a.solve(&[9.0, 8.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero leading pivot forces a row swap.
        let a = DenseMatrix::from_row_major(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = a.solve(&[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn solve_detects_singularity() {
        let a = DenseMatrix::from_row_major(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(SparseError::ZeroDiagonal { .. })
        ));
    }

    #[test]
    fn solve_rejects_bad_shapes() {
        let a = DenseMatrix::<f64>::zeros(2, 3);
        assert!(matches!(
            a.solve(&[1.0, 1.0]),
            Err(SparseError::NotSquare { .. })
        ));
        let b = DenseMatrix::<f64>::identity(2);
        assert!(matches!(
            b.solve(&[1.0]),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_residual_is_small_on_random_like_system() {
        // Deterministic "pseudo-random" SPD-ish system.
        let n = 12;
        let mut a = DenseMatrix::<f64>::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = ((i * 31 + j * 17) % 13) as f64 / 13.0;
                a[(i, j)] = v;
            }
            a[(i, i)] += n as f64; // make well conditioned
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = a.solve(&b).unwrap();
        let r = a.mul_vec(&x);
        let err: f64 = r.iter().zip(&b).map(|(u, v)| (u - v).abs()).sum();
        assert!(err < 1e-9, "residual too large: {err}");
    }
}
