//! Sparse matrix algebra: addition.
//!
//! Needed for building composite operators (shifted systems `A + σI`,
//! normal equations, preconditioner construction) on top of the CSR
//! substrate.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;

/// Computes `alpha * A + beta * B` (pattern union).
///
/// # Errors
///
/// Returns [`SparseError::DimensionMismatch`] if the shapes differ.
///
/// # Examples
///
/// ```
/// use acamar_sparse::{ops, CsrMatrix};
///
/// let a = CsrMatrix::<f64>::identity(3);
/// let shifted = ops::add(&a, &a, 1.0, 0.5)?; // 1.5 I
/// assert_eq!(shifted.get(1, 1), 1.5);
/// # Ok::<(), acamar_sparse::SparseError>(())
/// ```
pub fn add<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    alpha: T,
    beta: T,
) -> Result<CsrMatrix<T>, SparseError> {
    if a.nrows() != b.nrows() {
        return Err(SparseError::DimensionMismatch {
            expected: a.nrows(),
            found: b.nrows(),
            what: "row count",
        });
    }
    if a.ncols() != b.ncols() {
        return Err(SparseError::DimensionMismatch {
            expected: a.ncols(),
            found: b.ncols(),
            what: "column count",
        });
    }
    let mut row_ptr = Vec::with_capacity(a.nrows() + 1);
    let mut col_idx = Vec::with_capacity(a.nnz() + b.nnz());
    let mut values = Vec::with_capacity(a.nnz() + b.nnz());
    row_ptr.push(0usize);
    for i in 0..a.nrows() {
        let (ac, av) = a.row(i);
        let (bc, bv) = b.row(i);
        let (mut p, mut q) = (0usize, 0usize);
        // merge two sorted column lists
        while p < ac.len() || q < bc.len() {
            let take_a = q >= bc.len() || (p < ac.len() && ac[p] <= bc[q]);
            let take_b = p >= ac.len() || (q < bc.len() && bc[q] <= ac[p]);
            if take_a && take_b && ac[p] == bc[q] {
                col_idx.push(ac[p]);
                values.push(alpha * av[p] + beta * bv[q]);
                p += 1;
                q += 1;
            } else if take_a {
                col_idx.push(ac[p]);
                values.push(alpha * av[p]);
                p += 1;
            } else {
                col_idx.push(bc[q]);
                values.push(beta * bv[q]);
                q += 1;
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::try_from_parts(a.nrows(), a.ncols(), row_ptr, col_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{self, RowDistribution};

    #[test]
    fn add_merges_patterns() {
        let a = generate::poisson1d::<f64>(4);
        let i = CsrMatrix::identity(4);
        let s = add(&a, &i, 1.0, 3.0).unwrap();
        assert_eq!(s.get(0, 0), 5.0); // 2 + 3
        assert_eq!(s.get(0, 1), -1.0); // only in A
        assert_eq!(s.nnz(), a.nnz()); // identity pattern subsumed
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let a = CsrMatrix::<f64>::identity(3);
        let b = CsrMatrix::<f64>::identity(4);
        assert!(add(&a, &b, 1.0, 1.0).is_err());
    }

    #[test]
    fn add_matches_dense_reference() {
        let a = generate::random_pattern::<f64>(20, RowDistribution::Uniform { min: 1, max: 5 }, 3);
        let b = generate::random_pattern::<f64>(20, RowDistribution::Uniform { min: 1, max: 5 }, 4);
        let s = add(&a, &b, 2.0, -0.5).unwrap();
        for i in 0..20 {
            for j in 0..20 {
                let want = 2.0 * a.get(i, j) - 0.5 * b.get(i, j);
                assert!((s.get(i, j) - want).abs() < 1e-12);
            }
        }
    }
}
