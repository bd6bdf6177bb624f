//! Symmetric permutations (reordering).
//!
//! The paper's related work includes reordering-based SpMV optimization
//! (reference \[39\]); for Acamar, sorting rows by population makes each
//! *set* of rows homogeneous, which tightens the fit of the per-set
//! unroll factor. This module provides validated symmetric permutations
//! `B = P A Pᵀ` and the NNZ-sorting permutation, so that study is
//! expressible (see the `ablation_reorder` bench).

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;

/// Validates that `perm` is a bijection on `0..n`.
fn validate_permutation(perm: &[usize], n: usize) -> Result<(), SparseError> {
    if perm.len() != n {
        return Err(SparseError::DimensionMismatch {
            expected: n,
            found: perm.len(),
            what: "permutation length",
        });
    }
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n {
            return Err(SparseError::IndexOutOfBounds {
                index: p,
                bound: n,
                axis: "row",
            });
        }
        if seen[p] {
            return Err(SparseError::InvalidStructure(format!(
                "permutation repeats index {p}"
            )));
        }
        seen[p] = true;
    }
    Ok(())
}

/// Applies the symmetric permutation `B = P A Pᵀ`, i.e.
/// `B[i][j] = A[perm[i]][perm[j]]`.
///
/// Solving `B y = P b` and un-permuting `y` yields the solution of
/// `A x = b` (see [`permute_vec`] / [`unpermute_vec`]).
///
/// # Errors
///
/// Returns [`SparseError::NotSquare`] for rectangular `A` and a
/// validation error if `perm` is not a bijection on the row indices.
pub fn permute_symmetric<T: Scalar>(
    a: &CsrMatrix<T>,
    perm: &[usize],
) -> Result<CsrMatrix<T>, SparseError> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::NotSquare {
            nrows: a.nrows(),
            ncols: a.ncols(),
        });
    }
    let n = a.nrows();
    validate_permutation(perm, n)?;
    let inv = invert_permutation(perm);
    let mut coo = CooMatrix::with_capacity(n, n, a.nnz());
    for (old_i, cols, vals) in a.iter_rows() {
        let new_i = inv[old_i];
        for (&old_j, &v) in cols.iter().zip(vals) {
            coo.push(new_i, inv[old_j], v).expect("indices in bounds");
        }
    }
    Ok(coo.to_csr())
}

/// The permutation sorting rows by ascending NNZ (stable: ties keep
/// their original order). `perm[i]` is the *original* index of the row
/// placed at position `i`.
pub fn permutation_by_row_nnz<T: Scalar>(a: &CsrMatrix<T>) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..a.nrows()).collect();
    perm.sort_by_key(|&i| a.row_nnz(i));
    perm
}

/// Inverts a permutation: `inv[perm[i]] = i`.
///
/// # Panics
///
/// Panics if `perm` contains an index `>= perm.len()` (use
/// [`permute_symmetric`]'s validation for untrusted input).
fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

/// Gathers `v` through `perm`: `out[i] = v[perm[i]]` (this is `P v`).
///
/// # Panics
///
/// Panics if lengths differ or an index is out of bounds.
pub fn permute_vec<T: Copy>(v: &[T], perm: &[usize]) -> Vec<T> {
    assert_eq!(v.len(), perm.len(), "length mismatch");
    perm.iter().map(|&p| v[p]).collect()
}

/// Scatters `v` back through `perm`: `out[perm[i]] = v[i]` (this is
/// `Pᵀ v`, the inverse of [`permute_vec`]).
///
/// # Panics
///
/// Panics if lengths differ or an index is out of bounds.
pub fn unpermute_vec<T: Copy + Default>(v: &[T], perm: &[usize]) -> Vec<T> {
    assert_eq!(v.len(), perm.len(), "length mismatch");
    let mut out = vec![T::default(); v.len()];
    for (i, &p) in perm.iter().enumerate() {
        out[p] = v[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{self, RowDistribution};

    #[test]
    fn identity_permutation_is_noop() {
        let a = generate::poisson2d::<f64>(4, 4);
        let id: Vec<usize> = (0..16).collect();
        assert_eq!(permute_symmetric(&a, &id).unwrap(), a);
    }

    #[test]
    fn permutation_round_trips() {
        let a = generate::random_pattern::<f64>(30, RowDistribution::Uniform { min: 1, max: 6 }, 5);
        let perm = permutation_by_row_nnz(&a);
        let b = permute_symmetric(&a, &perm).unwrap();
        // applying the inverse permutation restores A
        let back = permute_symmetric(&b, &invert_permutation(&perm)).unwrap();
        assert_eq!(back, a);
        // entry correspondence
        for i in 0..30 {
            for j in 0..30 {
                let inv = invert_permutation(&perm);
                assert_eq!(b.get(inv[i], inv[j]), a.get(i, j));
            }
        }
    }

    #[test]
    fn sorted_rows_are_monotone_in_nnz() {
        let a = generate::random_pattern::<f64>(
            50,
            RowDistribution::Bimodal {
                low: 2,
                high: 20,
                high_fraction: 0.3,
            },
            7,
        );
        let perm = permutation_by_row_nnz(&a);
        let b = permute_symmetric(&a, &perm).unwrap();
        for i in 1..50 {
            assert!(b.row_nnz(i) >= b.row_nnz(i - 1));
        }
    }

    #[test]
    fn permuted_solve_recovers_original_solution() {
        let a = generate::diagonally_dominant::<f64>(
            20,
            RowDistribution::Uniform { min: 2, max: 5 },
            1.6,
            3,
        );
        let b: Vec<f64> = (0..20).map(|i| ((i % 7) as f64) - 3.0).collect();
        let x_direct = a.to_dense().solve(&b).unwrap();

        let perm = permutation_by_row_nnz(&a);
        let ap = permute_symmetric(&a, &perm).unwrap();
        let bp = permute_vec(&b, &perm);
        let yp = ap.to_dense().solve(&bp).unwrap();
        let x = unpermute_vec(&yp, &perm);
        for (u, v) in x.iter().zip(&x_direct) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn vector_permutations_invert_each_other() {
        let v = vec![10.0, 20.0, 30.0, 40.0];
        let perm = vec![2usize, 0, 3, 1];
        let p = permute_vec(&v, &perm);
        assert_eq!(p, vec![30.0, 10.0, 40.0, 20.0]);
        assert_eq!(unpermute_vec(&p, &perm), v);
    }

    #[test]
    fn bad_permutations_are_rejected() {
        let a = generate::poisson1d::<f64>(4);
        assert!(permute_symmetric(&a, &[0, 1, 2]).is_err()); // short
        assert!(permute_symmetric(&a, &[0, 1, 2, 9]).is_err()); // out of range
        assert!(permute_symmetric(&a, &[0, 1, 1, 2]).is_err()); // repeat
        let rect = CsrMatrix::<f64>::try_from_parts(1, 2, vec![0, 1], vec![0], vec![1.0]).unwrap();
        assert!(permute_symmetric(&rect, &[0]).is_err());
    }
}
