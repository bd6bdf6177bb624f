//! Sparsity-pattern fingerprints.
//!
//! Acamar's two host-side decision loops — the Matrix Structure unit and
//! the Fine-Grained Reconfiguration unit — depend only on the matrix, and
//! the unroll schedule in particular depends only on its *pattern* of
//! stored entries. Two matrices with the same `(nrows, ncols, row_ptr,
//! col_idx)` therefore share a [`FineGrainedPlan`] verbatim, which is what
//! makes a plan cache keyed on the pattern sound for the Resource Decision
//! loop. The structure decision additionally looks at values (dominance,
//! symmetry of values), so pattern-keyed reuse of the full
//! [`AnalysisArtifacts`] is an engine-level policy: batch workloads
//! (time steps, parameter sweeps, multiple right-hand sides) re-solve with
//! *identical* matrices, where the reuse is exact.
//!
//! The digest is [`CsrPattern::digest`](acamar_sparse::CsrPattern::digest), which the pattern computes once
//! and keeps: a request whose matrix shares storage with one seen before
//! (the same matrix, a clone, or one built over its pattern) routes and
//! looks up its plan without reading its index arrays. Only fresh storage
//! pays the O(nnz) pass.
//!
//! [`FineGrainedPlan`]: acamar_core::FineGrainedPlan
//! [`AnalysisArtifacts`]: acamar_core::AnalysisArtifacts

#![forbid(unsafe_code)]

use acamar_sparse::{CsrMatrix, Scalar};

/// Key identifying one CSR sparsity pattern: dimensions, entry count, and
/// a 64-bit digest of the `row_ptr` and `col_idx` arrays.
///
/// The dimensions and `nnz` are stored alongside the digest so that a
/// (vanishingly unlikely) digest collision between patterns of different
/// shape can never alias, and so diagnostics can report what a cache
/// entry describes without retaining the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternFingerprint {
    /// Number of rows in the fingerprinted matrix.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Stored entries.
    pub nnz: usize,
    /// Digest of `row_ptr` then `col_idx`, each word widened to `u64`.
    pub hash: u64,
}

impl PatternFingerprint {
    /// Fingerprints the sparsity pattern of `a` (values are ignored).
    ///
    /// A pure function of the pattern: no seed, no process-local state,
    /// nothing that depends on the target's word size or byte order — the
    /// service's routing relies on every process that ever sees a pattern
    /// computing the same key.
    pub fn of<T: Scalar>(a: &CsrMatrix<T>) -> PatternFingerprint {
        let pattern = a.pattern();
        PatternFingerprint {
            nrows: pattern.nrows(),
            ncols: pattern.ncols(),
            nnz: pattern.nnz(),
            hash: pattern.digest(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_sparse::CooMatrix;

    fn csr(n: usize, triplets: &[(usize, usize, f64)]) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for &(i, j, v) in triplets {
            coo.push(i, j, v).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn identical_patterns_share_a_fingerprint_regardless_of_values() {
        let a = csr(3, &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0)]);
        let b = csr(3, &[(0, 0, 9.0), (1, 1, -4.0), (2, 0, 0.5)]);
        assert_eq!(PatternFingerprint::of(&a), PatternFingerprint::of(&b));
    }

    #[test]
    fn moving_an_entry_changes_the_fingerprint() {
        let a = csr(3, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let b = csr(3, &[(0, 0, 1.0), (1, 2, 1.0)]);
        assert_ne!(PatternFingerprint::of(&a), PatternFingerprint::of(&b));
    }

    #[test]
    fn shape_is_part_of_the_key() {
        let a = csr(3, &[(0, 0, 1.0)]);
        let b = csr(4, &[(0, 0, 1.0)]);
        assert_ne!(PatternFingerprint::of(&a), PatternFingerprint::of(&b));
        assert_eq!(PatternFingerprint::of(&a).nnz, 1);
    }

    #[test]
    fn fingerprint_is_scalar_type_independent() {
        let a = csr(3, &[(0, 0, 1.0), (2, 1, 1.0)]);
        let f32_view: CsrMatrix<f32> = a.cast();
        assert_eq!(
            PatternFingerprint::of(&a),
            PatternFingerprint::of(&f32_view)
        );
    }

    /// Collision regression: every distinct pattern on a small grid must
    /// produce a distinct fingerprint, including pairs that agree on
    /// shape and `nnz` and differ only in where the entries sit.
    #[test]
    fn distinct_small_patterns_never_collide() {
        let mut prints = Vec::new();
        // All 2^9 sparsity patterns of a 3x3 matrix.
        for mask in 0u32..512 {
            let mut coo = CooMatrix::new(3, 3);
            for bit in 0..9 {
                if mask & (1 << bit) != 0 {
                    coo.push(bit / 3, bit % 3, 1.0).unwrap();
                }
            }
            prints.push((mask, PatternFingerprint::of(&coo.to_csr())));
        }
        for (i, (ma, fa)) in prints.iter().enumerate() {
            for (mb, fb) in &prints[i + 1..] {
                assert_ne!(fa, fb, "patterns {ma:#b} and {mb:#b} collided");
            }
        }
    }
}
