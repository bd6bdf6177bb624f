//! The pattern half of incomplete Cholesky with zero fill-in.
//!
//! IC(0) factors `A ≈ L Lᵀ` on the lower-triangle pattern of `A`. Which
//! entries `L` and `Lᵀ` hold, where each sits, and which products
//! `l_ik · l_jk` every entry subtracts are functions of `A`'s *pattern*
//! alone, so they are worked out once ([`Ic0Schedule::of`]) and replayed
//! against each matrix of that pattern ([`Ic0Schedule::fill`]), which
//! then only reads and writes values (DESIGN §17).

use crate::csr::{CsrMatrix, CsrPattern};
use crate::error::SparseError;
use crate::scalar::Scalar;

/// Why [`Ic0Schedule::fill`] produced no factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ic0Refusal {
    /// The matrix is not of the schedule's pattern: its shape, its entry
    /// count, or a row whose diagonal is not where the schedule has it.
    Stale,
    /// The pivot of `row` is not finite and positive: on this pattern the
    /// incomplete factorization of these values does not exist.
    Breakdown {
        /// Row of the failed pivot.
        row: usize,
    },
}

/// Marks the end of the correction list: no entry has this slot, so the
/// replay's cursor stops there without a length test.
const END: u32 = u32::MAX;

/// Everything about an IC(0) factorization that does not depend on values.
///
/// * `L`'s pattern: row `i` of `tril(A)` is the first `below + 1` entries
///   of `A`'s sorted row, so the diagonal is each row's last slot.
/// * `Lᵀ`'s pattern, and for each of its entries the slot of `L` it copies.
/// * The elimination schedule: for every strictly-lower entry `(i, j)` the
///   slot pairs `(l_ik, l_jk)` with `k` in both rows, ascending `k` — the
///   products a left-looking factorization subtracts from `a_ij`, in the
///   order it subtracts them. (A diagonal entry needs no list: it
///   subtracts the squares of its own row, in slot order.)
///
/// One schedule serves every matrix of the pattern, in any scalar type.
/// `L` and `Lᵀ` keep patterns of their own instead of borrowing `A`'s:
/// that would serve structurally symmetric input only, and entries right
/// of the diagonal are documented as ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ic0Schedule {
    lower: CsrPattern,
    upper: CsrPattern,
    /// Per entry of `Lᵀ`, the slot of `L` holding its value.
    upper_source: Vec<u32>,
    /// `[slot_ij, slot_ik, slot_jk]`, ascending in `slot_ij` then `k`,
    /// closed by an [`END`] triple. Triples rather than per-entry offsets:
    /// the pools read 0–0.5 corrections per entry, so 12 bytes per
    /// correction undercut 4 bytes per entry plus 8 per correction.
    corrections: Vec<[u32; 3]>,
    source_nnz: usize,
}

impl Ic0Schedule {
    /// Schedules the factorization of `a`'s lower triangle (entries right
    /// of the diagonal are ignored, so a symmetric matrix needs no
    /// extraction). One pass over the pattern: counted prefixes, no search
    /// and no merge — common columns of rows `i` and `j` are found through
    /// a map from column to row `i`'s slot.
    ///
    /// # Errors
    ///
    /// [`SparseError::NotSquare`] for rectangular input,
    /// [`SparseError::ZeroDiagonal`] naming the first row without a stored
    /// diagonal entry, and [`SparseError::IndexOutOfBounds`] for a pattern
    /// of 2³² − 1 entries or more (slots are kept as `u32`).
    pub fn of<T: Scalar>(a: &CsrMatrix<T>) -> Result<Self, SparseError> {
        let n = a.nrows();
        if n != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: n,
                ncols: a.ncols(),
            });
        }
        if a.nnz() >= END as usize {
            return Err(SparseError::IndexOutOfBounds {
                index: a.nnz(),
                bound: END as usize,
                axis: "IC(0) schedule slot",
            });
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        // Exact for a structurally symmetric pattern; grows otherwise.
        let mut col_idx = Vec::with_capacity((a.nnz() + n) / 2);
        // Entries per column of `L`, shifted by one: `Lᵀ`'s row pointers
        // once summed.
        let mut upper_ptr = vec![0usize; n + 1];
        // Column → slot of the current row's entry in that column. A slot
        // left by an earlier row is smaller than the current row's first,
        // so the map is never cleared.
        let mut slot_of = vec![0u32; n];
        let mut corrections = Vec::new();
        row_ptr.push(0);
        for (i, cols, _) in a.iter_rows() {
            let below = cols.iter().filter(|&&c| c < i).count();
            if cols.get(below) != Some(&i) {
                return Err(SparseError::ZeroDiagonal { row: i });
            }
            let first = col_idx.len();
            col_idx.extend_from_slice(&cols[..=below]);
            for (slot, &c) in (first..).zip(&cols[..=below]) {
                slot_of[c] = slot as u32;
                upper_ptr[c + 1] += 1;
            }
            for (slot, &j) in (first..).zip(&cols[..below]) {
                // Row j of L without its diagonal: every k < j it stores.
                let others = row_ptr[j]..row_ptr[j + 1] - 1;
                for (slot_jk, &k) in others.clone().zip(&col_idx[others]) {
                    // A row with a lower entry is not row 0, so `first` is
                    // at least 1 and the map's initial zeros never pass.
                    if slot_of[k] as usize >= first {
                        corrections.push([slot as u32, slot_of[k], slot_jk as u32]);
                    }
                }
            }
            row_ptr.push(col_idx.len());
        }
        corrections.push([END; 3]);

        // Lᵀ: rows of L ascending land in each column ascending, so its
        // rows come out sorted.
        for c in 0..n {
            upper_ptr[c + 1] += upper_ptr[c];
        }
        let mut cursor = upper_ptr[..n].to_vec();
        let mut upper_cols = vec![0usize; col_idx.len()];
        let mut upper_source = vec![0u32; col_idx.len()];
        for (i, row) in row_ptr.windows(2).enumerate() {
            for slot in row[0]..row[1] {
                let at = &mut cursor[col_idx[slot]];
                upper_cols[*at] = i;
                upper_source[*at] = slot as u32;
                *at += 1;
            }
        }
        Ok(Ic0Schedule {
            lower: CsrPattern::from_raw_parts_unchecked(n, n, row_ptr, col_idx),
            upper: CsrPattern::from_raw_parts_unchecked(n, n, upper_ptr, upper_cols),
            upper_source,
            corrections,
            source_nnz: a.nnz(),
        })
    }

    /// The pattern of `L`: `tril(A)`, each row ending on its diagonal.
    pub fn lower(&self) -> &CsrPattern {
        &self.lower
    }

    /// The pattern of `Lᵀ`, each row starting on its diagonal.
    pub fn upper(&self) -> &CsrPattern {
        &self.upper
    }

    /// Products the schedule subtracts from strictly-lower entries.
    pub fn corrections(&self) -> usize {
        self.corrections.len() - 1
    }

    /// Bytes the schedule keeps alive.
    pub fn retained_bytes(&self) -> usize {
        let pattern = |p: &CsrPattern| 8 * (p.row_ptr().len() + p.nnz());
        pattern(&self.lower)
            + pattern(&self.upper)
            + 4 * self.upper_source.len()
            + 12 * self.corrections.len()
    }

    /// The values half: factors `a` along the schedule, writing `L`'s
    /// values into `lower` and `Lᵀ`'s into `upper` (both resized to fit;
    /// what they held is overwritten). Per entry the operations of the
    /// left-looking factorization in its order — `a_ij`, minus each
    /// `l_ik · l_jk` by ascending `k`, times `1 / l_jj` or under the root —
    /// so the factor is bitwise what a merge of rows `i` and `j` produces.
    ///
    /// The diagonal slot of each row holds the *reciprocal* pivot
    /// `1 / l_ii`, not `l_ii`: the form substitution multiplies by
    /// ([`crate::CompiledSptrsv::solve`]), and the one the off-diagonal
    /// updates of later rows read. A row pays one divide; its entries none.
    ///
    /// The schedule is trusted for the off-diagonal columns only as far as
    /// a compiled plan is (shape and entry count); per row, `a` must store
    /// column `i` where the schedule has the diagonal, which in a sorted
    /// row also fixes how many entries lie left of it. A schedule that
    /// fails is refused before the row is touched. What a stale schedule
    /// could still slip through is a wrong *preconditioner*, never a wrong
    /// answer: PCG carries its residual by recurrence on `A`.
    ///
    /// # Errors
    ///
    /// [`Ic0Refusal::Stale`] if `a` fails those checks and
    /// [`Ic0Refusal::Breakdown`] at the first pivot that is not finite and
    /// positive (`+∞` would store a reciprocal of 0 and silently zero its
    /// row of the preconditioner); the buffers then hold a partial factor.
    pub fn fill<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        lower: &mut Vec<T>,
        upper: &mut Vec<T>,
    ) -> Result<(), Ic0Refusal> {
        let n = self.lower.nrows();
        if (a.nrows(), a.ncols(), a.nnz()) != (n, n, self.source_nnz) {
            return Err(Ic0Refusal::Stale);
        }
        // Recycled buffers usually have the right length already.
        lower.resize(self.lower.nnz(), T::ZERO);
        upper.resize(self.lower.nnz(), T::ZERO);
        let (l_ptr, l_cols) = (self.lower.row_ptr(), self.lower.col_idx());
        let (a_cols, a_vals) = (a.col_idx(), a.values());
        let v = &mut lower[..];
        let mut next = 0usize;
        for (i, (row, src)) in l_ptr.windows(2).zip(a.row_ptr().windows(2)).enumerate() {
            let (first, diag) = (row[0], row[1] - 1);
            let src_diag = src[0] + (diag - first);
            if src_diag >= src[1] || a_cols[src_diag] != i {
                return Err(Ic0Refusal::Stale);
            }
            v[first..=diag].copy_from_slice(&a_vals[src[0]..=src_diag]);
            for slot in first..diag {
                let mut s = v[slot];
                while self.corrections[next][0] as usize == slot {
                    let [_, ik, jk] = self.corrections[next];
                    s -= v[ik as usize] * v[jk as usize];
                    next += 1;
                }
                v[slot] = s * v[l_ptr[l_cols[slot] + 1] - 1];
            }
            let s = v[first..diag].iter().fold(v[diag], |s, &l| s - l * l);
            // The pivot must be finite and positive. `+∞` passes `> 0` and
            // leaves a reciprocal of 0, which is what rules it out: a finite
            // test on `s` beside the sign test made short-row fills up to
            // 15 % slower.
            let reciprocal = T::ONE / s.sqrt();
            if s.to_f64() > 0.0 && reciprocal != T::ZERO {
                v[diag] = reciprocal;
            } else {
                return Err(Ic0Refusal::Breakdown { row: i });
            }
        }
        for (u, &slot) in upper.iter_mut().zip(&self.upper_source) {
            *u = v[slot as usize];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn a_five_point_stencil_needs_no_correction_and_a_dense_block_does() {
        let a = generate::poisson2d::<f64>(6, 5);
        let s = Ic0Schedule::of(&a).unwrap();
        assert_eq!(s.lower().nnz(), (a.nnz() + a.nrows()) / 2);
        assert_eq!(s.corrections(), 0);
        // Dense 4x4: entry (i, j) subtracts one product per k < j.
        let mut dense = crate::CooMatrix::new(4, 4);
        for (i, j) in (0..4).flat_map(|i| (0..4).map(move |j| (i, j))) {
            dense.push(i, j, if i == j { 8.0 } else { 1.0 }).unwrap();
        }
        let dense = dense.to_csr();
        let s = Ic0Schedule::of(&dense).unwrap();
        assert_eq!(s.lower().nnz(), 10);
        // (2,1): k=0; (3,1): k=0; (3,2): k=0,1.
        assert_eq!(s.corrections(), 4);
        assert_eq!(s.upper().row_ptr(), &[0, 4, 7, 9, 10]);
        assert_eq!(s.upper().col_idx(), &[0, 1, 2, 3, 1, 2, 3, 2, 3, 3]);
    }

    #[test]
    fn fill_refuses_another_pattern_and_reports_the_breakdown_row() {
        let a = generate::poisson1d::<f64>(6);
        let s = Ic0Schedule::of(&a).unwrap();
        let (mut l, mut u) = (Vec::new(), Vec::new());
        assert_eq!(s.fill(&a, &mut l, &mut u), Ok(()));
        assert_eq!((l.len(), u.len()), (11, 11));
        // The diagonal slot holds the reciprocal pivot, in both factors.
        assert_eq!(l[0], 1.0 / 2.0_f64.sqrt());
        assert_eq!(u[0], l[0]);
        // l_10 = a_10 · (1 / l_00), and a_10 = −1.
        assert_eq!(l[1], -l[0]);
        // Another shape, and the same shape with another entry count.
        let other = generate::poisson1d::<f64>(7);
        assert_eq!(s.fill(&other, &mut l, &mut u), Err(Ic0Refusal::Stale));
        let diagonal = CsrMatrix::<f64>::identity(6);
        assert_eq!(s.fill(&diagonal, &mut l, &mut u), Err(Ic0Refusal::Stale));
        // Negated: the first pivot is negative.
        let negated = a.scale(-1.0);
        assert_eq!(
            s.fill(&negated, &mut l, &mut u),
            Err(Ic0Refusal::Breakdown { row: 0 })
        );
    }

    /// `diag(4, pivot)`: row 1's pivot is `pivot` itself.
    fn fill_with_second_pivot(pivot: f64) -> (Result<(), Ic0Refusal>, Vec<f64>) {
        let a =
            CsrMatrix::try_from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![4.0, pivot]).unwrap();
        let (mut l, mut u) = (Vec::new(), Vec::new());
        let outcome = Ic0Schedule::of(&a).unwrap().fill(&a, &mut l, &mut u);
        (outcome, l)
    }

    #[test]
    fn a_pivot_that_is_not_finite_and_positive_is_a_breakdown() {
        for pivot in [f64::INFINITY, f64::NAN, 0.0, -3.0, f64::NEG_INFINITY] {
            assert_eq!(
                fill_with_second_pivot(pivot).0,
                Err(Ic0Refusal::Breakdown { row: 1 }),
                "pivot {pivot}"
            );
        }
    }

    #[test]
    fn a_subnormal_pivot_still_factors_to_a_finite_reciprocal() {
        let pivot = 5e-324_f64;
        assert!(pivot > 0.0 && !pivot.is_normal());
        let (outcome, l) = fill_with_second_pivot(pivot);
        assert_eq!(outcome, Ok(()));
        assert_eq!(l, [0.5, 1.0 / pivot.sqrt()]);
        assert!(l[1].is_finite());
    }

    #[test]
    fn of_names_the_first_row_without_a_diagonal_and_rejects_rectangles() {
        let holed =
            CsrMatrix::try_from_parts(3, 3, vec![0, 1, 2, 3], vec![0, 0, 2], vec![1.0_f64; 3])
                .unwrap();
        assert_eq!(
            Ic0Schedule::of(&holed),
            Err(SparseError::ZeroDiagonal { row: 1 })
        );
        let wide = CsrMatrix::<f64>::try_from_parts(2, 3, vec![0; 3], vec![], vec![]).unwrap();
        assert_eq!(
            Ic0Schedule::of(&wide),
            Err(SparseError::NotSquare { nrows: 2, ncols: 3 })
        );
    }
}
