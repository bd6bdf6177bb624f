//! The pattern half of incomplete Cholesky with zero fill-in.
//!
//! IC(0) factors `A ≈ L Lᵀ` on the lower-triangle pattern of `A`. Which
//! entries `L` and `Lᵀ` hold, where each sits, and which products
//! `l_ik · l_jk` every entry subtracts are functions of `A`'s *pattern*
//! alone, so they are worked out once ([`Ic0Schedule::of`]) and replayed
//! against each matrix of that pattern ([`Ic0Schedule::fill`]), which
//! then only reads and writes values (DESIGN §7).

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::sptrsv::{CompiledSptrsv, Triangle};
use std::sync::Arc;

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
/// * The substitution plans of `L` (`tril(A)`) and `Lᵀ`
///   ([`CompiledSptrsv`]). Their level orders are the factors' value
///   layouts ([`crate::LevelOrdered`]): the factorization eliminates
///   straight into them, so a substitution reads its operand in the order
///   it walks.
/// * Each row's position in `L`'s level order, and for each value of
///   `Lᵀ`'s layout the slot of `L`'s it copies.
/// * The elimination schedule: for every strictly-lower entry `(i, j)` the
///   slot pairs `(l_ik, l_jk)` with `k` in both rows, ascending `k` — the
///   products a left-looking factorization subtracts from `a_ij`, in the
///   order it subtracts them. (A diagonal entry needs no list: it
///   subtracts the squares of its own row, in stored order.)
///
/// One schedule serves every matrix of the pattern, in any scalar type.
/// `Lᵀ`'s plan is built from `L`'s pattern, not from `A`'s upper
/// triangle: that would serve structurally symmetric input only, and
/// entries right of the diagonal are documented as ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ic0Schedule {
    plans: Arc<(CompiledSptrsv, CompiledSptrsv)>,
    /// Per row, its position in `L`'s level order.
    position: Vec<u32>,
    /// Per value of `Lᵀ`'s layout, the slot of `L`'s holding it.
    upper_source: Vec<u32>,
    /// `[slot_ij, slot_ik, slot_jk]` in `L`'s layout, in elimination order
    /// (by row, then entry, then `k`), closed by an [`END`] triple.
    /// Triples rather than per-entry offsets: the pools read 0–0.5
    /// corrections per entry, so 12 bytes per correction undercut 4 bytes
    /// per entry plus 8 per correction.
    corrections: Vec<[u32; 3]>,
    source_nnz: usize,
}

impl Ic0Schedule {
    /// Schedules the factorization of `a`'s lower triangle (entries right
    /// of the diagonal are ignored, so a symmetric matrix needs no
    /// extraction). One pass over the pattern — counted prefixes, no search
    /// and no merge: common columns of rows `i` and `j` are found through
    /// a map from column to row `i`'s slot — that also levels the rows of
    /// both factors; then the two plans in level order, and one more pass
    /// that writes their columns and renumbers every slot into the
    /// layouts.
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
        // `L`'s pattern in natural order, the corrections in its slots, and
        // the two plans' levels and dependency counts: row `i` of `L`
        // waits on the rows it stores, row `j` of `Lᵀ` on every row of `L`
        // that stores column `j`.
        let mut row_ptr = Vec::with_capacity(n + 1);
        // Exact for a structurally symmetric pattern; grows otherwise.
        let mut col_idx = Vec::with_capacity((a.nnz() + n) / 2);
        let (mut lower_level, mut lower_deps) = (vec![0u32; n], vec![0u32; n]);
        let (mut upper_level, mut upper_deps) = (vec![0u32; n], vec![0u32; n]);
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
            }
            for (slot, &j) in (first..).zip(&cols[..below]) {
                lower_level[i] = lower_level[i].max(lower_level[j] + 1);
                upper_deps[j] += 1;
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
            lower_deps[i] = below as u32;
            row_ptr.push(col_idx.len());
        }
        corrections.push([END; 3]);
        for i in (0..n).rev() {
            for &j in &col_idx[row_ptr[i]..row_ptr[i + 1] - 1] {
                upper_level[j] = upper_level[j].max(upper_level[i] + 1);
            }
        }
        let (mut lower, position) =
            CompiledSptrsv::with_levels(Triangle::Lower, &lower_level, &lower_deps);
        let (mut upper, upper_position) =
            CompiledSptrsv::with_levels(Triangle::Upper, &upper_level, &upper_deps);

        // One pass over `L` in natural order writes both plans' columns —
        // rows of `L` ascending land in each row of `Lᵀ` ascending — and
        // numbers every slot into the layouts: `L`'s for the corrections,
        // `L`'s again as the source of each value of `Lᵀ`'s.
        let mut to_layout = vec![0u32; col_idx.len()];
        let mut upper_source = vec![0u32; col_idx.len()];
        let mut upper_next: Vec<usize> = upper_position
            .iter()
            .map(|&k| upper.span(k as usize).start)
            .collect();
        for (i, row) in row_ptr.windows(2).enumerate() {
            let (k, diag) = (position[i] as usize, row[1] - 1);
            for (natural, laid) in (row[0]..diag).zip(lower.span(k)) {
                let j = col_idx[natural];
                lower.cols_mut()[laid] = j as u32;
                to_layout[natural] = laid as u32;
                let at = &mut upper_next[j];
                upper.cols_mut()[*at] = i as u32;
                upper_source[*at] = laid as u32;
                *at += 1;
            }
            let pivot = (lower.pivots_at() + k) as u32;
            to_layout[diag] = pivot;
            upper_source[upper.pivots_at() + upper_position[i] as usize] = pivot;
        }
        for slot in corrections.iter_mut().flatten().filter(|s| **s != END) {
            *slot = to_layout[*slot as usize];
        }
        debug_assert!(lower.walks_by_level(&lower_level) && upper.walks_by_level(&upper_level));
        Ok(Ic0Schedule {
            plans: Arc::new((lower, upper)),
            position,
            upper_source,
            corrections,
            source_nnz: a.nnz(),
        })
    }

    /// The substitution plan of `L`: `tril(A)`'s pattern, level-ordered.
    pub fn lower(&self) -> &CompiledSptrsv {
        &self.plans.0
    }

    /// The substitution plan of `Lᵀ`.
    pub fn upper(&self) -> &CompiledSptrsv {
        &self.plans.1
    }

    /// Both plans (`L`'s, `Lᵀ`'s), shared with every factor replayed from
    /// the schedule.
    pub fn plans(&self) -> &Arc<(CompiledSptrsv, CompiledSptrsv)> {
        &self.plans
    }

    /// Products the schedule subtracts from strictly-lower entries.
    pub fn corrections(&self) -> usize {
        self.corrections.len() - 1
    }

    /// Bytes the schedule keeps alive: the two plans, the level positions,
    /// the source slots of `Lᵀ` and the correction triples.
    pub fn retained_bytes(&self) -> usize {
        self.lower().retained_bytes()
            + self.upper().retained_bytes()
            + 4 * (self.position.len() + self.upper_source.len())
            + 12 * self.corrections.len()
    }

    /// The values half: factors `a` along the schedule, writing `L`'s
    /// values into `lower` and `Lᵀ`'s into `upper`, each in its plan's
    /// level-ordered layout ([`crate::LevelOrdered`]; both resized to fit,
    /// what they held is overwritten). Rows are eliminated in natural
    /// order, and per entry the operations of the left-looking
    /// factorization in its order — `a_ij`, minus each `l_ik · l_jk` by
    /// ascending `k`, times `1 / l_jj` or under the root — so every value
    /// is bitwise what a merge of rows `i` and `j` produces, and a
    /// breakdown names the same row; only where each value is stored
    /// differs.
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
        let plan = self.lower();
        let n = plan.nrows();
        if (a.nrows(), a.ncols(), a.nnz()) != (n, n, self.source_nnz) {
            return Err(Ic0Refusal::Stale);
        }
        // Recycled buffers usually have the right length already.
        lower.resize(plan.tri_nnz(), T::ZERO);
        upper.resize(plan.tri_nnz(), T::ZERO);
        let (cols, pivots) = (plan.cols(), plan.pivots_at());
        let pivot_of = |row: usize| pivots + self.position[row] as usize;
        let (a_cols, a_vals) = (a.col_idx(), a.values());
        let v = &mut lower[..];
        let mut next = 0usize;
        for (i, (src, &k)) in a.row_ptr().windows(2).zip(&self.position).enumerate() {
            let (span, diag) = (plan.span(k as usize), pivots + k as usize);
            let src_diag = src[0] + span.len();
            if src_diag >= src[1] || a_cols[src_diag] != i {
                return Err(Ic0Refusal::Stale);
            }
            v[span.clone()].copy_from_slice(&a_vals[src[0]..src_diag]);
            v[diag] = a_vals[src_diag];
            for slot in span.clone() {
                let mut s = v[slot];
                while self.corrections[next][0] as usize == slot {
                    let [_, ik, jk] = self.corrections[next];
                    s -= v[ik as usize] * v[jk as usize];
                    next += 1;
                }
                v[slot] = s * v[pivot_of(cols[slot] as usize)];
            }
            let s = v[span].iter().fold(v[diag], |s, &l| s - l * l);
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

    /// `values` in `plan`'s layout, back in natural CSR form.
    fn natural(plan: &CompiledSptrsv, values: &[f64]) -> CsrMatrix<f64> {
        let laid = crate::LevelOrdered::from_values(plan, values.to_vec()).unwrap();
        plan.to_csr(&laid).unwrap()
    }

    #[test]
    fn a_five_point_stencil_needs_no_correction_and_a_dense_block_does() {
        let a = generate::poisson2d::<f64>(6, 5);
        let s = Ic0Schedule::of(&a).unwrap();
        assert_eq!(s.lower().tri_nnz(), (a.nnz() + a.nrows()) / 2);
        assert_eq!(s.corrections(), 0);
        // The plans are the matrix's own: L's pattern is tril(A), and Lᵀ's
        // is triu(A) for a symmetric pattern.
        assert_eq!(s.lower(), &CompiledSptrsv::compile_lower(&a).unwrap());
        assert_eq!(s.upper(), &CompiledSptrsv::compile_upper(&a).unwrap());
        // Dense 4x4: entry (i, j) subtracts one product per k < j.
        let mut dense = crate::CooMatrix::new(4, 4);
        for (i, j) in (0..4).flat_map(|i| (0..4).map(move |j| (i, j))) {
            dense.push(i, j, if i == j { 8.0 } else { 1.0 }).unwrap();
        }
        let dense = dense.to_csr();
        let s = Ic0Schedule::of(&dense).unwrap();
        assert_eq!(s.lower().tri_nnz(), 10);
        // (2,1): k=0; (3,1): k=0; (3,2): k=0,1.
        assert_eq!(s.corrections(), 4);
        let (mut l, mut u) = (Vec::new(), Vec::new());
        s.fill(&dense, &mut l, &mut u).unwrap();
        let upper = natural(s.upper(), &u);
        assert_eq!(upper.row_ptr(), &[0, 4, 7, 9, 10]);
        assert_eq!(upper.col_idx(), &[0, 1, 2, 3, 1, 2, 3, 2, 3, 3]);
        assert_eq!(upper, natural(s.lower(), &l).transpose());
    }

    #[test]
    fn fill_refuses_another_pattern_and_reports_the_breakdown_row() {
        let a = generate::poisson1d::<f64>(6);
        let s = Ic0Schedule::of(&a).unwrap();
        let (mut l, mut u) = (Vec::new(), Vec::new());
        assert_eq!(s.fill(&a, &mut l, &mut u), Ok(()));
        assert_eq!((l.len(), u.len()), (11, 11));
        let (lower, upper) = (natural(s.lower(), &l), natural(s.upper(), &u));
        // The diagonal slot holds the reciprocal pivot, in both factors.
        assert_eq!(lower.values()[0], 1.0 / 2.0_f64.sqrt());
        assert_eq!(upper.values()[0], lower.values()[0]);
        // l_10 = a_10 · (1 / l_00), and a_10 = −1.
        assert_eq!(lower.values()[1], -lower.values()[0]);
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
        // No dependencies: the layout is the two pivots, in row order.
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
