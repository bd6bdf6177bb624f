//! Incomplete Cholesky factorization with zero fill-in (IC(0)).
//!
//! For a symmetric positive-definite matrix, `A ≈ L Lᵀ` restricted to
//! the lower-triangle pattern of `A` is the natural symmetric analogue
//! of ILU(0): half the storage, and the preconditioner of choice for the
//! Laplacian/stencil systems the new dataset generators produce (DESIGN
//! §17). Both factors are materialized, each in its substitution plan's
//! level order ([`LevelOrdered`]), so the two applications per CG
//! iteration each run as one [`CompiledSptrsv`] substitution through the
//! [`Kernels`] executor — including the fabric twin, which prices the
//! plan's level schedule in its cycle model and carries the fault seam.
//!
//! Everything about the factors but their values is a function of `A`'s
//! pattern and lives in an [`Ic0Schedule`] — the two plans among it;
//! this type is the values half, two buffers in the plans' layouts.
//! Executors keep the schedule in the pattern's memo and the buffers in
//! their workspace ([`Kernels::ic0_factors`]), so a warm factorization
//! writes values and nothing else.

use crate::kernels::Kernels;
use acamar_sparse::{
    CompiledSptrsv, CsrMatrix, Ic0Refusal, Ic0Schedule, LevelOrdered, Scalar, SparseError,
};
use std::sync::Arc;

/// An IC(0) factorization `A ≈ L Lᵀ` on the lower-triangle pattern of `A`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ic0<T> {
    l: LevelOrdered<T>,
    lt: LevelOrdered<T>,
    /// The schedule's substitution plans (`L`'s, `Lᵀ`'s): the layouts the
    /// factors are stored in.
    plans: Arc<(CompiledSptrsv, CompiledSptrsv)>,
}

impl<T: Scalar> Ic0<T> {
    /// Factors the lower triangle of `a` (upper entries are ignored, so
    /// symmetric matrices need no pre-extraction): builds the pattern's
    /// [`Ic0Schedule`] and replays it once. Callers that factor a pattern
    /// repeatedly keep the schedule and call [`Ic0::replay`].
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for rectangular input and
    /// [`SparseError::ZeroDiagonal`] when a pivot is structurally missing
    /// or is not finite and positive — on this pattern the
    /// incomplete Cholesky factorization does not exist (the classic
    /// breakdown callers handle by falling back to Jacobi scaling).
    pub fn factor(a: &CsrMatrix<T>) -> Result<Self, SparseError> {
        Self::factor_into(a, Vec::new(), Vec::new()).map_err(|(e, _)| e)
    }

    /// [`Ic0::factor`] into the two value buffers given, which come back
    /// with the error when there is no factor.
    pub(crate) fn factor_into(
        a: &CsrMatrix<T>,
        lower: Vec<T>,
        upper: Vec<T>,
    ) -> Result<Self, (SparseError, [Vec<T>; 2])> {
        let schedule = match Ic0Schedule::of(a) {
            Ok(schedule) => schedule,
            Err(e) => return Err((e, [lower, upper])),
        };
        Self::replay(&schedule, a, lower, upper).map_err(Self::breakdown)
    }

    /// A replay's refusal as [`Ic0::factor`] reports it, for callers that
    /// have ruled a stale schedule out.
    pub(crate) fn breakdown<B>((refusal, buffers): (Ic0Refusal, B)) -> (SparseError, B) {
        match refusal {
            Ic0Refusal::Breakdown { row } => (SparseError::ZeroDiagonal { row }, buffers),
            Ic0Refusal::Stale => unreachable!("the schedule was built for this matrix"),
        }
    }

    /// The per-matrix half of a factorization: `a`'s values along
    /// `schedule` into the two value buffers (resized to fit; what they
    /// held is overwritten), laid out in — and sharing — the schedule's
    /// plans. Bitwise [`Ic0::factor`].
    ///
    /// # Errors
    ///
    /// Hands the buffers back with the [`Ic0Refusal`]: `a` is not of the
    /// schedule's pattern, or a pivot is not finite and positive.
    pub fn replay(
        schedule: &Ic0Schedule,
        a: &CsrMatrix<T>,
        mut lower: Vec<T>,
        mut upper: Vec<T>,
    ) -> Result<Self, (Ic0Refusal, [Vec<T>; 2])> {
        if let Err(refusal) = schedule.fill(a, &mut lower, &mut upper) {
            return Err((refusal, [lower, upper]));
        }
        let wrap = |plan, values| {
            LevelOrdered::from_values(plan, values)
                .expect("fill sizes the values to the schedule's plans")
        };
        Ok(Ic0 {
            l: wrap(schedule.lower(), lower),
            lt: wrap(schedule.upper(), upper),
            plans: Arc::clone(schedule.plans()),
        })
    }

    /// Gives up the factors for their two value buffers (`L`'s, `Lᵀ`'s).
    pub fn into_values(self) -> [Vec<T>; 2] {
        [self.l.into_values(), self.lt.into_values()]
    }

    /// The lower-triangular factor `L` in substitution form, laid out in
    /// the order of [`Ic0::plans`]' first plan: each row's reciprocal
    /// pivot `1 / l_ii` in its diagonal slot, the value
    /// [`Kernels::sptrsv`] multiplies by, and `L`'s own off-diagonal
    /// entries. [`CompiledSptrsv::to_csr`] maps it back to rows and
    /// columns.
    pub fn lower(&self) -> &LevelOrdered<T> {
        &self.l
    }

    /// The transposed factor `Lᵀ` (upper triangular), in the same form as
    /// [`Ic0::lower`], laid out in the order of the second plan.
    pub fn upper(&self) -> &LevelOrdered<T> {
        &self.lt
    }

    /// The substitution plans of the two passes (`L`'s, `Lᵀ`'s): the
    /// schedule's, shared by every factor replayed from it.
    pub fn plans(&self) -> &(CompiledSptrsv, CompiledSptrsv) {
        &self.plans
    }

    /// Applies the preconditioner: `z = (L Lᵀ)⁻¹ r` via forward then
    /// backward substitution through `kernels`. `tmp` is caller-provided
    /// scratch of length `n` so warm loops stay allocation-free.
    ///
    /// # Panics
    ///
    /// Panics (in the executor) if the vector lengths disagree with the
    /// factors.
    pub fn apply<K: Kernels<T>>(&self, kernels: &mut K, r: &[T], tmp: &mut [T], z: &mut [T]) {
        let (lower, upper) = self.plans();
        kernels.sptrsv(lower, &self.l, r, tmp);
        kernels.sptrsv(upper, &self.lt, tmp, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::SoftwareKernels;
    use acamar_sparse::generate;

    /// `m`, laid out by `plan`, with each diagonal slot's reciprocal
    /// pivot turned back into the pivot: the factor as a matrix.
    fn with_pivots(plan: &CompiledSptrsv, m: &LevelOrdered<f64>) -> CsrMatrix<f64> {
        let m = plan.to_csr(m).unwrap();
        let mut t = m.clone();
        let row_of: Vec<usize> = (0..m.nrows())
            .flat_map(|i| std::iter::repeat(i).take(m.row_nnz(i)))
            .collect();
        let entries = t.values_mut().iter_mut().zip(m.col_idx()).zip(&row_of);
        for ((v, &c), &i) in entries {
            if c == i {
                *v = 1.0 / *v;
            }
        }
        t
    }

    #[test]
    fn ic0_reconstructs_tridiagonal_exactly() {
        // Tridiagonal SPD matrices factor with zero fill, so L Lᵀ = A.
        let a = generate::poisson1d::<f64>(16);
        let ic = Ic0::factor(&a).unwrap();
        let l = with_pivots(&ic.plans().0, ic.lower());
        let n = a.nrows();
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0;
                for k in 0..n {
                    sum += l.get(i, k) * l.get(j, k);
                }
                assert!((sum - a.get(i, j)).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn ic0_apply_inverts_l_lt() {
        let a = generate::poisson2d::<f64>(6, 6);
        let ic = Ic0::factor(&a).unwrap();
        let (lp, up) = ic.plans();
        let n = a.nrows();
        let r: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let mut tmp = vec![0.0; n];
        let mut z = vec![0.0; n];
        let mut k = SoftwareKernels::new();
        ic.apply(&mut k, &r, &mut tmp, &mut z);
        // L Lᵀ z should reproduce r.
        let mut ltz = vec![0.0; n];
        with_pivots(up, ic.upper())
            .mul_vec_into(&z, &mut ltz)
            .unwrap();
        let mut back = vec![0.0; n];
        with_pivots(lp, ic.lower())
            .mul_vec_into(&ltz, &mut back)
            .unwrap();
        for (bi, ri) in back.iter().zip(&r) {
            assert!((bi - ri).abs() < 1e-9);
        }
    }

    #[test]
    fn indefinite_pivot_breaks_down() {
        // -A has negative diagonal, so the first pivot sqrt fails.
        let mut a = generate::poisson1d::<f64>(4);
        for v in a.values_mut() {
            *v = -*v;
        }
        assert!(matches!(
            Ic0::factor(&a),
            Err(SparseError::ZeroDiagonal { row: 0 })
        ));
    }

    #[test]
    fn factor_plans_match_matrix_plans() {
        // Symmetric input: pattern of L == tril(A), so plans compiled
        // from A are interchangeable with plans compiled from L.
        let a = generate::poisson2d::<f64>(5, 7);
        let ic = Ic0::factor(&a).unwrap();
        let (lp, up) = ic.plans();
        assert_eq!(lp, &CompiledSptrsv::compile_lower(&a).unwrap());
        assert_eq!(up, &CompiledSptrsv::compile_upper(&a).unwrap());
    }

    #[test]
    fn factors_replayed_from_a_memo_equal_a_fresh_factor() {
        use crate::kernels::DerivedPlan;
        let a = generate::poisson2d::<f64>(5, 7);
        let memo = Arc::new(DerivedPlan::new(Vec::new()));
        let mut k = SoftwareKernels::new().with_derived_plan(Arc::clone(&memo));
        let replayed = k.ic0_factors(&a).unwrap();
        let memoised = memo.ic0_schedule().unwrap().plans();
        assert!(Arc::ptr_eq(&replayed.plans, memoised));
        assert_eq!(replayed, Ic0::factor(&a).unwrap());
    }
}
