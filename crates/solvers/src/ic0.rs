//! Incomplete Cholesky factorization with zero fill-in (IC(0)).
//!
//! For a symmetric positive-definite matrix, `A ≈ L Lᵀ` restricted to
//! the lower-triangle pattern of `A` is the natural symmetric analogue
//! of ILU(0): half the storage, and the preconditioner of choice for the
//! Laplacian/stencil systems the new dataset generators produce (DESIGN
//! §17). Both factors are materialized (`L` and `Lᵀ` as CSR), so the
//! two applications per CG iteration each run as one serial
//! [`CompiledSptrsv`] substitution through the [`Kernels`] executor —
//! including the fabric twin, which prices the plan's level schedule in
//! its cycle model and carries the fault seam.
//!
//! Everything about the factors but their values is a function of `A`'s
//! pattern and lives in an [`Ic0Schedule`]; this type is the values half,
//! two buffers wrapped with the schedule's patterns. Executors keep the
//! schedule and the substitution plans in the pattern's memo and the
//! buffers in their workspace
//! ([`Kernels::ic0_factors`]), so a warm factorization writes values and
//! nothing else.

use crate::kernels::Kernels;
use acamar_sparse::{CompiledSptrsv, CsrMatrix, Ic0Refusal, Ic0Schedule, Scalar, SparseError};
use std::sync::Arc;

/// An IC(0) factorization `A ≈ L Lᵀ` on the lower-triangle pattern of `A`.
#[derive(Debug, Clone)]
pub struct Ic0<T> {
    l: CsrMatrix<T>,
    lt: CsrMatrix<T>,
    /// The substitution plans of the pattern's memo, when the factors were
    /// replayed from one ([`Kernels::ic0_factors`]); the solver compiles
    /// its own from the factors otherwise. Equality compares the factors
    /// only: a memo does not change their values.
    pub(crate) memoised_plans: Option<Arc<(CompiledSptrsv, CompiledSptrsv)>>,
}

impl<T: PartialEq> PartialEq for Ic0<T> {
    fn eq(&self, other: &Self) -> bool {
        self.l == other.l && self.lt == other.lt
    }
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
    /// held is overwritten), wrapped with the schedule's shared patterns.
    /// Bitwise [`Ic0::factor`].
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
        let wrap = |pattern: &acamar_sparse::CsrPattern, values| {
            CsrMatrix::from_pattern(pattern.clone(), values)
                .expect("fill sizes the values to the schedule's patterns")
        };
        Ok(Ic0 {
            l: wrap(schedule.lower(), lower),
            lt: wrap(schedule.upper(), upper),
            memoised_plans: None,
        })
    }

    /// Gives up the factors for their two value buffers (`L`'s, `Lᵀ`'s).
    pub fn into_values(self) -> [Vec<T>; 2] {
        [self.l.into_values(), self.lt.into_values()]
    }

    /// The lower-triangular factor `L` in substitution form: each row's
    /// diagonal slot holds the reciprocal pivot `1 / l_ii`, the value
    /// [`Kernels::sptrsv`] multiplies by. The off-diagonal entries are
    /// `L`'s own.
    pub fn lower(&self) -> &CsrMatrix<T> {
        &self.l
    }

    /// The transposed factor `Lᵀ` (upper triangular), in the same form as
    /// [`Ic0::lower`]: reciprocal pivots on the diagonal.
    pub fn upper(&self) -> &CsrMatrix<T> {
        &self.lt
    }

    /// Compiles level schedules for the two substitution passes. They
    /// depend on the factors' patterns only, so executors holding the
    /// pattern's memo compile them once, from the first factors replayed
    /// on it.
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledSptrsv`] compile errors (cannot occur for a
    /// successfully factored matrix).
    pub fn plans(&self) -> Result<(CompiledSptrsv, CompiledSptrsv), SparseError> {
        Ok((
            CompiledSptrsv::compile_lower(&self.l)?,
            CompiledSptrsv::compile_upper(&self.lt)?,
        ))
    }

    /// Applies the preconditioner: `z = (L Lᵀ)⁻¹ r` via forward then
    /// backward substitution through `kernels`. `tmp` is caller-provided
    /// scratch of length `n` so warm loops stay allocation-free.
    ///
    /// # Panics
    ///
    /// Panics (in the executor) if the plans do not match the factors or
    /// the vector lengths disagree.
    pub fn apply<K: Kernels<T>>(
        &self,
        kernels: &mut K,
        lower_plan: &CompiledSptrsv,
        upper_plan: &CompiledSptrsv,
        r: &[T],
        tmp: &mut [T],
        z: &mut [T],
    ) {
        kernels.sptrsv(lower_plan, &self.l, r, tmp);
        kernels.sptrsv(upper_plan, &self.lt, tmp, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::SoftwareKernels;
    use acamar_sparse::generate;

    /// `m` with each diagonal slot's reciprocal pivot turned back into
    /// the pivot: the factor as a matrix.
    fn with_pivots(m: &CsrMatrix<f64>) -> CsrMatrix<f64> {
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
        let l = with_pivots(ic.lower());
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
        let (lp, up) = ic.plans().unwrap();
        let n = a.nrows();
        let r: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let mut tmp = vec![0.0; n];
        let mut z = vec![0.0; n];
        let mut k = SoftwareKernels::new();
        ic.apply(&mut k, &lp, &up, &r, &mut tmp, &mut z);
        // L Lᵀ z should reproduce r.
        let mut ltz = vec![0.0; n];
        with_pivots(ic.upper()).mul_vec_into(&z, &mut ltz).unwrap();
        let mut back = vec![0.0; n];
        with_pivots(ic.lower())
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
        let (lp, up) = ic.plans().unwrap();
        assert_eq!(lp, CompiledSptrsv::compile_lower(&a).unwrap());
        assert_eq!(up, CompiledSptrsv::compile_upper(&a).unwrap());
    }

    #[test]
    fn factors_replayed_from_a_memo_equal_a_fresh_factor() {
        use crate::kernels::DerivedPlan;
        let a = generate::poisson2d::<f64>(5, 7);
        let memo = Arc::new(DerivedPlan::new(Vec::new()));
        let mut k = SoftwareKernels::new().with_derived_plan(memo);
        let replayed = k.ic0_factors(&a).unwrap();
        assert!(replayed.memoised_plans.is_some());
        assert_eq!(replayed, Ic0::factor(&a).unwrap());
    }
}
