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

use crate::kernels::Kernels;
use acamar_sparse::{CompiledSptrsv, CsrMatrix, Scalar, SparseError};

/// An IC(0) factorization `A ≈ L Lᵀ` on the lower-triangle pattern of `A`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ic0<T> {
    l: CsrMatrix<T>,
    lt: CsrMatrix<T>,
}

impl<T: Scalar> Ic0<T> {
    /// Factors the lower triangle of `a` (upper entries are ignored, so
    /// symmetric matrices need no pre-extraction).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for rectangular input and
    /// [`SparseError::ZeroDiagonal`] when a pivot is structurally missing
    /// or collapses to a non-positive value — on this pattern the
    /// incomplete Cholesky factorization does not exist (the classic
    /// breakdown callers handle by falling back to Jacobi scaling).
    pub fn factor(a: &CsrMatrix<T>) -> Result<Self, SparseError> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let n = a.nrows();
        // Extract tril(a) including the diagonal into fresh CSR arrays.
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        let mut diag_pos = vec![usize::MAX; n];
        row_ptr.push(0usize);
        for (i, dp) in diag_pos.iter_mut().enumerate() {
            let (rcols, rvals) = a.row(i);
            for (&c, &v) in rcols.iter().zip(rvals) {
                if c > i {
                    continue;
                }
                if c == i {
                    *dp = cols.len();
                }
                cols.push(c);
                vals.push(v);
            }
            if *dp == usize::MAX {
                return Err(SparseError::ZeroDiagonal { row: i });
            }
            row_ptr.push(cols.len());
        }
        // Left-looking IC(0): for each in-pattern entry (i, j), j <= i,
        //   l_ij = (a_ij - Σ_k l_ik l_jk) / l_jj          for j < i
        //   l_ii = sqrt(a_ii - Σ_k l_ik²)
        // with the correction sum running over the common pattern k < j.
        for i in 0..n {
            for idx in row_ptr[i]..row_ptr[i + 1] {
                let j = cols[idx];
                // Two-pointer merge of rows i and j over columns < j.
                let mut s = vals[idx];
                let mut pi = row_ptr[i];
                let mut pj = row_ptr[j];
                let i_end = row_ptr[i + 1];
                let j_end = row_ptr[j + 1];
                while pi < i_end && pj < j_end && cols[pi] < j && cols[pj] < j {
                    match cols[pi].cmp(&cols[pj]) {
                        std::cmp::Ordering::Less => pi += 1,
                        std::cmp::Ordering::Greater => pj += 1,
                        std::cmp::Ordering::Equal => {
                            s -= vals[pi] * vals[pj];
                            pi += 1;
                            pj += 1;
                        }
                    }
                }
                if j < i {
                    vals[idx] = s / vals[diag_pos[j]];
                } else if s.to_f64() > 0.0 {
                    vals[idx] = s.sqrt();
                } else {
                    return Err(SparseError::ZeroDiagonal { row: i });
                }
            }
        }
        let l = CsrMatrix::try_from_parts(n, n, row_ptr, cols, vals)?;
        let lt = l.transpose();
        Ok(Ic0 { l, lt })
    }

    /// The lower-triangular factor `L`.
    pub fn lower(&self) -> &CsrMatrix<T> {
        &self.l
    }

    /// The transposed factor `Lᵀ` (upper triangular).
    pub fn upper(&self) -> &CsrMatrix<T> {
        &self.lt
    }

    /// Compiles level schedules for the two substitution passes.
    ///
    /// When the factored matrix was symmetric these equal the plans
    /// compiled from the matrix itself, which is what lets the engine
    /// cache them per pattern fingerprint ahead of factorization.
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

    #[test]
    fn ic0_reconstructs_tridiagonal_exactly() {
        // Tridiagonal SPD matrices factor with zero fill, so L Lᵀ = A.
        let a = generate::poisson1d::<f64>(16);
        let ic = Ic0::factor(&a).unwrap();
        let l = ic.lower();
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
        ic.upper().mul_vec_into(&z, &mut ltz).unwrap();
        let mut back = vec![0.0; n];
        ic.lower().mul_vec_into(&ltz, &mut back).unwrap();
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
}
