//! Jacobi iterative method (paper Algorithm 1).
//!
//! Matrix form: with `A = L + D + U`, iterate
//! `x_{j+1} = c - T x_j` where `T = D⁻¹(L + U)` and `c = D⁻¹ b`.
//! The `T x_j` product is the SpMV kernel the paper marks in blue.

use crate::convergence::{ConvergenceCriteria, DivergenceReason, Monitor, Outcome, Verdict};
use crate::kernels::{Kernels, Phase};
use crate::report::SolveReport;
use crate::selection::SolverKind;
use acamar_sparse::{CsrMatrix, Scalar, SparseError};

/// Solves `A x = b` with the Jacobi method.
///
/// Converges when `A` is strictly diagonally dominant (paper Eq. 1); may
/// diverge otherwise — divergence is reported through
/// [`Outcome::Diverged`], not an error.
///
/// A zero or missing diagonal entry makes the iteration undefined and is
/// reported as a breakdown divergence (the Solver Modifier treats it like
/// any other divergence and switches solvers).
///
/// # Errors
///
/// Returns [`SparseError`] for shape problems (non-square `A`, wrong `b`
/// length) — programmer errors, not numerical ones.
///
/// # Examples
///
/// ```
/// use acamar_solvers::{jacobi, ConvergenceCriteria, SoftwareKernels};
/// use acamar_sparse::generate;
///
/// let a = generate::diagonally_dominant::<f64>(
///     50, generate::RowDistribution::Uniform { min: 2, max: 5 }, 1.5, 7);
/// let b = vec![1.0; 50];
/// let mut k = SoftwareKernels::new();
/// let report = jacobi(&a, &b, None, &ConvergenceCriteria::paper(), &mut k)?;
/// assert!(report.converged());
/// # Ok::<(), acamar_sparse::SparseError>(())
/// ```
pub fn jacobi<T: Scalar, K: Kernels<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    x0: Option<&[T]>,
    criteria: &ConvergenceCriteria,
    kernels: &mut K,
) -> Result<SolveReport<T>, SparseError> {
    let n = check_square_system(a, b)?;
    let start_counts = kernels.counts();

    // --- Initialize unit work (Algorithm 1 lines 1-7) ---
    kernels.set_phase(Phase::Initialize);
    // One sweep reads the diagonal, inverts it, and fills
    // T = D^{-1}(L + U): all off-diagonal entries of A scaled by 1/d_i.
    let mut diag = kernels.acquire_buffer(n);
    let mut inv_d = kernels.acquire_buffer(n);
    let t_mat = kernels.derived_operand(a, &mut diag, &mut inv_d);
    if diag.contains(&T::ZERO) {
        kernels.release_operand(t_mat);
        kernels.release_buffer(diag);
        kernels.release_buffer(inv_d);
        return Ok(SolveReport {
            solver: SolverKind::Jacobi,
            outcome: Outcome::Diverged(DivergenceReason::Breakdown("zero diagonal")),
            iterations: 0,
            residual_history: Vec::new(),
            solution: x0.map(|x| x.to_vec()).unwrap_or_else(|| vec![T::ZERO; n]),
            counts: kernels.counts().since(&start_counts),
        });
    }

    // c = D^{-1} b
    let mut c = kernels.acquire_buffer(n);
    kernels.hadamard(&inv_d, b, &mut c);

    let b_norm = kernels.norm2(b).to_f64();
    let scale = if b_norm > 0.0 { b_norm } else { 1.0 };

    let mut x = kernels.acquire_buffer(n);
    if let Some(x0) = x0 {
        x.copy_from_slice(x0);
    }
    let mut tx = kernels.acquire_buffer(n);
    let mut x_new = kernels.acquire_buffer(n);

    // --- Solver loop (Algorithm 1 lines 8-10) ---
    kernels.set_phase(Phase::Loop);
    let mut monitor = Monitor::new(*criteria);
    let mut iterations = 0usize;
    let outcome = loop {
        kernels.begin_iteration(iterations);
        kernels.spmv(&t_mat, &x, &mut tx);
        // x_new = c - T x, and its residual without a second SpMV: by the
        // identity r = b - A x_new = D (x_new - x) shifted one step, one
        // diagonal scaling of the difference, reduced in the same pass.
        let r_normsq = kernels.jacobi_step(&c, &tx, &x, &diag, &mut x_new);
        let res = r_normsq.sqrt().to_f64() / scale;
        std::mem::swap(&mut x, &mut x_new);
        iterations += 1;
        kernels.observe_residual(monitor.history().len(), res);
        match monitor.observe(res) {
            Verdict::Continue => {}
            Verdict::Done(o) => break o,
        }
    };

    kernels.release_operand(t_mat);
    kernels.release_buffer(diag);
    kernels.release_buffer(inv_d);
    kernels.release_buffer(c);
    kernels.release_buffer(tx);
    kernels.release_buffer(x_new);
    Ok(SolveReport {
        solver: SolverKind::Jacobi,
        outcome,
        iterations,
        residual_history: monitor.into_history(),
        solution: x,
        counts: kernels.counts().since(&start_counts),
    })
}

/// Validates a square system, returning its dimension.
pub(crate) fn check_square_system<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &[T],
) -> Result<usize, SparseError> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::NotSquare {
            nrows: a.nrows(),
            ncols: a.ncols(),
        });
    }
    if b.len() != a.nrows() {
        return Err(SparseError::DimensionMismatch {
            expected: a.nrows(),
            found: b.len(),
            what: "right-hand-side length",
        });
    }
    Ok(a.nrows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::SoftwareKernels;
    use acamar_sparse::generate::{self, RowDistribution};

    fn criteria() -> ConvergenceCriteria {
        ConvergenceCriteria::paper().with_max_iterations(2000)
    }

    #[test]
    fn converges_on_strictly_dominant_matrix() {
        let a = generate::diagonally_dominant::<f64>(
            80,
            RowDistribution::Uniform { min: 2, max: 6 },
            1.6,
            21,
        );
        let b: Vec<f64> = (0..80).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut k = SoftwareKernels::new();
        let rep = jacobi(&a, &b, None, &criteria(), &mut k).unwrap();
        assert!(rep.converged(), "outcome: {:?}", rep.outcome);
        // verify the solution actually solves the system
        let r = a.mul_vec(&rep.solution).unwrap();
        let err: f64 = r.iter().zip(&b).map(|(u, v)| (u - v).abs()).sum::<f64>()
            / b.iter().map(|v| v.abs()).sum::<f64>();
        assert!(err < 1e-4, "relative error {err}");
    }

    #[test]
    fn diverges_on_jacobi_divergent_spd() {
        let a = generate::jacobi_divergent_spd::<f64>(60, 0.7, 0, 0.0, 3);
        let b = vec![1.0; 60];
        let mut k = SoftwareKernels::new();
        let crit = ConvergenceCriteria {
            setup_iterations: 20,
            ..criteria()
        };
        let rep = jacobi(&a, &b, None, &crit, &mut k).unwrap();
        assert!(!rep.converged());
    }

    #[test]
    fn zero_diagonal_is_breakdown_not_error() {
        let a =
            CsrMatrix::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0_f64, 1.0]).unwrap();
        let mut k = SoftwareKernels::new();
        let rep = jacobi(&a, &[1.0, 1.0], None, &criteria(), &mut k).unwrap();
        assert!(matches!(
            rep.outcome,
            Outcome::Diverged(DivergenceReason::Breakdown(_))
        ));
    }

    #[test]
    fn a_breakdown_returns_every_buffer_it_borrowed() {
        use crate::workspace::WorkspaceHandle;
        // A stored zero on the diagonal (the operand is built, then found
        // unusable) and a structurally missing one.
        let stored_zero = CsrMatrix::try_from_parts(
            3,
            3,
            vec![0, 2, 4, 6],
            vec![0, 1, 0, 1, 1, 2],
            vec![2.0_f64, 1.0, 1.0, 0.0, 1.0, 2.0],
        )
        .unwrap();
        let missing =
            CsrMatrix::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0_f64, 1.0]).unwrap();
        for a in [stored_zero, missing] {
            let b = vec![1.0; a.nrows()];
            let ws = WorkspaceHandle::new();
            let mut k = SoftwareKernels::new().with_workspace(ws.clone());
            let solve = |k: &mut SoftwareKernels| {
                let rep = jacobi(&a, &b, None, &criteria(), k).unwrap();
                assert!(matches!(
                    rep.outcome,
                    Outcome::Diverged(DivergenceReason::Breakdown(_))
                ));
            };
            solve(&mut k);
            let fresh = ws.stats().1;
            for _ in 0..100 {
                solve(&mut k);
            }
            assert_eq!(ws.stats().1, fresh, "a breakdown leaked a pooled buffer");
        }
    }

    #[test]
    fn shape_errors_are_errors() {
        let a = generate::poisson1d::<f64>(4);
        let mut k = SoftwareKernels::new();
        assert!(jacobi(&a, &[1.0; 3], None, &criteria(), &mut k).is_err());
    }

    #[test]
    fn respects_initial_guess() {
        let a = generate::diagonally_dominant::<f64>(30, RowDistribution::Constant(3), 2.0, 5);
        // exact solution as initial guess -> converge almost immediately
        let x_true = vec![1.0; 30];
        let b = a.mul_vec(&x_true).unwrap();
        let mut k = SoftwareKernels::new();
        let rep = jacobi(&a, &b, Some(&x_true), &criteria(), &mut k).unwrap();
        assert!(rep.converged());
        assert!(rep.iterations <= 3, "took {} iterations", rep.iterations);
    }

    #[test]
    fn counts_attribute_spmv_per_iteration() {
        let a = generate::diagonally_dominant::<f64>(40, RowDistribution::Constant(4), 1.8, 9);
        let b = vec![1.0; 40];
        let mut k = SoftwareKernels::new();
        let rep = jacobi(&a, &b, None, &criteria(), &mut k).unwrap();
        assert_eq!(rep.counts.spmv_calls as usize, rep.iterations);
        assert!(rep.counts.dense_flops > 0);
    }
}
