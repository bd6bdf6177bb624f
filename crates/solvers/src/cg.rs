//! Conjugate Gradient (paper Algorithm 2).

use crate::convergence::{ConvergenceCriteria, DivergenceReason, Monitor, Outcome, Verdict};
use crate::jacobi::check_square_system;
use crate::kernels::{Kernels, Phase};
use crate::report::SolveReport;
use crate::selection::SolverKind;
use acamar_sparse::{CsrMatrix, Scalar, SparseError};

/// Solves `A x = b` with the Conjugate Gradient method.
///
/// Requires `A` symmetric positive definite for guaranteed convergence
/// (paper Eq. 2–3). On indefinite matrices the method encounters
/// non-positive curvature `pᵀAp <= 0`, which is reported as a breakdown
/// divergence; on non-symmetric matrices it typically stagnates or grows.
///
/// # Errors
///
/// Returns [`SparseError`] for shape problems.
///
/// # Examples
///
/// ```
/// use acamar_solvers::{conjugate_gradient, ConvergenceCriteria, SoftwareKernels};
/// use acamar_sparse::generate;
///
/// let a = generate::poisson2d::<f64>(8, 8);
/// let b = vec![1.0; 64];
/// let mut k = SoftwareKernels::new();
/// let rep = conjugate_gradient(&a, &b, None, &ConvergenceCriteria::paper(), &mut k)?;
/// assert!(rep.converged());
/// # Ok::<(), acamar_sparse::SparseError>(())
/// ```
pub fn conjugate_gradient<T: Scalar, K: Kernels<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    x0: Option<&[T]>,
    criteria: &ConvergenceCriteria,
    kernels: &mut K,
) -> Result<SolveReport<T>, SparseError> {
    let n = check_square_system(a, b)?;
    let start_counts = kernels.counts();

    // --- Initialize (Algorithm 2 line 2): r0 = b - A x0, p0 = r0 ---
    kernels.set_phase(Phase::Initialize);
    let mut x = kernels.acquire_buffer(n);
    if let Some(x0) = x0 {
        x.copy_from_slice(x0);
    }
    let mut r = kernels.acquire_buffer(n);
    kernels.spmv(a, &x, &mut r); // r = A x0
    kernels.scale(-T::ONE, &mut r); // r = -A x0
    kernels.axpy(T::ONE, b, &mut r); // r = b - A x0
    let mut p = kernels.acquire_buffer(n);
    kernels.copy(&r, &mut p);
    let mut rr = kernels.dot(&r, &r);
    let b_norm = kernels.norm2(b).to_f64();
    let scale = if b_norm > 0.0 { b_norm } else { 1.0 };

    let mut ap = kernels.acquire_buffer(n);
    let mut monitor = Monitor::new(*criteria);
    let mut iterations = 0usize;

    // --- Loop (Algorithm 2 lines 3-9) ---
    kernels.set_phase(Phase::Loop);
    let outcome = loop {
        // Already converged at entry (e.g. exact initial guess)?
        if rr.to_f64().sqrt() / scale < criteria.tolerance {
            break Outcome::Converged;
        }
        kernels.begin_iteration(iterations);
        let p_ap = kernels.spmv_dot(a, &p, &mut ap, &p);
        iterations += 1;
        if !p_ap.is_finite() {
            monitor.observe(f64::NAN);
            break Outcome::Diverged(DivergenceReason::NonFinite);
        }
        if p_ap <= T::ZERO {
            // Non-positive curvature: A is not positive definite.
            monitor.observe(rr.to_f64().sqrt() / scale);
            break Outcome::Diverged(DivergenceReason::Breakdown(
                "non-positive curvature (matrix not positive definite)",
            ));
        }
        let alpha = rr / p_ap;
        // x += alpha p; r -= alpha A p, with the new r's norm on the way
        let rr_new = kernels.cg_update(alpha, &p, &ap, &mut x, &mut r);
        let rr_new = kernels.dot_carried(&r, &r, rr_new);
        let res = rr_new.to_f64().max(0.0).sqrt() / scale;
        kernels.observe_residual(monitor.history().len(), res);
        match monitor.observe(res) {
            Verdict::Continue => {}
            Verdict::Done(o) => break o,
        }
        let beta = rr_new / rr;
        rr = rr_new;
        kernels.xpby(&r, beta, &mut p); // p = r + beta p
    };

    kernels.release_buffer(r);
    kernels.release_buffer(p);
    kernels.release_buffer(ap);
    Ok(SolveReport {
        solver: SolverKind::ConjugateGradient,
        outcome,
        iterations,
        residual_history: monitor.into_history(),
        solution: x,
        counts: kernels.counts().since(&start_counts),
    })
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
    fn converges_on_poisson() {
        let a = generate::poisson2d::<f64>(10, 10);
        let x_true: Vec<f64> = (0..100).map(|i| ((i % 11) as f64) / 11.0).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let mut k = SoftwareKernels::new();
        let rep = conjugate_gradient(&a, &b, None, &criteria(), &mut k).unwrap();
        assert!(rep.converged(), "{:?}", rep.outcome);
        let err: f64 = rep
            .solution
            .iter()
            .zip(&x_true)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-3, "max error {err}");
    }

    #[test]
    fn converges_on_spd_where_jacobi_diverges() {
        let a = generate::jacobi_divergent_spd::<f64>(60, 0.7, 0, 0.0, 3);
        let b = vec![1.0; 60];
        let mut k = SoftwareKernels::new();
        let rep = conjugate_gradient(&a, &b, None, &criteria(), &mut k).unwrap();
        assert!(rep.converged());
    }

    #[test]
    fn breaks_down_on_indefinite_matrix() {
        let a = generate::indefinite_diagonally_dominant::<f64>(
            61,
            RowDistribution::Uniform { min: 2, max: 5 },
            1.4,
            7,
        );
        let b = vec![1.0; 61];
        let mut k = SoftwareKernels::new();
        let rep = conjugate_gradient(&a, &b, None, &criteria(), &mut k).unwrap();
        assert!(matches!(
            rep.outcome,
            Outcome::Diverged(DivergenceReason::Breakdown(_))
        ));
    }

    #[test]
    fn exact_initial_guess_converges_immediately() {
        let a = generate::poisson1d::<f64>(20);
        let x_true = vec![2.0; 20];
        let b = a.mul_vec(&x_true).unwrap();
        let mut k = SoftwareKernels::new();
        let rep = conjugate_gradient(&a, &b, Some(&x_true), &criteria(), &mut k).unwrap();
        assert!(rep.converged());
        assert_eq!(rep.iterations, 0);
    }

    #[test]
    fn cg_converges_in_at_most_n_iterations_in_exact_arithmetic() {
        // f64 is close enough to exact for a tiny well-conditioned system.
        let a = generate::poisson1d::<f64>(12);
        let b = vec![1.0; 12];
        let mut k = SoftwareKernels::new();
        let rep = conjugate_gradient(&a, &b, None, &criteria(), &mut k).unwrap();
        assert!(rep.converged());
        assert!(rep.iterations <= 12, "{} iterations", rep.iterations);
    }

    #[test]
    fn counts_one_spmv_per_iteration_plus_initialize() {
        let a = generate::poisson1d::<f64>(30);
        let b = vec![1.0; 30];
        let mut k = SoftwareKernels::new();
        let rep = conjugate_gradient(&a, &b, None, &criteria(), &mut k).unwrap();
        assert_eq!(rep.counts.spmv_calls as usize, rep.iterations + 1);
    }

    #[test]
    fn f32_reaches_paper_tolerance_on_well_conditioned_system() {
        let a = generate::poisson2d::<f32>(8, 8);
        let b = vec![1.0_f32; 64];
        let mut k = SoftwareKernels::new();
        let rep = conjugate_gradient(&a, &b, None, &criteria(), &mut k).unwrap();
        assert!(
            rep.converged(),
            "f32 CG should reach 1e-5: {:?}",
            rep.outcome
        );
    }
}
