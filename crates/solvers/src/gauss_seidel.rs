//! Gauss-Seidel and Successive Over-Relaxation (SOR).
//!
//! The "relatively simple yet effective" stationary methods the paper
//! lists alongside Jacobi (Section II-B, Table I), implemented in the
//! style of Kasbah et al.'s reconfigurable-hardware SOR (PAPERS.md): the
//! sweep runs as a [`Kernels::sor_sweep`] executor primitive — so the
//! fabric twin models its cycles — and all scratch comes from the
//! executor's buffer pool, making warm solves allocation-free. SOR is a
//! first-class [`SolverKind`] choice: the rescue ladder's next-solver rung
//! reaches it once the three paper solvers are spent
//! ([`extended_fallback_order`](crate::extended_fallback_order)).
//!
//! The sweep itself is a strict serial dependence chain (each `x[i]`
//! reads the values updated earlier in the same sweep), so it executes
//! identical arithmetic on both determinism tiers; the tiers differ only
//! in the residual-norm reductions between sweeps.

use crate::convergence::{ConvergenceCriteria, DivergenceReason, Monitor, Outcome, Verdict};
use crate::jacobi::check_square_system;
use crate::kernels::{Kernels, Phase};
use crate::report::SolveReport;
use crate::selection::SolverKind;
use acamar_sparse::{CsrMatrix, Scalar, SparseError};

/// Solves `A x = b` with Gauss-Seidel (SOR with `omega = 1`).
///
/// Converges for strictly diagonally dominant or SPD matrices.
///
/// # Errors
///
/// Returns [`SparseError`] for shape problems.
pub fn gauss_seidel<T: Scalar, K: Kernels<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    x0: Option<&[T]>,
    criteria: &ConvergenceCriteria,
    kernels: &mut K,
) -> Result<SolveReport<T>, SparseError> {
    sor(a, b, x0, T::ONE, criteria, kernels).map(|mut r| {
        r.solver = SolverKind::GaussSeidel;
        r
    })
}

/// Solves `A x = b` with Successive Over-Relaxation.
///
/// `omega` in `(0, 2)` is the relaxation factor; `omega = 1` reduces to
/// Gauss-Seidel.
///
/// # Errors
///
/// Returns [`SparseError`] for shape problems.
///
/// # Panics
///
/// Panics if `omega` is not in `(0, 2)`.
///
/// # Examples
///
/// ```
/// use acamar_solvers::{sor, ConvergenceCriteria, SoftwareKernels};
/// use acamar_sparse::generate;
///
/// let a = generate::poisson1d::<f64>(30);
/// let b = vec![1.0; 30];
/// let mut k = SoftwareKernels::new();
/// let rep = sor(&a, &b, None, 1.5, &ConvergenceCriteria::paper(), &mut k)?;
/// assert!(rep.converged());
/// # Ok::<(), acamar_sparse::SparseError>(())
/// ```
pub fn sor<T: Scalar, K: Kernels<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    x0: Option<&[T]>,
    omega: T,
    criteria: &ConvergenceCriteria,
    kernels: &mut K,
) -> Result<SolveReport<T>, SparseError> {
    let w = omega.to_f64();
    assert!(w > 0.0 && w < 2.0, "omega must lie in (0, 2), got {w}");
    let n = check_square_system(a, b)?;
    let start_counts = kernels.counts();

    kernels.set_phase(Phase::Initialize);
    // Gather the diagonal into pooled scratch (no allocation on warm
    // solves), rejecting structurally-missing or zero pivots.
    let mut diag = kernels.acquire_buffer(n);
    let mut zero_diag = false;
    for (i, slot) in diag.iter_mut().enumerate() {
        let (cols, vals) = a.row(i);
        let mut d = T::ZERO;
        for (&c, &v) in cols.iter().zip(vals) {
            if c == i {
                d = v;
            }
        }
        if d == T::ZERO {
            zero_diag = true;
        }
        *slot = d;
    }
    if zero_diag {
        kernels.release_buffer(diag);
        return Ok(SolveReport {
            solver: SolverKind::Sor,
            outcome: Outcome::Diverged(DivergenceReason::Breakdown("zero diagonal")),
            iterations: 0,
            residual_history: Vec::new(),
            solution: x0.map(|x| x.to_vec()).unwrap_or_else(|| vec![T::ZERO; n]),
            counts: kernels.counts().since(&start_counts),
        });
    }

    let mut x = kernels.acquire_buffer(n);
    if let Some(x0) = x0 {
        x.copy_from_slice(x0);
    }
    let mut r = kernels.acquire_buffer(n);
    let b_norm = kernels.norm2(b).to_f64();
    let scale = if b_norm > 0.0 { b_norm } else { 1.0 };

    let mut monitor = Monitor::new(*criteria);
    let mut iterations = 0usize;

    kernels.set_phase(Phase::Loop);
    let outcome = loop {
        kernels.begin_iteration(iterations);
        kernels.sor_sweep(a, &diag, omega, b, &mut x);
        iterations += 1;

        // True residual r = b - A x (an extra SpMV-equivalent pass, as in
        // the other stationary solvers' monitoring).
        kernels.spmv(a, &x, &mut r);
        kernels.scale(-T::ONE, &mut r);
        kernels.axpy(T::ONE, b, &mut r);
        let res = kernels.norm2(&r).to_f64() / scale;
        kernels.observe_residual(monitor.history().len(), res);
        match monitor.observe(res) {
            Verdict::Continue => {}
            Verdict::Done(o) => break o,
        }
    };

    kernels.release_buffer(diag);
    kernels.release_buffer(r);
    Ok(SolveReport {
        solver: SolverKind::Sor,
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
    use crate::workspace::WorkspaceHandle;
    use acamar_sparse::generate::{self, RowDistribution};

    fn criteria() -> ConvergenceCriteria {
        ConvergenceCriteria::paper().with_max_iterations(3000)
    }

    #[test]
    fn gauss_seidel_converges_on_dominant_matrix() {
        let a = generate::diagonally_dominant::<f64>(
            60,
            RowDistribution::Uniform { min: 2, max: 6 },
            1.5,
            31,
        );
        let b = vec![1.0; 60];
        let mut k = SoftwareKernels::new();
        let rep = gauss_seidel(&a, &b, None, &criteria(), &mut k).unwrap();
        assert!(rep.converged());
        assert_eq!(rep.solver, SolverKind::GaussSeidel);
    }

    #[test]
    fn gauss_seidel_beats_jacobi_on_poisson() {
        let a = generate::poisson1d::<f64>(40);
        let b = vec![1.0; 40];
        let mut kg = SoftwareKernels::new();
        let gs = gauss_seidel(&a, &b, None, &criteria(), &mut kg).unwrap();
        let mut k = SoftwareKernels::new();
        let jb = crate::jacobi::jacobi(&a, &b, None, &criteria(), &mut k).unwrap();
        assert!(gs.converged());
        if jb.converged() {
            assert!(
                gs.iterations <= jb.iterations,
                "GS {} vs JB {}",
                gs.iterations,
                jb.iterations
            );
        }
    }

    #[test]
    fn sor_with_good_omega_beats_gauss_seidel() {
        let a = generate::poisson1d::<f64>(40);
        let b = vec![1.0; 40];
        let mut kg = SoftwareKernels::new();
        let gs = gauss_seidel(&a, &b, None, &criteria(), &mut kg).unwrap();
        let mut ks = SoftwareKernels::new();
        let s = sor(&a, &b, None, 1.8, &criteria(), &mut ks).unwrap();
        assert!(s.converged());
        assert!(
            s.iterations < gs.iterations,
            "SOR {} vs GS {}",
            s.iterations,
            gs.iterations
        );
    }

    #[test]
    fn sor_charges_sweep_and_residual_passes() {
        let a = generate::poisson1d::<f64>(20);
        let b = vec![1.0; 20];
        let mut k = SoftwareKernels::new();
        let rep = sor(&a, &b, None, 1.5, &criteria(), &mut k).unwrap();
        assert!(rep.converged());
        // One sweep + one residual SpMV per iteration.
        assert_eq!(rep.counts.spmv_calls, 2 * rep.iterations as u64);
        assert!(rep.counts.dense_calls > 0);
    }

    #[test]
    fn warm_sor_is_allocation_free_via_workspace() {
        let a = generate::poisson1d::<f64>(32);
        let b = vec![1.0; 32];
        let ws = WorkspaceHandle::new();
        // Cold solve populates the pool (x is handed out via the report,
        // so it is re-allocated each solve; diag and r recycle).
        let mut k = SoftwareKernels::new().with_workspace(ws.clone());
        let first = sor(&a, &b, None, 1.5, &criteria(), &mut k).unwrap();
        assert!(first.converged());
        let (reuses_first, _) = ws.stats();
        let second = sor(&a, &b, None, 1.5, &criteria(), &mut k).unwrap();
        assert!(second.converged());
        let (reuses_second, _) = ws.stats();
        assert!(
            reuses_second > reuses_first,
            "warm solve should reuse pooled buffers: {reuses_first} -> {reuses_second}"
        );
    }

    #[test]
    #[should_panic(expected = "omega must lie in (0, 2)")]
    fn sor_rejects_bad_omega() {
        let a = generate::poisson1d::<f64>(4);
        let mut k = SoftwareKernels::new();
        let _ = sor(&a, &[1.0; 4], None, 2.5, &criteria(), &mut k);
    }

    #[test]
    fn zero_diagonal_reports_breakdown() {
        let a =
            CsrMatrix::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0_f64, 1.0]).unwrap();
        let mut k = SoftwareKernels::new();
        let rep = gauss_seidel(&a, &[1.0, 1.0], None, &criteria(), &mut k).unwrap();
        assert!(matches!(
            rep.outcome,
            Outcome::Diverged(DivergenceReason::Breakdown(_))
        ));
    }
}
