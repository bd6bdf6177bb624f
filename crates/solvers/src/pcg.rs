//! Preconditioned Conjugate Gradient (Jacobi and IC(0) variants).
//!
//! Table I of the paper lists Preconditioned CG among the iterative
//! methods. Two preconditioners are provided through one solver loop:
//! the diagonal (Jacobi) scaling `M = diag(A)` — a cheap elementwise
//! kernel that maps onto the dense units the fabric already has — and
//! incomplete Cholesky `M = L Lᵀ` (see [`Ic0`]), whose two substitution
//! passes run as [`acamar_sparse::CompiledSptrsv`] solves, level by level,
//! on the level schedules the fabric executor prices (DESIGN §7, §8).

use crate::convergence::{ConvergenceCriteria, DivergenceReason, Monitor, Outcome, Verdict};
use crate::ic0::Ic0;
use crate::jacobi::check_square_system;
use crate::kernels::{Kernels, Phase};
use crate::report::SolveReport;
use crate::selection::SolverKind;
use acamar_sparse::{CsrMatrix, Scalar, SparseError};

/// Which preconditioner [`preconditioned_cg_with`] applies each iteration.
enum Preconditioner<'a, T> {
    /// Diagonal (Jacobi) scaling: `M = diag(A)`.
    Jacobi,
    /// Incomplete Cholesky: `M = L Lᵀ`, applied as forward + backward
    /// substitution through the executor's [`Kernels::sptrsv`] on the
    /// factors' own plans.
    Ic0(&'a Ic0<T>),
}

/// Per-solve scratch owned by the preconditioner application.
enum PrecondState<T> {
    Jacobi { inv_d: Vec<T> },
    Ic0 { tmp: Vec<T> },
}

fn apply_precond<T: Scalar, K: Kernels<T>>(
    kernels: &mut K,
    precond: &Preconditioner<'_, T>,
    state: &mut PrecondState<T>,
    r: &[T],
    z: &mut [T],
) {
    match (precond, state) {
        (Preconditioner::Jacobi, PrecondState::Jacobi { inv_d }) => {
            kernels.hadamard(inv_d, r, z);
        }
        (Preconditioner::Ic0(factors), PrecondState::Ic0 { tmp }) => {
            factors.apply(kernels, r, tmp, z);
        }
        _ => unreachable!("preconditioner state mismatch"),
    }
}

/// Solves `A x = b` with diagonally-preconditioned CG.
///
/// Requires `A` symmetric positive definite (with a nonzero diagonal for
/// the preconditioner). On badly scaled SPD systems — e.g. the paper's
/// `beircuit`-class matrices — the diagonal preconditioner flattens the
/// spectrum and converges in far fewer iterations than plain CG.
///
/// # Errors
///
/// Returns [`SparseError`] for shape problems.
///
/// # Examples
///
/// ```
/// use acamar_solvers::{preconditioned_cg, ConvergenceCriteria, SoftwareKernels};
/// use acamar_sparse::generate;
///
/// let a = generate::ill_conditioned_spd::<f64>(200, 1e6, 2, 7);
/// let b = vec![1.0; 200];
/// let mut k = SoftwareKernels::new();
/// let rep = preconditioned_cg(&a, &b, None, &ConvergenceCriteria::paper(), &mut k)?;
/// assert!(rep.converged());
/// # Ok::<(), acamar_sparse::SparseError>(())
/// ```
pub fn preconditioned_cg<T: Scalar, K: Kernels<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    x0: Option<&[T]>,
    criteria: &ConvergenceCriteria,
    kernels: &mut K,
) -> Result<SolveReport<T>, SparseError> {
    preconditioned_cg_with(a, b, x0, criteria, kernels, &Preconditioner::Jacobi)
}

/// Solves `A x = b` with CG preconditioned by `precond`.
///
/// The loop structure, fused kernels, and convergence monitoring are
/// identical across preconditioners; only the `z = M⁻¹ r` application
/// differs. All scratch comes from the executor's buffer pool, so warm
/// solves are allocation-free.
fn preconditioned_cg_with<T: Scalar, K: Kernels<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    x0: Option<&[T]>,
    criteria: &ConvergenceCriteria,
    kernels: &mut K,
    precond: &Preconditioner<'_, T>,
) -> Result<SolveReport<T>, SparseError> {
    let n = check_square_system(a, b)?;
    let start_counts = kernels.counts();

    kernels.set_phase(Phase::Initialize);
    let mut state = match precond {
        Preconditioner::Jacobi => {
            let diag = a.diagonal();
            if diag.contains(&T::ZERO) {
                return Ok(SolveReport {
                    solver: SolverKind::PreconditionedCg,
                    outcome: Outcome::Diverged(DivergenceReason::Breakdown(
                        "zero diagonal (preconditioner undefined)",
                    )),
                    iterations: 0,
                    residual_history: Vec::new(),
                    solution: x0.map(|x| x.to_vec()).unwrap_or_else(|| vec![T::ZERO; n]),
                    counts: kernels.counts().since(&start_counts),
                });
            }
            let mut inv_d = kernels.acquire_buffer(n);
            for (slot, &d) in inv_d.iter_mut().zip(&diag) {
                *slot = T::ONE / d;
            }
            PrecondState::Jacobi { inv_d }
        }
        Preconditioner::Ic0(_) => PrecondState::Ic0 {
            tmp: kernels.acquire_buffer(n),
        },
    };

    let mut x = kernels.acquire_buffer(n);
    if let Some(x0) = x0 {
        x.copy_from_slice(x0);
    }
    let mut r = kernels.acquire_buffer(n);
    kernels.spmv(a, &x, &mut r);
    kernels.scale(-T::ONE, &mut r);
    kernels.axpy(T::ONE, b, &mut r); // r = b - A x0
    let mut z = kernels.acquire_buffer(n);
    apply_precond(kernels, precond, &mut state, &r, &mut z); // z = M^{-1} r
    let mut p = kernels.acquire_buffer(n);
    kernels.copy(&z, &mut p);
    let mut rz = kernels.dot(&r, &z);
    let b_norm = kernels.norm2(b).to_f64();
    let scale = if b_norm > 0.0 { b_norm } else { 1.0 };

    let mut ap = kernels.acquire_buffer(n);
    let mut monitor = Monitor::new(*criteria);
    let mut iterations = 0usize;

    kernels.set_phase(Phase::Loop);
    let mut rr = None;
    let outcome = loop {
        let r_norm = kernels.dot_carried(&r, &r, rr).sqrt().to_f64();
        if r_norm / scale < criteria.tolerance {
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
            monitor.observe(r_norm / scale);
            break Outcome::Diverged(DivergenceReason::Breakdown(
                "non-positive curvature (matrix not positive definite)",
            ));
        }
        let alpha = rz / p_ap;
        // ‖r‖² rides the update and is charged where it is read: after
        // the preconditioner, and again when the loop turns.
        let rr_new = kernels.cg_update(alpha, &p, &ap, &mut x, &mut r);
        apply_precond(kernels, precond, &mut state, &r, &mut z);
        let rz_new = kernels.dot(&r, &z);
        let rr_new = kernels.dot_carried(&r, &r, rr_new);
        rr = Some(rr_new);
        let res = rr_new.sqrt().to_f64() / scale;
        kernels.observe_residual(monitor.history().len(), res);
        match monitor.observe(res) {
            Verdict::Continue => {}
            Verdict::Done(o) => break o,
        }
        let beta = rz_new / rz;
        rz = rz_new;
        kernels.xpby(&z, beta, &mut p); // p = z + beta p
    };

    match state {
        PrecondState::Jacobi { inv_d } => kernels.release_buffer(inv_d),
        PrecondState::Ic0 { tmp } => kernels.release_buffer(tmp),
    }
    kernels.release_buffer(r);
    kernels.release_buffer(z);
    kernels.release_buffer(p);
    kernels.release_buffer(ap);
    Ok(SolveReport {
        solver: SolverKind::PreconditionedCg,
        outcome,
        iterations,
        residual_history: monitor.into_history(),
        solution: x,
        counts: kernels.counts().since(&start_counts),
    })
}

/// Solves with IC(0)-preconditioned CG, factoring `A` up front through
/// [`Kernels::ic0_factors`]; falls back to Jacobi scaling when the
/// incomplete factorization breaks down (the classic
/// non-SPD/indefinite-pivot case). Which of the two runs is reported
/// through [`Kernels::observe_preconditioner`], and the factors go back to
/// the executor on every exit.
///
/// The substitution passes run on the factors' plans: those of the
/// pattern's [`DerivedPlan`](crate::DerivedPlan) memo when the executor
/// holds one, and of a schedule built for this solve otherwise.
///
/// # Errors
///
/// Returns [`SparseError`] for shape problems.
pub fn ic0_preconditioned_cg<T: Scalar, K: Kernels<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    x0: Option<&[T]>,
    criteria: &ConvergenceCriteria,
    kernels: &mut K,
) -> Result<SolveReport<T>, SparseError> {
    let Ok(factors) = kernels.ic0_factors(a) else {
        kernels.observe_preconditioner(false, 0);
        return preconditioned_cg(a, b, x0, criteria, kernels);
    };
    kernels.observe_preconditioner(true, factors.plans().0.level_count());
    let precond = Preconditioner::Ic0(&factors);
    let report = preconditioned_cg_with(a, b, x0, criteria, kernels, &precond);
    kernels.release_ic0_factors(factors);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::conjugate_gradient;
    use crate::kernels::SoftwareKernels;
    use acamar_sparse::generate;

    fn criteria() -> ConvergenceCriteria {
        ConvergenceCriteria::paper().with_max_iterations(3000)
    }

    #[test]
    fn converges_on_poisson() {
        let a = generate::poisson2d::<f64>(10, 10);
        let b = vec![1.0; 100];
        let mut k = SoftwareKernels::new();
        let rep = preconditioned_cg(&a, &b, None, &criteria(), &mut k).unwrap();
        assert!(rep.converged());
    }

    #[test]
    fn beats_plain_cg_on_badly_scaled_spd() {
        let a = generate::ill_conditioned_spd::<f64>(300, 1e8, 2, 5);
        let b = vec![1.0; 300];
        let mut k1 = SoftwareKernels::new();
        let pcg = preconditioned_cg(&a, &b, None, &criteria(), &mut k1).unwrap();
        let mut k2 = SoftwareKernels::new();
        let cg = conjugate_gradient(&a, &b, None, &criteria(), &mut k2).unwrap();
        assert!(pcg.converged());
        if cg.converged() {
            assert!(
                pcg.iterations < cg.iterations,
                "PCG {} vs CG {}",
                pcg.iterations,
                cg.iterations
            );
        }
    }

    #[test]
    fn ic0_beats_plain_cg_on_poisson() {
        // On the constant-diagonal Poisson operator Jacobi scaling is a
        // no-op, but IC(0) cuts the iteration count severalfold.
        let a = generate::poisson2d::<f64>(24, 24);
        let b = vec![1.0; a.nrows()];
        let mut k1 = SoftwareKernels::new();
        let icpcg = ic0_preconditioned_cg(&a, &b, None, &criteria(), &mut k1).unwrap();
        let mut k2 = SoftwareKernels::new();
        let cg = conjugate_gradient(&a, &b, None, &criteria(), &mut k2).unwrap();
        assert!(icpcg.converged());
        assert!(cg.converged());
        assert!(
            icpcg.iterations * 2 <= cg.iterations,
            "IC(0)-PCG {} vs CG {}",
            icpcg.iterations,
            cg.iterations
        );
    }

    #[test]
    fn ic0_with_memoised_plans_matches_self_compiled() {
        use crate::kernels::DerivedPlan;
        use acamar_sparse::CompiledSptrsv;
        use std::sync::Arc;
        let a = generate::poisson2d::<f64>(12, 12);
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 3) as f64).collect();
        let memo = Arc::new(DerivedPlan::new(Vec::new()));
        let mut k1 = SoftwareKernels::new().with_derived_plan(Arc::clone(&memo));
        ic0_preconditioned_cg(&a, &b, None, &criteria(), &mut k1).unwrap();
        let cached = ic0_preconditioned_cg(&a, &b, None, &criteria(), &mut k1).unwrap();
        let (lower, upper) = &**memo.sptrsv().expect("memoised by the first solve");
        assert_eq!(lower, &CompiledSptrsv::compile_lower(&a).unwrap());
        assert_eq!(upper, &CompiledSptrsv::compile_upper(&a).unwrap());
        let mut k2 = SoftwareKernels::new();
        let fresh = ic0_preconditioned_cg(&a, &b, None, &criteria(), &mut k2).unwrap();
        assert_eq!(cached.iterations, fresh.iterations);
        assert_eq!(cached.counts, fresh.counts);
        assert_eq!(
            cached
                .solution
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            fresh
                .solution
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn ic0_breakdown_falls_back_to_jacobi() {
        // Strictly diagonally dominant but with a negative diagonal entry
        // pattern that defeats IC(0)? Use an indefinite matrix: IC(0)
        // breaks down, Jacobi-PCG still runs (and may diverge, but must
        // return a report rather than an error).
        let a = generate::indefinite_diagonally_dominant::<f64>(
            60,
            acamar_sparse::generate::RowDistribution::Uniform { min: 2, max: 5 },
            2.0,
            11,
        );
        let b = vec![1.0; 60];
        let mut k = SoftwareKernels::new();
        let rep = ic0_preconditioned_cg(&a, &b, None, &criteria(), &mut k).unwrap();
        assert_eq!(rep.solver, SolverKind::PreconditionedCg);
    }

    #[test]
    fn every_exit_returns_the_factor_buffers_it_borrowed() {
        use crate::kernels::DerivedPlan;
        use crate::workspace::WorkspaceHandle;
        use std::sync::Arc;
        // Converges; breaks down at a late pivot and hands over to Jacobi
        // scaling, which then diverges (indefinite); never factors at all
        // (a hole in the diagonal).
        let spd = generate::poisson2d::<f64>(9, 7);
        let mut indefinite = spd.clone();
        indefinite.values_mut()[spd.row_ptr()[40]..]
            .iter_mut()
            .for_each(|v| *v = -*v);
        let holed =
            CsrMatrix::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0_f64, 1.0]).unwrap();
        for (a, converges) in [(spd, true), (indefinite, false), (holed, false)] {
            for memoised in [false, true] {
                let b = vec![1.0; a.nrows()];
                let ws = WorkspaceHandle::new();
                let mut k = SoftwareKernels::new().with_workspace(ws.clone());
                if memoised {
                    k = k.with_derived_plan(Arc::new(DerivedPlan::new(Vec::new())));
                }
                let mut solve = || {
                    let rep = ic0_preconditioned_cg(&a, &b, None, &criteria(), &mut k);
                    let rep = rep.unwrap();
                    assert_eq!(rep.converged(), converges);
                    // The solution is the caller's; hand it back so that
                    // only a leak can make the pool allocate.
                    ws.give(rep.solution);
                };
                solve();
                let fresh = ws.stats().1;
                for _ in 0..100 {
                    solve();
                }
                assert_eq!(ws.stats().1, fresh, "memoised: {memoised}");
            }
        }
    }

    #[test]
    fn zero_diagonal_is_breakdown() {
        let a =
            CsrMatrix::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0_f64, 1.0]).unwrap();
        let mut k = SoftwareKernels::new();
        let rep = preconditioned_cg(&a, &[1.0, 1.0], None, &criteria(), &mut k).unwrap();
        assert!(matches!(
            rep.outcome,
            Outcome::Diverged(DivergenceReason::Breakdown(_))
        ));
    }

    #[test]
    fn agrees_with_cg_solution_on_spd_system() {
        let a = generate::spd_from_pattern::<f64>(
            120,
            acamar_sparse::generate::RowDistribution::Uniform { min: 2, max: 6 },
            0.3,
            9,
        );
        let x_true: Vec<f64> = (0..120).map(|i| ((i % 7) as f64) - 3.0).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let mut k = SoftwareKernels::new();
        let rep = preconditioned_cg(&a, &b, None, &criteria(), &mut k).unwrap();
        assert!(rep.converged());
        let err = rep
            .solution
            .iter()
            .zip(&x_true)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-3, "max error {err}");
    }

    #[test]
    fn exact_guess_converges_immediately() {
        let a = generate::poisson1d::<f64>(16);
        let x_true = vec![2.0; 16];
        let b = a.mul_vec(&x_true).unwrap();
        let mut k = SoftwareKernels::new();
        let rep = preconditioned_cg(&a, &b, Some(&x_true), &criteria(), &mut k).unwrap();
        assert!(rep.converged());
        assert_eq!(rep.iterations, 0);
    }
}
