//! Bi-Conjugate Gradient Stabilized (paper Algorithm 3).

use crate::convergence::{ConvergenceCriteria, DivergenceReason, Monitor, Outcome, Verdict};
use crate::jacobi::check_square_system;
use crate::kernels::{Kernels, Phase};
use crate::report::SolveReport;
use crate::selection::SolverKind;
use acamar_sparse::{CsrMatrix, Scalar, SparseError};

/// Solves `A x = b` with BiCG-STAB.
///
/// Designed for non-symmetric systems (paper Eq. 4); also works on SPD
/// matrices. The method can *break down* when the shadow-residual inner
/// product `ρ = (r, r₀*)` or the stabilization weight `ω` vanishes; such
/// breakdowns are reported as [`Outcome::Diverged`] — the paper's Solver
/// Modifier treats them like any other divergence.
///
/// # Errors
///
/// Returns [`SparseError`] for shape problems.
///
/// # Examples
///
/// ```
/// use acamar_solvers::{bicgstab, ConvergenceCriteria, SoftwareKernels};
/// use acamar_sparse::generate;
///
/// // Non-symmetric convection–diffusion: CG is inapplicable here.
/// let a = generate::convection_diffusion_2d::<f64>(8, 8, 1.5);
/// let b = vec![1.0; 64];
/// let mut k = SoftwareKernels::new();
/// let rep = bicgstab(&a, &b, None, &ConvergenceCriteria::paper(), &mut k)?;
/// assert!(rep.converged());
/// # Ok::<(), acamar_sparse::SparseError>(())
/// ```
pub fn bicgstab<T: Scalar, K: Kernels<T>>(
    a: &CsrMatrix<T>,
    b: &[T],
    x0: Option<&[T]>,
    criteria: &ConvergenceCriteria,
    kernels: &mut K,
) -> Result<SolveReport<T>, SparseError> {
    let n = check_square_system(a, b)?;
    let start_counts = kernels.counts();

    // --- Initialize (Algorithm 3 lines 2-3) ---
    kernels.set_phase(Phase::Initialize);
    let mut x = kernels.acquire_buffer(n);
    if let Some(x0) = x0 {
        x.copy_from_slice(x0);
    }
    let mut r = kernels.acquire_buffer(n);
    kernels.spmv(a, &x, &mut r);
    kernels.scale(-T::ONE, &mut r);
    kernels.axpy(T::ONE, b, &mut r); // r0 = b - A x0
    let mut r0s = kernels.acquire_buffer(n);
    kernels.copy(&r, &mut r0s); // r0* = r0 (standard choice)
    let mut p = kernels.acquire_buffer(n);
    kernels.copy(&r, &mut p);
    let mut rho = kernels.dot(&r, &r0s);
    let b_norm = kernels.norm2(b).to_f64();
    let scale = if b_norm > 0.0 { b_norm } else { 1.0 };

    let mut ap = kernels.acquire_buffer(n);
    let mut s = kernels.acquire_buffer(n);
    let mut as_ = kernels.acquire_buffer(n);
    let mut monitor = Monitor::new(*criteria);
    let mut iterations = 0usize;
    // Breakdown threshold: relative to the machine epsilon of T and the
    // problem scale, so f32 runs detect breakdown at realistic magnitudes.
    let tiny = T::epsilon().to_f64() * T::epsilon().to_f64();

    // --- Loop (Algorithm 3 lines 4-12) ---
    // Four dense sweeps and two SpMVs per iteration. `rr` and `rho_new`
    // are accumulated by the sweep that writes `r` and charged where the
    // algorithm asks for them (`dot_carried`).
    kernels.set_phase(Phase::Loop);
    let mut rr = None;
    let outcome = loop {
        let r_norm = kernels.dot_carried(&r, &r, rr).sqrt().to_f64();
        if r_norm / scale < criteria.tolerance {
            break Outcome::Converged;
        }
        kernels.begin_iteration(iterations);
        let denom = kernels.spmv_dot(a, &p, &mut ap, &r0s);
        iterations += 1;
        if !denom.is_finite() || denom.to_f64().abs() <= tiny * scale * scale {
            monitor.observe(r_norm / scale);
            break Outcome::Diverged(DivergenceReason::Breakdown("(Ap, r0*) vanished"));
        }
        let alpha = rho / denom;
        kernels.waxpy(-alpha, &ap, &r, &mut s); // s = r - alpha A p
        kernels.spmv(a, &s, &mut as_);
        let (as_as, as_s) = kernels.dot_pair(&as_, &s);
        if as_as == T::ZERO {
            // s = 0: the half-step already converged.
            kernels.axpy(alpha, &p, &mut x);
            monitor.observe(0.0);
            break Outcome::Converged;
        }
        let omega = as_s / as_as;
        // x += alpha p + omega s; r = s - omega A s
        let (rr_new, rho_new) =
            kernels.bicgstab_update(alpha, &p, omega, &s, &as_, &r0s, &mut x, &mut r);
        let rr_new = kernels.dot_carried(&r, &r, rr_new);
        rr = Some(rr_new);
        let res = rr_new.sqrt().to_f64() / scale;
        kernels.observe_residual(monitor.history().len(), res);
        match monitor.observe(res) {
            Verdict::Continue => {}
            Verdict::Done(o) => break o,
        }
        let rho_new = kernels.dot_carried(&r, &r0s, rho_new);
        if !rho_new.is_finite() || rho_new.to_f64().abs() <= tiny * scale * scale {
            break Outcome::Diverged(DivergenceReason::Breakdown("rho = (r, r0*) vanished"));
        }
        if omega.to_f64().abs() <= tiny {
            break Outcome::Diverged(DivergenceReason::Breakdown("omega vanished"));
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        kernels.bicgstab_direction(&r, beta, omega, &ap, &mut p); // p = r + beta (p - omega A p)
    };

    kernels.release_buffer(r);
    kernels.release_buffer(r0s);
    kernels.release_buffer(p);
    kernels.release_buffer(ap);
    kernels.release_buffer(s);
    kernels.release_buffer(as_);
    Ok(SolveReport {
        solver: SolverKind::BiCgStab,
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
    fn converges_on_nonsymmetric_convection_diffusion() {
        let a = generate::convection_diffusion_2d::<f64>(12, 12, 2.0);
        let x_true: Vec<f64> = (0..144).map(|i| ((i % 5) as f64) - 2.0).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let mut k = SoftwareKernels::new();
        let rep = bicgstab(&a, &b, None, &criteria(), &mut k).unwrap();
        assert!(rep.converged(), "{:?}", rep.outcome);
        let err: f64 = rep
            .solution
            .iter()
            .zip(&x_true)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-3, "max err {err}");
    }

    #[test]
    fn converges_on_spd_too() {
        let a = generate::poisson2d::<f64>(8, 8);
        let b = vec![1.0; 64];
        let mut k = SoftwareKernels::new();
        let rep = bicgstab(&a, &b, None, &criteria(), &mut k).unwrap();
        assert!(rep.converged());
    }

    #[test]
    fn converges_on_dominant_nonsymmetric_where_cg_fails() {
        let a = generate::diagonally_dominant::<f64>(
            90,
            RowDistribution::Uniform { min: 2, max: 8 },
            1.5,
            17,
        );
        let b = vec![1.0; 90];
        let mut k = SoftwareKernels::new();
        let rep = bicgstab(&a, &b, None, &criteria(), &mut k).unwrap();
        assert!(rep.converged());
        let mut k2 = SoftwareKernels::new();
        let cg_rep = crate::cg::conjugate_gradient(&a, &b, None, &criteria(), &mut k2).unwrap();
        assert!(!cg_rep.converged(), "CG should fail on non-symmetric input");
    }

    #[test]
    fn fails_on_spread_indefinite_spectrum_in_f32() {
        // Indefinite spectrum spread over 4 decades: in f32, BiCG-STAB's
        // one-step stabilization stagnates above the paper's 1e-5
        // tolerance (Table II rows fe_rotor / sd2010 / cti).
        let a = generate::spread_spectrum_blocks::<f32>(300, 0.3, 1e4, true, 3);
        let b = vec![1.0_f32; 300];
        let mut k = SoftwareKernels::new();
        let rep = bicgstab(&a, &b, None, &criteria(), &mut k).unwrap();
        assert!(!rep.converged(), "expected failure, got {:?}", rep.outcome);
        // Jacobi, in contrast, handles it (block spectral radius 0.6).
        let mut kj = SoftwareKernels::new();
        let jb = crate::jacobi::jacobi(&a, &b, None, &criteria(), &mut kj).unwrap();
        assert!(jb.converged());
    }

    #[test]
    fn stagnates_on_ill_conditioned_spd_in_f32_where_cg_converges() {
        // The beircuit class of Table II (JB x, CG ok, BiCG x): f32
        // attainable accuracy of BiCG-STAB is worse than CG's.
        let a = generate::spread_spectrum_blocks::<f32>(120, 0.7, 1e9, false, 3);
        let b = vec![1.0_f32; 120];
        let mut k = SoftwareKernels::new();
        let rep = bicgstab(&a, &b, None, &criteria(), &mut k).unwrap();
        assert!(!rep.converged(), "BiCG-STAB: {:?}", rep.outcome);
        let mut kc = SoftwareKernels::new();
        let cg = crate::cg::conjugate_gradient(&a, &b, None, &criteria(), &mut kc).unwrap();
        assert!(cg.converged(), "CG: {:?}", cg.outcome);
    }

    #[test]
    fn exact_guess_converges_without_iterating() {
        let a = generate::convection_diffusion_2d::<f64>(6, 6, 1.0);
        let x_true = vec![1.5; 36];
        let b = a.mul_vec(&x_true).unwrap();
        let mut k = SoftwareKernels::new();
        let rep = bicgstab(&a, &b, Some(&x_true), &criteria(), &mut k).unwrap();
        assert!(rep.converged());
        assert_eq!(rep.iterations, 0);
    }

    #[test]
    fn two_spmv_per_iteration() {
        let a = generate::convection_diffusion_2d::<f64>(8, 8, 1.0);
        let b = vec![1.0; 64];
        let mut k = SoftwareKernels::new();
        let rep = bicgstab(&a, &b, None, &criteria(), &mut k).unwrap();
        // one initialize SpMV + two per loop iteration
        assert_eq!(rep.counts.spmv_calls as usize, 1 + 2 * rep.iterations);
    }
}
