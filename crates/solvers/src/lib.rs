//! # acamar-solvers
//!
//! Iterative solvers for `Ax = b` with kernel-level operation accounting —
//! the algorithmic substrate of the Acamar (MICRO 2024) reproduction.
//!
//! The three solvers Acamar reconfigures among — Jacobi ([`jacobi`]),
//! Conjugate Gradient ([`conjugate_gradient`]), and BiCG-STAB
//! ([`bicgstab`]) — follow the paper's Algorithms 1–3 exactly, with the
//! paper's convergence policy (tolerance `1e-5`, 200-iteration setup time
//! before divergence checks; [`ConvergenceCriteria::paper`]). SOR
//! ([`sor`]), IC(0)-preconditioned CG ([`ic0_preconditioned_cg`]), and
//! GMRES ([`gmres`]) are the rescue ladder's rungs beyond them.
//!
//! Every solver is generic over a [`Kernels`] executor: [`SoftwareKernels`]
//! runs them in pure software; the `acamar-fabric` crate supplies an
//! executor that additionally models FPGA cycles and reconfiguration.
//!
//! ```
//! use acamar_solvers::{solve_with, recommend, ConvergenceCriteria, SoftwareKernels};
//! use acamar_sparse::{analysis, generate};
//!
//! let a = generate::poisson2d::<f64>(8, 8);
//! let b = vec![1.0; 64];
//!
//! // What the Matrix Structure unit would pick:
//! let kind = recommend(&analysis::analyze(&a));
//!
//! let mut kernels = SoftwareKernels::new();
//! let report = solve_with(kind, &a, &b, None, &ConvergenceCriteria::paper(), &mut kernels)?;
//! assert!(report.converged());
//! # Ok::<(), acamar_sparse::SparseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bicgstab;
mod cg;
mod convergence;
mod diagnostics;
mod fused;
mod gauss_seidel;
mod gmres;
mod ic0;
mod jacobi;
mod kernels;
mod pcg;
mod report;
mod selection;
mod workspace;

pub use bicgstab::bicgstab;
pub use cg::conjugate_gradient;
pub use convergence::{ConvergenceCriteria, DivergenceReason, Monitor, Outcome, Verdict};
pub use diagnostics::{ConvergenceSummary, Trend};
pub use gauss_seidel::sor;
pub use gmres::gmres;
pub use ic0::Ic0;
pub use jacobi::jacobi;
pub use kernels::{
    DenseOp, DerivedPlan, FusedPass, Kernels, OpCounts, OperandId, Phase, SoftwareKernels,
};
pub use pcg::{ic0_preconditioned_cg, preconditioned_cg};
pub use report::SolveReport;
pub use selection::{
    extended_fallback_order, fallback_order, paper_table1, recommend, satisfies, Criterion,
    SolverKind,
};
pub use workspace::{SolverWorkspace, WorkspaceHandle};

use acamar_sparse::{CsrMatrix, Scalar, SparseError};

/// GMRES restart dimension used by [`solve_with`]: wide enough for the
/// indefinite spectra that defeat the three Acamar solvers.
const DEFAULT_GMRES_RESTART: usize = 60;

/// Runs the solver selected by `kind` (dynamic dispatch over
/// [`SolverKind`]) — the software analog of reconfiguring the
/// Reconfigurable Solver unit, and the one mapping from a kind to a
/// solver (Acamar's attempts, forced or not, run through it).
/// [`SolverKind::PreconditionedCg`] is IC(0)-preconditioned CG
/// ([`ic0_preconditioned_cg`], Jacobi scaling when the factorization
/// breaks down); [`SolverKind::Gmres`] restarts every 60 iterations.
///
/// # Errors
///
/// Returns [`SparseError`] for shape problems (non-square `A`, wrong `b`
/// length). Numerical failure is reported in the returned
/// [`SolveReport::outcome`], not as an error.
pub fn solve_with<T: Scalar, K: Kernels<T>>(
    kind: SolverKind,
    a: &CsrMatrix<T>,
    b: &[T],
    x0: Option<&[T]>,
    criteria: &ConvergenceCriteria,
    kernels: &mut K,
) -> Result<SolveReport<T>, SparseError> {
    match kind {
        SolverKind::Jacobi => jacobi(a, b, x0, criteria, kernels),
        SolverKind::ConjugateGradient => conjugate_gradient(a, b, x0, criteria, kernels),
        SolverKind::BiCgStab => bicgstab(a, b, x0, criteria, kernels),
        SolverKind::PreconditionedCg => ic0_preconditioned_cg(a, b, x0, criteria, kernels),
        SolverKind::Sor => sor(a, b, x0, T::from_f64(1.5), criteria, kernels),
        SolverKind::Gmres => gmres(a, b, x0, DEFAULT_GMRES_RESTART, criteria, kernels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_sparse::generate;

    #[test]
    fn solve_with_dispatches_every_kind() {
        let a = generate::poisson2d::<f64>(6, 6);
        let b = vec![1.0; 36];
        let criteria = ConvergenceCriteria::paper().with_max_iterations(3000);
        for kind in SolverKind::ALL {
            let mut k = SoftwareKernels::new();
            let rep = solve_with(kind, &a, &b, None, &criteria, &mut k).unwrap();
            assert!(
                rep.converged(),
                "{kind} failed on Poisson: {:?}",
                rep.outcome
            );
            // All solvers should agree on the solution.
            let r = a.mul_vec(&rep.solution).unwrap();
            let res: f64 = r
                .iter()
                .zip(&b)
                .map(|(u, v)| (u - v) * (u - v))
                .sum::<f64>()
                .sqrt()
                / 6.0;
            assert!(res < 1e-4, "{kind} residual {res}");
        }
    }
}
