//! Solver kinds, convergence criteria (paper Table I), and the
//! structure-based recommendation logic of the Matrix Structure unit.

use acamar_sparse::StructureReport;
use std::fmt;

/// The iterative solvers this workspace can execute.
///
/// `Jacobi`, `ConjugateGradient`, and `BiCgStab` are the three solvers
/// Acamar reconfigures among (paper Section II-B); the others are software
/// reference solvers completing Table I coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SolverKind {
    /// Jacobi iterative method (Algorithm 1).
    Jacobi,
    /// Conjugate Gradient (Algorithm 2).
    ConjugateGradient,
    /// Bi-Conjugate Gradient Stabilized (Algorithm 3).
    BiCgStab,
    /// IC(0)-preconditioned CG, with Jacobi scaling when the incomplete
    /// factorization breaks down (software reference, Table I row
    /// "Preconditioned CG"; the rescue ladder's preconditioned rung).
    PreconditionedCg,
    /// Plain Bi-Conjugate Gradient (software reference, Table I row
    /// "BiCG").
    BiCg,
    /// Conjugate Residual (software reference, Table I row
    /// "Conjugate Residual").
    ConjugateResidual,
    /// Gauss-Seidel (software reference).
    GaussSeidel,
    /// Successive Over-Relaxation (software reference).
    Sor,
    /// Restarted GMRES (software reference / fallback of last resort).
    Gmres,
}

impl SolverKind {
    /// The three solvers available to Acamar's Reconfigurable Solver unit.
    pub const ACAMAR: [SolverKind; 3] = [
        SolverKind::Jacobi,
        SolverKind::ConjugateGradient,
        SolverKind::BiCgStab,
    ];

    /// Every solver kind, in declaration order ([`SolverKind::index`]
    /// indexes into this — used for attempt histograms).
    pub const ALL: [SolverKind; Self::COUNT] = [
        SolverKind::Jacobi,
        SolverKind::ConjugateGradient,
        SolverKind::BiCgStab,
        SolverKind::PreconditionedCg,
        SolverKind::BiCg,
        SolverKind::ConjugateResidual,
        SolverKind::GaussSeidel,
        SolverKind::Sor,
        SolverKind::Gmres,
    ];

    /// Number of solver kinds (length of [`SolverKind::ALL`]).
    pub const COUNT: usize = 9;

    /// Dense index of this kind in [`SolverKind::ALL`] — a stable key for
    /// per-solver counters and histograms.
    pub fn index(self) -> usize {
        match self {
            SolverKind::Jacobi => 0,
            SolverKind::ConjugateGradient => 1,
            SolverKind::BiCgStab => 2,
            SolverKind::PreconditionedCg => 3,
            SolverKind::BiCg => 4,
            SolverKind::ConjugateResidual => 5,
            SolverKind::GaussSeidel => 6,
            SolverKind::Sor => 7,
            SolverKind::Gmres => 8,
        }
    }

    /// Short display label (used in experiment tables).
    pub fn label(self) -> &'static str {
        match self {
            SolverKind::Jacobi => "JB",
            SolverKind::ConjugateGradient => "CG",
            SolverKind::BiCgStab => "BiCG-STAB",
            SolverKind::PreconditionedCg => "PCG",
            SolverKind::BiCg => "BiCG",
            SolverKind::ConjugateResidual => "CR",
            SolverKind::GaussSeidel => "GS",
            SolverKind::Sor => "SOR",
            SolverKind::Gmres => "GMRES",
        }
    }

    /// The convergence criterion the paper's Table I lists for this solver.
    pub fn criterion(self) -> Criterion {
        match self {
            SolverKind::Jacobi | SolverKind::GaussSeidel => Criterion::StrictlyDiagonallyDominant,
            SolverKind::ConjugateGradient | SolverKind::PreconditionedCg | SolverKind::Sor => {
                Criterion::SymmetricPositiveDefinite
            }
            SolverKind::BiCgStab | SolverKind::BiCg => Criterion::NonSymmetric,
            SolverKind::ConjugateResidual => Criterion::SymmetricPositiveDefinite,
            SolverKind::Gmres => Criterion::Any,
        }
    }
}

impl fmt::Display for SolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Structural requirement on the coefficient matrix for convergence
/// (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Criterion {
    /// `∀i, Σ_{j≠i} |A_ij| < |A_ii|` (paper Eq. 1).
    StrictlyDiagonallyDominant,
    /// `Aᵀ = A` with all eigenvalues positive (paper Eq. 2–3).
    SymmetricPositiveDefinite,
    /// `Aᵀ ≠ A` (paper Eq. 4).
    NonSymmetric,
    /// Symmetric or non-symmetric, positive definite (GMRES row of Table I).
    Any,
}

impl fmt::Display for Criterion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Criterion::StrictlyDiagonallyDominant => "strictly diagonally dominant",
            Criterion::SymmetricPositiveDefinite => "symmetric, positive definite",
            Criterion::NonSymmetric => "non-symmetric",
            Criterion::Any => "symmetric and non-symmetric",
        };
        f.write_str(s)
    }
}

/// The full paper Table I as static data: `(solver, criterion)` rows,
/// including solvers this workspace does not execute.
pub fn paper_table1() -> Vec<(&'static str, &'static str)> {
    vec![
        ("Jacobi", "Strictly Diagonally Dominant"),
        ("Gauss-Seidel", "Strictly Diagonally Dominant"),
        ("Successive Over Relaxation", "Symmetric, Positive Definite"),
        ("CG", "Symmetric, Positive Definite"),
        ("Preconditioned CG", "Negative Definite"),
        ("Conjugate Residual", "Hermitian"),
        ("BiCG", "Non-symmetric"),
        ("BiCG-Stabilized", "Non-symmetric"),
        ("Two Sided Lanczos", "Non-symmetric"),
        (
            "General Method of Residual",
            "Symmetric and Non-symmetric, Positive Definite",
        ),
        (
            "Concus, Golub and Widlund",
            "Nearly symmetric, Positive Definite",
        ),
    ]
}

/// Checks whether `report` satisfies the *checkable* part of `criterion`.
///
/// Like the paper's Matrix Structure unit, positive definiteness is not
/// verified (eigenvalue computation is too expensive in hardware); for
/// [`Criterion::SymmetricPositiveDefinite`] only symmetry is tested
/// (Section IV-B: "for CG, Acamar only checks the symmetry property").
pub fn satisfies(report: &StructureReport, criterion: Criterion) -> bool {
    match criterion {
        Criterion::StrictlyDiagonallyDominant => report.strictly_diagonally_dominant,
        Criterion::SymmetricPositiveDefinite => report.symmetric,
        Criterion::NonSymmetric => !report.symmetric,
        Criterion::Any => true,
    }
}

/// Recommends a solver from the structural report, mirroring the paper's
/// Matrix Structure unit decision:
///
/// 1. strictly diagonally dominant → Jacobi;
/// 2. else symmetric → CG (symmetry is the only PD proxy checked);
/// 3. else → BiCG-STAB.
pub fn recommend(report: &StructureReport) -> SolverKind {
    // Mixed-sign dominant diagonals satisfy the Jacobi criterion too.
    if report.strictly_diagonally_dominant {
        SolverKind::Jacobi
    } else if report.symmetric {
        SolverKind::ConjugateGradient
    } else {
        SolverKind::BiCgStab
    }
}

/// The order in which the Solver Modifier tries alternatives after `first`
/// diverges: the remaining Acamar solvers, most-general last (Section
/// IV-B, Solver Modifier unit: "assigning the solver whose corresponding
/// bit is low").
pub fn fallback_order(first: SolverKind) -> Vec<SolverKind> {
    let mut order = vec![first];
    // Preference among the remaining solvers: BiCG-STAB before CG before
    // Jacobi (most to least generally applicable), preserving the paper's
    // bit-scan behavior of trying every untried solver exactly once.
    for kind in [
        SolverKind::BiCgStab,
        SolverKind::ConjugateGradient,
        SolverKind::Jacobi,
    ] {
        if kind != first {
            order.push(kind);
        }
    }
    order
}

/// [`fallback_order`] over the extended solver set: the Acamar trio
/// first (unchanged relative order), then [`SolverKind::Sor`] as the
/// final stationary-method fallback. Used by the rescue ladder's
/// NextSolver rung — the one place SOR is reached without being forced —
/// so a fourth genuinely different iteration is available before
/// escalating to preconditioning/GMRES.
pub fn extended_fallback_order(first: SolverKind) -> Vec<SolverKind> {
    let mut order = fallback_order(first);
    if !order.contains(&SolverKind::Sor) {
        order.push(SolverKind::Sor);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_sparse::{analysis, generate, generate::RowDistribution};

    #[test]
    fn extended_fallback_appends_sor_once() {
        for first in SolverKind::ACAMAR {
            let order = extended_fallback_order(first);
            assert_eq!(order.len(), 4);
            assert_eq!(order.last(), Some(&SolverKind::Sor));
            let base = fallback_order(first);
            assert_eq!(&order[..3], &base[..]);
        }
        // SOR as the primary does not duplicate itself.
        let order = extended_fallback_order(SolverKind::Sor);
        assert_eq!(order.iter().filter(|&&k| k == SolverKind::Sor).count(), 1);
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(SolverKind::Jacobi.to_string(), "JB");
        assert_eq!(SolverKind::BiCgStab.label(), "BiCG-STAB");
        assert_eq!(
            Criterion::StrictlyDiagonallyDominant.to_string(),
            "strictly diagonally dominant"
        );
    }

    #[test]
    fn table1_has_eleven_rows() {
        let t = paper_table1();
        assert_eq!(t.len(), 11);
        assert!(t.iter().any(|(s, _)| *s == "BiCG-Stabilized"));
    }

    #[test]
    fn recommend_dominant_matrix_gets_jacobi() {
        let a = generate::diagonally_dominant::<f64>(
            40,
            RowDistribution::Uniform { min: 2, max: 5 },
            1.5,
            1,
        );
        let r = analysis::analyze(&a);
        assert_eq!(recommend(&r), SolverKind::Jacobi);
    }

    #[test]
    fn recommend_symmetric_gets_cg() {
        let a = generate::jacobi_divergent_spd::<f64>(30, 0.7, 0, 0.0, 2);
        let r = analysis::analyze(&a);
        assert_eq!(recommend(&r), SolverKind::ConjugateGradient);
    }

    #[test]
    fn recommend_nonsymmetric_gets_bicgstab() {
        let a = generate::convection_diffusion_2d::<f64>(8, 8, 2.0);
        let r = analysis::analyze(&a);
        // weakly (not strictly) dominant and non-symmetric
        assert_eq!(recommend(&r), SolverKind::BiCgStab);
    }

    #[test]
    fn satisfies_checks_the_checkable_part() {
        let a = generate::jacobi_divergent_spd::<f64>(30, 0.7, 0, 0.0, 2);
        let r = analysis::analyze(&a);
        assert!(satisfies(&r, Criterion::SymmetricPositiveDefinite));
        assert!(!satisfies(&r, Criterion::StrictlyDiagonallyDominant));
        assert!(!satisfies(&r, Criterion::NonSymmetric));
        assert!(satisfies(&r, Criterion::Any));
    }

    #[test]
    fn fallback_order_tries_each_solver_once() {
        for first in SolverKind::ACAMAR {
            let order = fallback_order(first);
            assert_eq!(order.len(), 3);
            assert_eq!(order[0], first);
            let mut sorted = order.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicates in {order:?}");
        }
    }

    #[test]
    fn criterion_mapping_matches_paper() {
        assert_eq!(
            SolverKind::Jacobi.criterion(),
            Criterion::StrictlyDiagonallyDominant
        );
        assert_eq!(
            SolverKind::ConjugateGradient.criterion(),
            Criterion::SymmetricPositiveDefinite
        );
        assert_eq!(SolverKind::BiCgStab.criterion(), Criterion::NonSymmetric);
    }
}
