//! The rescue ladder: the escalation policy the batch engine climbs when
//! a job's primary Acamar run fails.
//!
//! The Solver Modifier already rescues *divergence* inside one run by
//! switching solvers (paper Fig. 3). The ladder sits a level above it and
//! handles what the modifier cannot: worker panics, injected datapath
//! faults that poison a whole attempt, and budget exhaustion. Each rung
//! re-runs the job a different way with a geometrically shrinking
//! iteration budget, so a hopeless job cannot hold a worker hostage.

use acamar_solvers::{extended_fallback_order, ConvergenceCriteria, SolverKind};

/// One rung of the rescue ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RescueStep {
    /// Re-run the same configuration: recovers transient faults (a
    /// panicked worker, a stuck datapath bit cleared by the region
    /// rewrite) at zero analysis cost.
    RetrySame,
    /// Force the next solver in the Solver Modifier's fallback order that
    /// has not been tried yet.
    NextSolver,
    /// Force the preconditioned solve: IC(0)-PCG through the cached
    /// triangular plans when the pattern is symmetric, diagonal PCG
    /// otherwise (or when the factorization breaks down).
    Preconditioned,
    /// Restarted GMRES, the most robust and most expensive resort.
    GmresLastResort,
}

impl RescueStep {
    /// The full ladder, in climbing order.
    pub const LADDER: [RescueStep; 4] = [
        RescueStep::RetrySame,
        RescueStep::NextSolver,
        RescueStep::Preconditioned,
        RescueStep::GmresLastResort,
    ];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            RescueStep::RetrySame => "retry-same",
            RescueStep::NextSolver => "next-solver",
            RescueStep::Preconditioned => "preconditioned",
            RescueStep::GmresLastResort => "gmres",
        }
    }
}

/// Bounds and backoff governing how far the engine climbs the ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RescuePolicy {
    /// Maximum rescue attempts per job (ladder rungs actually climbed;
    /// the primary run is not counted). Capped at
    /// [`RescueStep::LADDER`]'s length.
    pub max_rescues: usize,
    /// Per-rung multiplier on the iteration budget, so each rescue is
    /// cheaper than the run it rescues. Clamped to `(0, 1]`.
    pub budget_backoff: f64,
    /// Floor the backoff never shrinks the budget below.
    pub min_iterations: usize,
}

impl Default for RescuePolicy {
    fn default() -> Self {
        RescuePolicy {
            max_rescues: RescueStep::LADDER.len(),
            budget_backoff: 0.5,
            min_iterations: 50,
        }
    }
}

impl RescuePolicy {
    /// The rungs this policy will climb, in order.
    pub fn ladder(&self) -> &'static [RescueStep] {
        &RescueStep::LADDER[..self.max_rescues.min(RescueStep::LADDER.len())]
    }

    /// The convergence criteria for the rescue at `depth` (1-based: the
    /// first rescue runs at depth 1), shrinking `base`'s iteration budget
    /// by `budget_backoff^depth` down to `min_iterations`.
    pub fn rung_criteria(&self, base: &ConvergenceCriteria, depth: usize) -> ConvergenceCriteria {
        let backoff = self.budget_backoff.clamp(f64::MIN_POSITIVE, 1.0);
        let scaled = (base.max_iterations as f64 * backoff.powi(depth as i32)).floor() as usize;
        base.with_max_iterations(scaled.max(self.min_iterations))
    }

    /// The solver a rung should force, given the structure unit's
    /// `primary` pick and the kinds already `tried` (primary run
    /// included). `None` means the rung has nothing new to offer and is
    /// skipped without consuming an attempt.
    pub fn solver_for(
        &self,
        step: RescueStep,
        primary: SolverKind,
        tried: &[SolverKind],
    ) -> Option<SolverKind> {
        match step {
            RescueStep::RetrySame => Some(tried.last().copied().unwrap_or(primary)),
            // The extended order is the Solver Modifier's fallback order
            // with SOR appended, so the base solvers are still offered
            // first and existing ladders are unchanged; SOR only surfaces
            // once all three paper solvers have been burned.
            RescueStep::NextSolver => extended_fallback_order(primary)
                .into_iter()
                .find(|k| !tried.contains(k)),
            RescueStep::Preconditioned => (!tried.contains(&SolverKind::PreconditionedCg))
                .then_some(SolverKind::PreconditionedCg),
            RescueStep::GmresLastResort => {
                (!tried.contains(&SolverKind::Gmres)).then_some(SolverKind::Gmres)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ladder_climbs_all_four_rungs() {
        let p = RescuePolicy::default();
        assert_eq!(p.ladder(), &RescueStep::LADDER);
        assert_eq!(
            RescuePolicy {
                max_rescues: 2,
                ..p
            }
            .ladder()
            .len(),
            2
        );
        for s in RescueStep::LADDER {
            assert!(!s.label().is_empty());
        }
    }

    #[test]
    fn budget_backs_off_geometrically_with_a_floor() {
        let p = RescuePolicy::default();
        let base = ConvergenceCriteria::paper().with_max_iterations(1000);
        assert_eq!(p.rung_criteria(&base, 1).max_iterations, 500);
        assert_eq!(p.rung_criteria(&base, 2).max_iterations, 250);
        assert_eq!(p.rung_criteria(&base, 6).max_iterations, 50, "floor");
        assert_eq!(p.rung_criteria(&base, 1).tolerance, base.tolerance);
    }

    #[test]
    fn rungs_pick_solvers_that_add_information() {
        let p = RescuePolicy::default();
        let primary = SolverKind::ConjugateGradient;
        let tried = [SolverKind::ConjugateGradient];
        assert_eq!(
            p.solver_for(RescueStep::RetrySame, primary, &tried),
            Some(SolverKind::ConjugateGradient)
        );
        let next = p
            .solver_for(RescueStep::NextSolver, primary, &tried)
            .unwrap();
        assert_ne!(next, SolverKind::ConjugateGradient);
        assert_eq!(
            p.solver_for(RescueStep::Preconditioned, primary, &tried),
            Some(SolverKind::PreconditionedCg)
        );
        assert_eq!(
            p.solver_for(RescueStep::GmresLastResort, primary, &tried),
            Some(SolverKind::Gmres)
        );
        // With all three paper solvers burned, NextSolver escalates to
        // the extended set's SOR instead of stepping aside.
        let all_three = [
            SolverKind::ConjugateGradient,
            SolverKind::Jacobi,
            SolverKind::BiCgStab,
        ];
        assert_eq!(
            p.solver_for(RescueStep::NextSolver, primary, &all_three),
            Some(SolverKind::Sor)
        );
        let all_four = [
            SolverKind::ConjugateGradient,
            SolverKind::Jacobi,
            SolverKind::BiCgStab,
            SolverKind::Sor,
        ];
        assert_eq!(
            p.solver_for(RescueStep::NextSolver, primary, &all_four),
            None
        );
        // Already-burned rungs step aside instead of repeating themselves.
        let burned = [SolverKind::PreconditionedCg, SolverKind::Gmres];
        assert_eq!(
            p.solver_for(RescueStep::Preconditioned, primary, &burned),
            None
        );
        assert_eq!(
            p.solver_for(RescueStep::GmresLastResort, primary, &burned),
            None
        );
    }
}
