//! Solver Modifier unit (paper Section IV-B).
//!
//! When the Reconfigurable Solver diverges, the Solver Modifier selects an
//! alternative solver "by assigning the solver whose corresponding bit is
//! low in a temporary register", and triggers the Initialize unit to
//! reset. This module models that register.

use acamar_solvers::{fallback_order, SolverKind};

/// Tracks which of Acamar's three solvers have been attempted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverModifier {
    order: Vec<SolverKind>,
    tried: u8,
}

impl SolverModifier {
    /// Creates the modifier with `first` as the Matrix Structure unit's
    /// initial recommendation.
    pub fn new(first: SolverKind) -> Self {
        SolverModifier {
            order: fallback_order(first),
            tried: 0,
        }
    }

    /// Returns the next untried solver (marking it tried), or `None` when
    /// every solver has been attempted.
    pub fn next_solver(&mut self) -> Option<SolverKind> {
        for (i, &kind) in self.order.iter().enumerate() {
            let bit = 1u8 << i;
            if self.tried & bit == 0 {
                self.tried |= bit;
                return Some(kind);
            }
        }
        None
    }

    /// Solvers attempted so far, in order.
    pub fn attempted(&self) -> Vec<SolverKind> {
        self.order
            .iter()
            .enumerate()
            .filter(|(i, _)| self.tried & (1 << i) != 0)
            .map(|(_, &k)| k)
            .collect()
    }

    /// `true` if every solver has been attempted.
    pub fn exhausted(&self) -> bool {
        self.tried.count_ones() as usize >= self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yields_first_recommendation_first() {
        let mut m = SolverModifier::new(SolverKind::ConjugateGradient);
        assert_eq!(m.next_solver(), Some(SolverKind::ConjugateGradient));
        assert!(!m.exhausted());
    }

    #[test]
    fn cycles_through_all_three_then_none() {
        let mut m = SolverModifier::new(SolverKind::Jacobi);
        let mut seen = Vec::new();
        while let Some(k) = m.next_solver() {
            seen.push(k);
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], SolverKind::Jacobi);
        assert!(seen.contains(&SolverKind::ConjugateGradient));
        assert!(seen.contains(&SolverKind::BiCgStab));
        assert!(m.exhausted());
        assert_eq!(m.next_solver(), None);
        assert_eq!(m.attempted(), seen);
    }
}
