//! Multi-Stage Iterative Decision (MSID) chain — paper Algorithm 4.
//!
//! The MSID chain reduces the reconfiguration rate of the Dynamic SpMV
//! Kernel: at each stage, wherever the relative difference between
//! successive tBuffer entries is within `tolerance`, the later entry is
//! replaced by its predecessor (from the *previous* stage's buffer, so
//! equalization propagates one set per stage — Fig. 4). After `rOpt`
//! stages, runs of similar unroll factors have collapsed to a single
//! value, and the kernel only reconfigures at the remaining boundaries.

use crate::trace::TBuffer;

/// The MSID chain unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsidChain {
    /// Number of stages (`rOpt`; 0 disables the optimization).
    pub stages: usize,
    /// Relative tolerance for considering successive unroll factors equal.
    pub tolerance: f64,
}

impl MsidChain {
    /// Creates a chain with `stages` stages and the given `tolerance`.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is negative or not finite.
    pub fn new(stages: usize, tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance >= 0.0,
            "tolerance must be a non-negative finite number"
        );
        MsidChain { stages, tolerance }
    }

    /// Applies the chain to a raw unroll-factor sequence, returning the
    /// optimized sequence (paper Algorithm 4, lines 10–14, iterated
    /// `rOpt` times).
    pub fn optimize_factors(&self, factors: &[usize]) -> Vec<usize> {
        let mut prev: Vec<usize> = factors.to_vec();
        for _ in 0..self.stages {
            if prev.len() < 2 {
                break;
            }
            let mut next = prev.clone();
            for k in 1..prev.len() {
                let a = prev[k - 1] as f64;
                let b = prev[k] as f64;
                let diff = (b / a - 1.0).abs();
                if diff <= self.tolerance {
                    next[k] = prev[k - 1];
                }
            }
            if next == prev {
                break; // converged early
            }
            prev = next;
        }
        prev
    }

    /// Applies the chain to a tBuffer in place, returning the number of
    /// reconfigurations per pass before and after.
    pub fn optimize(&self, tbuffer: &mut TBuffer) -> (usize, usize) {
        let before = tbuffer.reconfigurations_per_pass();
        let optimized = self.optimize_factors(tbuffer.unrolls());
        tbuffer.set_unrolls(optimized);
        (before, tbuffer.reconfigurations_per_pass())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_stages_is_identity() {
        let chain = MsidChain::new(0, 0.6);
        assert_eq!(chain.optimize_factors(&[4, 6, 2, 10]), vec![4, 6, 2, 10]);
    }

    #[test]
    fn figure4_style_example_reduces_reconfigurations() {
        // tolerance 0.6 (the figure's setting): 6/4-1 = 0.5 <= 0.6 merges,
        // 2/6-1 = -0.67 keeps, 10/2-1 = 4 keeps, ...
        let chain = MsidChain::new(1, 0.6);
        let out = chain.optimize_factors(&[4, 6, 2, 10]);
        assert_eq!(out, vec![4, 4, 2, 10]);
        let changes_before = 3;
        let changes_after = out.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(changes_after < changes_before);
    }

    #[test]
    fn propagation_takes_one_stage_per_set() {
        // A gentle ramp within tolerance collapses progressively.
        let ramp = [10usize, 11, 12, 13];
        let one = MsidChain::new(1, 0.15).optimize_factors(&ramp);
        assert_eq!(one, vec![10, 10, 11, 12]);
        let two = MsidChain::new(2, 0.15).optimize_factors(&ramp);
        assert_eq!(two, vec![10, 10, 10, 11]);
        let full = MsidChain::new(8, 0.15).optimize_factors(&ramp);
        assert_eq!(full, vec![10, 10, 10, 10]);
    }

    #[test]
    fn reconfiguration_rate_is_monotone_nonincreasing_in_stages() {
        // Fig. 5: more stages never increase the reconfiguration rate.
        let factors: Vec<usize> = (0..64).map(|i| 3 + ((i * 7919) % 11) as usize).collect();
        let mut last = usize::MAX;
        for stages in 0..12 {
            let out = MsidChain::new(stages, 0.15).optimize_factors(&factors);
            let changes = out.windows(2).filter(|w| w[0] != w[1]).count();
            assert!(changes <= last, "stage {stages}: {changes} > {last}");
            last = changes;
        }
    }

    #[test]
    fn rate_flattens_at_high_stage_counts() {
        // Fig. 5: "becomes almost constant after rOpt = 8".
        let factors: Vec<usize> = (0..256).map(|i| 2 + ((i * 2654435761usize) % 13)).collect();
        let at8 = MsidChain::new(8, 0.15).optimize_factors(&factors);
        let at32 = MsidChain::new(32, 0.15).optimize_factors(&factors);
        let c8 = at8.windows(2).filter(|w| w[0] != w[1]).count();
        let c32 = at32.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(c32 as f64 >= 0.8 * c8 as f64, "c8={c8} c32={c32}");
    }

    #[test]
    fn zero_tolerance_only_merges_exact_equals() {
        let chain = MsidChain::new(4, 0.0);
        assert_eq!(chain.optimize_factors(&[4, 4, 5, 5]), vec![4, 4, 5, 5]);
    }

    #[test]
    fn short_buffers_are_untouched() {
        let chain = MsidChain::new(8, 0.5);
        assert_eq!(chain.optimize_factors(&[7]), vec![7]);
        assert_eq!(chain.optimize_factors(&[]), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "tolerance must be")]
    fn negative_tolerance_rejected() {
        let _ = MsidChain::new(1, -0.1);
    }

    #[test]
    fn optimize_updates_tbuffer_counts() {
        use crate::trace::RowLengthTrace;
        use acamar_sparse::CooMatrix;
        let mut coo = CooMatrix::<f64>::new(8, 16);
        let counts = [4usize, 5, 4, 5, 12, 12, 3, 3];
        for (i, &c) in counts.iter().enumerate() {
            for j in 0..c {
                coo.push(i, j, 1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let mut t = RowLengthTrace::new(8, 64).trace(a.row_ptr());
        let chain = MsidChain::new(8, 0.3);
        let (before, after) = chain.optimize(&mut t);
        assert!(after <= before, "before {before} after {after}");
        // 4,5 merge (diff 0.25 <= 0.3); 12 stays; 3 stays
        assert_eq!(t.unrolls(), &[4, 4, 4, 4, 12, 12, 3, 3]);
    }
}
