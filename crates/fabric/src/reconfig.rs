//! Dynamic partial reconfiguration (Xilinx DFX) model.
//!
//! The paper uses Nested DFX on the Alveo U55C: the Reconfigurable Solver
//! unit is one reconfigurable region, and the Dynamic SpMV Kernel is a
//! nested region within it (Section VIII-A). Bitstreams stream through
//! ICAP at 6.4 Gb/s, so reconfiguration time is
//! `bitstream bits / 6.4 Gb/s` — exactly what this controller charges.

use crate::cost::bitstream_bits;
use crate::spec::{FabricSpec, ResourceVector};

/// Which reconfigurable region an event targeted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// The outer region holding a whole solver (JB/CG/BiCG-STAB swap).
    Solver,
    /// The nested region holding the Dynamic SpMV Kernel (unroll swap).
    SpmvKernel,
}

/// Kernel-clock cycles to stream the partial bitstream of a module
/// occupying `rv` through ICAP — the one place a swap is priced.
pub(crate) fn swap_cycles(spec: &FabricSpec, rv: &ResourceVector) -> u64 {
    spec.icap_cycles(bitstream_bits(rv))
}

/// Events and ICAP cycles charged to one region.
#[derive(Debug, Clone, Copy, Default)]
struct RegionTotals {
    count: usize,
    cycles: u64,
}

/// Tracks reconfiguration counts and their cumulative cost per region.
///
/// The controller keeps totals only — it sits in the solver loop, where a
/// swap happens at every unroll change of every SpMV. The per-event view
/// (which unroll, which set, at which cycle) is carried by the
/// [`ExecutionTrace`](crate::ExecutionTrace) and the telemetry stream.
#[derive(Debug, Clone)]
pub struct ReconfigController {
    spec: FabricSpec,
    /// Indexed by `RegionKind as usize`.
    totals: [RegionTotals; 2],
    aborts: usize,
    aborted_cycles: u64,
}

impl ReconfigController {
    /// Creates a controller for `spec`.
    pub fn new(spec: FabricSpec) -> Self {
        ReconfigController {
            spec,
            totals: [RegionTotals::default(); 2],
            aborts: 0,
            aborted_cycles: 0,
        }
    }

    /// Records a reconfiguration of `region` to a module occupying `rv`,
    /// returning the cycles charged.
    pub fn reconfigure(&mut self, region: RegionKind, rv: &ResourceVector) -> u64 {
        let cycles = swap_cycles(&self.spec, rv);
        self.charge(region, cycles);
        cycles
    }

    /// Records a reconfiguration of `region` whose [`swap_cycles`] the
    /// caller already holds.
    pub(crate) fn charge(&mut self, region: RegionKind, cycles: u64) {
        let totals = &mut self.totals[region as usize];
        totals.count += 1;
        totals.cycles += cycles;
    }

    /// Records an *aborted* reconfiguration of `region`: a partial
    /// bitstream of `cycles` ICAP cycles streamed but the swap failed,
    /// leaving the previously loaded module active. The wasted streaming
    /// time is still wall-clock stall, so it is charged like a successful
    /// event; the caller must not update its notion of the loaded
    /// configuration.
    pub(crate) fn record_abort(&mut self, region: RegionKind, cycles: u64) {
        self.charge(region, cycles);
        self.aborts += 1;
        self.aborted_cycles += cycles;
    }

    /// Number of aborted reconfiguration attempts.
    pub fn abort_count(&self) -> usize {
        self.aborts
    }

    /// ICAP cycles wasted streaming bitstreams whose swap aborted.
    pub fn aborted_cycles(&self) -> u64 {
        self.aborted_cycles
    }

    /// Number of events targeting `region` (aborted attempts included —
    /// they stream the same bits and stall the same cycles).
    pub fn count(&self, region: RegionKind) -> usize {
        self.totals[region as usize].count
    }

    /// Cycles spent reconfiguring `region`.
    pub fn cycles(&self, region: RegionKind) -> u64 {
        self.totals[region as usize].cycles
    }

    /// Total cycles spent reconfiguring.
    pub fn total_cycles(&self) -> u64 {
        self.totals.iter().map(|t| t.cycles).sum()
    }

    /// Total seconds spent reconfiguring.
    pub fn total_seconds(&self) -> f64 {
        self.spec.cycles_to_seconds(self.total_cycles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::spmv_engine;

    #[test]
    fn reconfigure_charges_icap_time() {
        let mut c = ReconfigController::new(FabricSpec::alveo_u55c());
        let cycles = c.reconfigure(RegionKind::SpmvKernel, &spmv_engine(8));
        assert!(cycles > 0);
        assert_eq!(c.total_cycles(), cycles);
        assert_eq!(c.count(RegionKind::SpmvKernel), 1);
        assert_eq!(c.cycles(RegionKind::SpmvKernel), cycles);
        assert_eq!(c.count(RegionKind::Solver), 0);
        assert_eq!(c.cycles(RegionKind::Solver), 0);
    }

    #[test]
    fn aborted_swaps_still_cost_icap_time() {
        let mut c = ReconfigController::new(FabricSpec::alveo_u55c());
        let ok = c.reconfigure(RegionKind::SpmvKernel, &spmv_engine(4));
        let wasted = swap_cycles(&FabricSpec::alveo_u55c(), &spmv_engine(4));
        assert_eq!(ok, wasted, "the failed stream moves the same bits");
        c.record_abort(RegionKind::SpmvKernel, wasted);
        assert_eq!(c.abort_count(), 1);
        assert_eq!(c.aborted_cycles(), wasted);
        assert_eq!(c.total_cycles(), ok + wasted);
        assert_eq!(c.count(RegionKind::SpmvKernel), 2);
    }

    #[test]
    fn bigger_regions_cost_more() {
        let mut c = ReconfigController::new(FabricSpec::alveo_u55c());
        let small = c.reconfigure(RegionKind::SpmvKernel, &spmv_engine(2));
        let large = c.reconfigure(RegionKind::Solver, &spmv_engine(64));
        assert!(large > small);
        assert_eq!(c.total_cycles(), small + large);
        assert_eq!(c.cycles(RegionKind::Solver), large);
        assert!(c.total_seconds() > 0.0);
    }
}
