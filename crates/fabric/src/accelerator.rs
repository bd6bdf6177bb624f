//! The static-design baseline accelerator (paper Section V-E).
//!
//! "We compare [Acamar] to a static design that incorporates the same
//! optimized static units as Acamar, as well as a static configuration of
//! the SpMV unit": one fixed solver, one fixed unroll factor
//! (`SpMV_URB`), no reconfiguration.

use crate::kernels::{FabricKernels, FabricRunStats, UnrollSchedule};
use crate::spec::FabricSpec;
use acamar_solvers::{solve_with, ConvergenceCriteria, SolveReport, SolverKind};
use acamar_sparse::{CsrMatrix, Scalar, SparseError};

/// Combined numerical + hardware result of a solve on the fabric model.
#[derive(Debug, Clone)]
pub struct HwRun<T> {
    /// Numerical outcome (iterations, residuals, solution).
    pub solve: SolveReport<T>,
    /// Hardware statistics (cycles, utilization, area).
    pub stats: FabricRunStats,
    /// Clock used to convert cycles to time.
    pub clock_mhz: f64,
}

impl<T> HwRun<T> {
    /// Wall-clock seconds of the run, including reconfiguration.
    pub fn total_seconds(&self) -> f64 {
        self.stats.cycles.total() as f64 / (self.clock_mhz * 1e6)
    }

    /// Wall-clock seconds of compute only (the paper's latency metric;
    /// reconfiguration budgets are treated separately — Fig. 13).
    pub fn compute_seconds(&self) -> f64 {
        self.stats.cycles.compute() as f64 / (self.clock_mhz * 1e6)
    }

    /// Sustained GFLOP/s over compute time.
    pub fn gflops(&self) -> f64 {
        let s = self.compute_seconds();
        if s == 0.0 {
            0.0
        } else {
            self.stats.useful_flops as f64 / s / 1e9
        }
    }

    /// Performance efficiency in GFLOPS/mm² (paper Fig. 10), using the
    /// time-weighted instantiated area.
    pub fn gflops_per_mm2(&self) -> f64 {
        if self.stats.avg_area_mm2 == 0.0 {
            0.0
        } else {
            self.gflops() / self.stats.avg_area_mm2
        }
    }
}

/// A fixed-solver, fixed-`SpMV_URB` accelerator.
///
/// # Examples
///
/// ```
/// use acamar_fabric::{FabricSpec, StaticAccelerator};
/// use acamar_solvers::{ConvergenceCriteria, SolverKind};
/// use acamar_sparse::generate;
///
/// let a = generate::poisson2d::<f32>(8, 8);
/// let accel = StaticAccelerator::new(
///     FabricSpec::alveo_u55c(), SolverKind::ConjugateGradient, 16);
/// let run = accel.run(&a, &vec![1.0; 64], &ConvergenceCriteria::paper())?;
/// assert!(run.solve.converged());
/// assert!(run.stats.spmv.underutilization() > 0.5); // URB 16 >> NNZ/row 5
/// # Ok::<(), acamar_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StaticAccelerator {
    spec: FabricSpec,
    solver: SolverKind,
    spmv_urb: usize,
}

impl StaticAccelerator {
    /// Creates a static design running `solver` with `spmv_urb` MAC lanes.
    ///
    /// # Panics
    ///
    /// Panics if `spmv_urb == 0`.
    pub fn new(spec: FabricSpec, solver: SolverKind, spmv_urb: usize) -> Self {
        assert!(spmv_urb > 0, "SpMV_URB must be positive");
        StaticAccelerator {
            spec,
            solver,
            spmv_urb,
        }
    }

    /// The configured solver.
    pub fn solver(&self) -> SolverKind {
        self.solver
    }

    /// Runs the solve on the fabric model.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] for shape problems. Numerical divergence is
    /// reported in `HwRun::solve.outcome` — for a static design there is
    /// no Solver Modifier, so divergence is terminal (the paper notes this
    /// "results in unbounded execution time" for the baseline).
    pub fn run<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        b: &[T],
        criteria: &ConvergenceCriteria,
    ) -> Result<HwRun<T>, SparseError> {
        let schedule = UnrollSchedule::uniform(a.nrows(), self.spmv_urb);
        // The static design's initialize SpMV shares the same fixed
        // engine configuration.
        let mut hw = FabricKernels::new(self.spec.clone(), schedule, self.spmv_urb);
        let solve = solve_with(self.solver, a, b, None, criteria, &mut hw)?;
        let stats = hw.finish();
        Ok(HwRun {
            solve,
            stats,
            clock_mhz: self.spec.clock_mhz,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_sparse::generate::{self, RowDistribution};

    fn criteria() -> ConvergenceCriteria {
        ConvergenceCriteria::paper().with_max_iterations(2000)
    }

    #[test]
    fn static_design_never_reconfigures() {
        let a = generate::poisson2d::<f32>(10, 10);
        let accel =
            StaticAccelerator::new(FabricSpec::alveo_u55c(), SolverKind::ConjugateGradient, 8);
        let run = accel.run(&a, &vec![1.0; 100], &criteria()).unwrap();
        assert!(run.solve.converged());
        assert_eq!(run.stats.spmv_reconfig_events, 0);
        assert_eq!(run.stats.cycles.reconfig, 0);
    }

    #[test]
    fn urb1_is_fully_utilized_but_slow() {
        let a = generate::diagonally_dominant::<f32>(
            256,
            RowDistribution::Uniform { min: 4, max: 24 },
            1.5,
            13,
        );
        let b = vec![1.0_f32; 256];
        let spec = FabricSpec::alveo_u55c();
        let fast = StaticAccelerator::new(spec.clone(), SolverKind::Jacobi, 16)
            .run(&a, &b, &criteria())
            .unwrap();
        let slow = StaticAccelerator::new(spec, SolverKind::Jacobi, 1)
            .run(&a, &b, &criteria())
            .unwrap();
        assert!(slow.solve.converged() && fast.solve.converged());
        assert_eq!(slow.stats.spmv.underutilization(), 0.0);
        assert!(fast.stats.spmv.underutilization() > 0.0);
        assert!(
            slow.stats.cycles.spmv > fast.stats.cycles.spmv,
            "URB=1 must be slower: {} vs {}",
            slow.stats.cycles.spmv,
            fast.stats.cycles.spmv
        );
    }

    #[test]
    fn metrics_are_positive_and_consistent() {
        let a = generate::poisson2d::<f32>(8, 8);
        let accel = StaticAccelerator::new(FabricSpec::alveo_u55c(), SolverKind::BiCgStab, 4);
        let run = accel.run(&a, &vec![1.0; 64], &criteria()).unwrap();
        assert!(run.total_seconds() >= run.compute_seconds());
        assert!(run.gflops() > 0.0);
        assert!(run.gflops_per_mm2() > 0.0);
    }

    #[test]
    #[should_panic(expected = "SpMV_URB must be positive")]
    fn zero_urb_rejected() {
        let _ = StaticAccelerator::new(FabricSpec::alveo_u55c(), SolverKind::Jacobi, 0);
    }
}
