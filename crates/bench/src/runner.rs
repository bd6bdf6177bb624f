//! Shared experiment running: Acamar, static baselines, and per-pass SpMV
//! statistics over the Table II dataset suite.

use acamar_core::{Acamar, AcamarConfig, AcamarRunReport};
use acamar_datasets::Dataset;
use acamar_fabric::{spmv, FabricSpec, HwRun, SpmvExecution, StaticAccelerator, UnrollSchedule};
use acamar_solvers::{ConvergenceCriteria, SolverKind};
use acamar_sparse::CsrMatrix;

/// The `SpMV_URB` sweep used by Figs. 6 and 7.
pub const URB_SWEEP: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The representative static baseline for single-point comparisons
/// (Figs. 9 and 10).
pub const URB_REPRESENTATIVE: usize = 16;

/// Convergence criteria used by every experiment (the paper's policy with
/// a budget sized for the scaled datasets).
pub fn criteria() -> ConvergenceCriteria {
    acamar_datasets::verify::table2_criteria()
}

/// Acamar configuration used by every experiment (paper defaults).
pub fn config() -> AcamarConfig {
    AcamarConfig::paper().with_criteria(criteria())
}

/// The device model.
pub fn spec() -> FabricSpec {
    FabricSpec::alveo_u55c()
}

/// The solver a static baseline runs for `d`: the paper "optimistically
/// chooses the solver that offers convergence for the given dataset"
/// (Section VI-A), so the first converging solver of the Table II triple.
fn baseline_solver(d: &Dataset) -> SolverKind {
    if d.expected.jacobi {
        SolverKind::Jacobi
    } else if d.expected.cg {
        SolverKind::ConjugateGradient
    } else {
        SolverKind::BiCgStab
    }
}

/// Acamar and a sweep of static baselines on one dataset.
#[derive(Debug)]
pub struct DatasetRun {
    /// The dataset.
    pub dataset: Dataset,
    /// Acamar's run report.
    pub acamar: AcamarRunReport<f32>,
    /// `(SpMV_URB, run)` for each baseline in the sweep.
    pub baselines: Vec<(usize, HwRun<f32>)>,
}

impl DatasetRun {
    /// The baseline run at a specific unroll factor.
    pub fn baseline(&self, urb: usize) -> Option<&HwRun<f32>> {
        self.baselines
            .iter()
            .find(|(u, _)| *u == urb)
            .map(|(_, r)| r)
    }
}

/// Runs Acamar plus static baselines at each `urbs` entry on `d`.
///
/// Per the paper's Fig. 6 setup, "for the baseline, we assume the same
/// solver that is being used in Acamar" — so the static designs run
/// Acamar's final solver (falling back to the Table II choice if Acamar
/// somehow diverged).
pub fn run_dataset(d: &Dataset, urbs: &[usize]) -> DatasetRun {
    let a = d.matrix();
    let b = d.rhs();
    let acamar = Acamar::new(spec(), config())
        .run(&a, &b)
        .expect("dataset shapes are valid");
    let solver = if acamar.converged() {
        acamar.final_solver()
    } else {
        baseline_solver(d)
    };
    let baselines = urbs
        .iter()
        .map(|&u| {
            let run = StaticAccelerator::new(spec(), solver, u)
                .run(&a, &b, &criteria())
                .expect("dataset shapes are valid");
            (u, run)
        })
        .collect();
    DatasetRun {
        dataset: d.clone(),
        acamar,
        baselines,
    }
}

/// Models one SpMV pass of `a` under `schedule` (no solver numerics) —
/// the per-pass utilization/latency view used by Figs. 2, 8, 11, and 12.
pub fn spmv_pass(a: &CsrMatrix<f32>, schedule: &UnrollSchedule) -> SpmvExecution {
    let device = spec();
    schedule
        .entries()
        .iter()
        .fold(SpmvExecution::default(), |acc, e| {
            acc.merge(&spmv::execute_rows(a, e.rows.clone(), e.unroll, &device))
        })
}

/// Builds Acamar's fine-grained plan for `a` under `cfg` and returns the
/// per-pass SpMV execution it yields.
pub fn acamar_pass(a: &CsrMatrix<f32>, cfg: &AcamarConfig) -> (SpmvExecution, usize) {
    let plan = acamar_core::FineGrainedReconfigUnit::new(cfg.clone()).plan(a);
    let exec = spmv_pass(a, &plan.schedule);
    (exec, plan.schedule.changes_per_pass())
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_datasets::by_id;

    #[test]
    fn baseline_solver_is_first_converging() {
        assert_eq!(baseline_solver(&by_id("Wa").unwrap()), SolverKind::Jacobi);
        assert_eq!(
            baseline_solver(&by_id("2C").unwrap()),
            SolverKind::ConjugateGradient
        );
        assert_eq!(baseline_solver(&by_id("If").unwrap()), SolverKind::BiCgStab);
    }

    #[test]
    fn run_dataset_produces_converging_runs() {
        let d = by_id("Wa").unwrap();
        let run = run_dataset(&d, &[1, 16]);
        assert!(run.acamar.converged());
        assert!(run.baseline(1).unwrap().solve.converged());
        assert!(run.baseline(16).unwrap().solve.converged());
        assert!(run.baseline(2).is_none());
    }

    #[test]
    fn acamar_pass_underutilization_beats_oversized_uniform() {
        let d = by_id("At").unwrap();
        let a = d.matrix();
        let (acamar_exec, _) = acamar_pass(&a, &config());
        let uniform = spmv_pass(&a, &UnrollSchedule::uniform(a.nrows(), 32));
        assert!(acamar_exec.underutilization() < uniform.underutilization());
    }
}
