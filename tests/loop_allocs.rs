//! A warm solver loop and a warm compiled SpMV never touch the heap.
//!
//! With the tolerance pinned to zero a solve stops only when its
//! iteration budget runs out, so doubling the budget doubles the loop's
//! work while everything outside the loop — the report, the history
//! vector, the solution that escapes — stays what it was. The same
//! allocation count at both budgets is zero allocations per iteration.

use acamar::core::{Acamar, AcamarConfig};
use acamar::datasets::suite;
use acamar::fabric::{FabricKernels, FabricSpec, ScheduleEntry, UnrollSchedule};
use acamar::solvers::{
    bicgstab, conjugate_gradient, ic0_preconditioned_cg, jacobi, ConvergenceCriteria, Kernels,
    SoftwareKernels, SolveReport, WorkspaceHandle,
};
use acamar::sparse::generate::{self, RowDistribution};
use acamar::sparse::{CsrMatrix, DeterminismPolicy, SparseError};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// The signature `conjugate_gradient`, `bicgstab`, `jacobi` and [`ic0_pcg`]
/// share.
type Solver<K> = fn(
    &CsrMatrix<f64>,
    &[f64],
    Option<&[f64]>,
    &ConvergenceCriteria,
    &mut K,
) -> Result<SolveReport<f64>, SparseError>;

/// Allocations and iterations of the third solve at `budget`: two
/// warm-ups settle the buffer pool (the first fills it, the second
/// replaces the escaped solution buffer).
fn third_solve<K: Kernels<f64>>(
    a: &CsrMatrix<f64>,
    mut kernels: K,
    solve: Solver<K>,
    budget: usize,
) -> (u64, usize) {
    let b = vec![1.0; a.nrows()];
    let criteria = ConvergenceCriteria {
        tolerance: 0.0,
        ..ConvergenceCriteria::paper()
    }
    .with_max_iterations(budget);
    for _ in 0..2 {
        solve(a, &b, None, &criteria, &mut kernels).expect("square system");
    }
    let before = allocations();
    let report = solve(a, &b, None, &criteria, &mut kernels).expect("square system");
    (allocations() - before, report.iterations)
}

fn assert_loop_allocates_nothing<K: Kernels<f64>>(
    what: &str,
    a: &CsrMatrix<f64>,
    kernels: impl Fn(&CsrMatrix<f64>) -> K,
    solve: Solver<K>,
) {
    let (base, iterations_base) = third_solve(a, kernels(a), solve, 60);
    let (double, iterations_double) = third_solve(a, kernels(a), solve, 120);
    assert!(
        iterations_double > iterations_base,
        "{what}: the larger budget ran {iterations_double} iterations, the smaller {iterations_base}"
    );
    assert_eq!(
        double, base,
        "{what}: allocations over {iterations_double} iterations vs over {iterations_base}"
    );
}

/// IC(0)-PCG in the shared signature. It factors and compiles its
/// substitution schedules inside the solve — the same at either budget.
fn ic0_pcg<K: Kernels<f64>>(
    a: &CsrMatrix<f64>,
    b: &[f64],
    x0: Option<&[f64]>,
    criteria: &ConvergenceCriteria,
    kernels: &mut K,
) -> Result<SolveReport<f64>, SparseError> {
    ic0_preconditioned_cg(a, b, x0, criteria, kernels)
}

fn software(_: &CsrMatrix<f64>) -> SoftwareKernels {
    SoftwareKernels::new().with_workspace(WorkspaceHandle::new())
}

/// The production executor on a schedule that swaps the SpMV region twice
/// per pass: cycle-table replay and the reconfiguration totals must stay
/// off the heap too.
fn fabric(a: &CsrMatrix<f64>) -> FabricKernels {
    let half = a.nrows() / 2;
    let entry = |rows, unroll| ScheduleEntry { rows, unroll };
    let schedule = UnrollSchedule::from_entries(
        a.nrows(),
        vec![entry(0..half, 2), entry(half..a.nrows(), 8)],
    );
    FabricKernels::new(FabricSpec::alveo_u55c(), schedule, 4).with_workspace(WorkspaceHandle::new())
}

#[test]
fn doubling_the_iteration_budget_adds_no_allocation() {
    let spd = generate::poisson2d(40, 40);
    let dominant =
        generate::diagonally_dominant(1200, RowDistribution::Uniform { min: 2, max: 6 }, 1.05, 7);
    // Stops at 86 of the 120: still more loop than 60.
    let nonsymmetric = generate::convection_diffusion_2d(30, 30, 2.0);
    assert_loop_allocates_nothing("cg", &spd, software, conjugate_gradient);
    assert_loop_allocates_nothing("cg on the fabric", &spd, fabric, conjugate_gradient);
    assert_loop_allocates_nothing("jacobi on the fabric", &dominant, fabric, jacobi);
    assert_loop_allocates_nothing("bicgstab", &nonsymmetric, software, bicgstab);
    assert_loop_allocates_nothing("bicgstab on the fabric", &nonsymmetric, fabric, bicgstab);
    assert_loop_allocates_nothing("ic0-pcg on the fabric", &spd, fabric, ic0_pcg);
    assert_loop_allocates_nothing("jacobi", &dominant, software, jacobi);
}

#[test]
fn a_warm_compiled_spmv_allocates_nothing() {
    let acamar = Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper());
    for d in suite() {
        let a = d.matrix_f64();
        // The plan the engine would cache: compiled from the MSID schedule.
        let plan = acamar.analyze(&a).compiled;
        let x = vec![1.0; a.ncols()];
        let mut y = vec![0.0; a.nrows()];
        let mut execute = || {
            plan.execute(DeterminismPolicy::Deterministic, &a, &x, &mut y)
                .expect("the plan matches its matrix")
        };
        execute();
        let before = allocations();
        execute();
        assert_eq!(allocations() - before, 0, "{}", d.name);
    }
}
