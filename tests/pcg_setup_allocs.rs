//! A warm IC(0)-PCG set-up allocates a fixed, small number of times.
//!
//! IC(0)-preconditioned CG is the one solver that *factors* before it
//! iterates. With the pattern's `DerivedPlan` memo installed — what
//! production runs — the elimination schedule and the substitution plans
//! the factors are laid out in are cached (`Ic0Schedule`), and the two
//! value arrays land in the workspace's operand slot: a warm solve
//! allocates for nothing but what escapes it. Without a memo the schedule
//! and its plans are rebuilt per solve. The counts below are
//! the whole solve's — with a warm buffer pool and a one-iteration budget,
//! set-up is all that is left — and the memoised one must not depend on
//! the matrix.

use acamar::solvers::{
    ic0_preconditioned_cg, ConvergenceCriteria, DerivedPlan, SoftwareKernels, WorkspaceHandle,
};
use acamar::sparse::generate::{self, RowDistribution};
use acamar::sparse::{BandHint, CsrMatrix};
use std::sync::Arc;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// Allocations of the third one-iteration IC(0)-PCG solve on `a`: two
/// warm-ups settle the buffer pool (the first fills it — and the memo, if
/// there is one — the second replaces the escaped solution buffer).
fn warm_setup_allocations(a: &CsrMatrix<f64>, memoised: bool) -> u64 {
    let n = a.nrows();
    let b = vec![1.0; n];
    let criteria = ConvergenceCriteria::paper().with_max_iterations(1);
    let mut kernels = SoftwareKernels::new().with_workspace(WorkspaceHandle::new());
    if memoised {
        let hints = vec![BandHint {
            rows: 0..n,
            unroll: 8,
        }];
        kernels = kernels.with_derived_plan(Arc::new(DerivedPlan::new(hints)));
    }
    let mut solve =
        || ic0_preconditioned_cg(a, &b, None, &criteria, &mut kernels).expect("square system");
    for _ in 0..2 {
        solve();
    }
    let before = allocations();
    let report = solve();
    let spent = allocations() - before;
    assert_eq!(report.iterations, 1);
    spent
}

#[test]
fn a_warm_ic0_pcg_set_up_allocates_a_fixed_small_number_of_times() {
    let stencil = generate::poisson2d::<f64>(20, 15);
    let large_stencil = generate::poisson3d::<f64>(12, 12, 12);
    let ragged = generate::spd_from_pattern::<f64>(
        900,
        RowDistribution::Uniform { min: 1, max: 40 },
        0.3,
        7,
    );
    // Memoised: the pooled buffer that replaces the solution the previous
    // solve kept, and the one-entry residual history — whatever the matrix.
    assert_eq!(warm_setup_allocations(&stencil, true), 2);
    assert_eq!(warm_setup_allocations(&large_stencil, true), 2);
    assert_eq!(warm_setup_allocations(&ragged, true), 2);
    // No memo: the schedule's eight working arrays (`L`'s pattern of two,
    // the two plans' levels and dependency counts, the column map, and the
    // correction list — one block on a stencil, which has no correction to
    // record; a pattern that has some grows the list as it finds them),
    // six per substitution plan (the level widths and their cursors, the
    // row positions, the order, the row offsets, the columns), the three
    // arrays of the layout pass (the slot renumbering, `Lᵀ`'s source slots
    // and its row cursors), and the shared pair of plans. The factors'
    // values are pooled either way.
    let no_memo = 2 + 8 + 12 + 3 + 1;
    assert_eq!(warm_setup_allocations(&stencil, false), no_memo);
    assert_eq!(warm_setup_allocations(&large_stencil, false), no_memo);
    assert!(warm_setup_allocations(&ragged, false) > no_memo);
}
