//! A warm Jacobi set-up allocates a fixed, small number of times.
//!
//! Jacobi is the one solver that multiplies by a second matrix
//! (`T = D⁻¹(L + U)`). With the pattern's `DerivedPlan` memo installed —
//! what production runs — everything about `T` but its values is cached
//! and the values land in the workspace's operand slot, so a warm solve
//! allocates for nothing but what escapes it. Without a memo the split is
//! rebuilt per solve: five allocations more. The counts below are the
//! whole solve's — with a warm buffer pool and a one-iteration budget,
//! set-up is all that is left — and they must not depend on the matrix.

use acamar::solvers::{jacobi, ConvergenceCriteria, DerivedPlan, SoftwareKernels, WorkspaceHandle};
use acamar::sparse::generate::{self, RowDistribution};
use acamar::sparse::BandHint;
use std::sync::Arc;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// Allocations of the third one-iteration Jacobi solve on a strictly
/// dominant system of `n` rows: two warm-ups settle the buffer pool (the
/// first fills it — and the memo, if there is one — the second replaces
/// the escaped solution buffer).
fn warm_setup_allocations(n: usize, rows: RowDistribution, memoised: bool) -> u64 {
    let a = generate::diagonally_dominant::<f64>(n, rows, 1.5, 7);
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
    for _ in 0..2 {
        jacobi(&a, &b, None, &criteria, &mut kernels).expect("square system");
    }
    let before = allocations();
    let report = jacobi(&a, &b, None, &criteria, &mut kernels).expect("square system");
    let spent = allocations() - before;
    assert_eq!(report.iterations, 1);
    spent
}

#[test]
fn a_warm_jacobi_set_up_allocates_a_fixed_small_number_of_times() {
    let small = RowDistribution::Uniform { min: 2, max: 6 };
    let large = RowDistribution::Uniform { min: 1, max: 40 };
    // Memoised: the pooled buffer that replaces the solution the previous
    // solve kept, and the one-entry residual history.
    assert_eq!(warm_setup_allocations(300, small, true), 2);
    assert_eq!(warm_setup_allocations(3000, large, true), 2);
    // No memo: the split's row_ptr / col_idx / diagonal slots and the two
    // shared arrays made from the first two, on top of those two. `T`'s
    // values are pooled either way.
    assert_eq!(warm_setup_allocations(300, small, false), 7);
    assert_eq!(warm_setup_allocations(3000, large, false), 7);
}
