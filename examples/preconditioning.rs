//! Solver shoot-out on a stiff SPD system: plain CG vs diagonal (Jacobi)
//! PCG vs IC(0)-PCG.
//!
//! The paper's Table I lists all of these methods; Acamar's hardware
//! implements CG, and IC(0)-PCG is the `SolverKind` the rescue ladder's
//! preconditioned rung reaches for the same `Ax = b` problems. This
//! example shows why preconditioning matters on badly scaled systems — and
//! why the paper's solver-selection problem is real (every method has a
//! regime).
//!
//! Run with `cargo run --release --example preconditioning`.

use acamar::prelude::*;
use acamar::solvers::{
    conjugate_gradient, ic0_preconditioned_cg, preconditioned_cg, ConvergenceSummary,
};

fn main() -> Result<(), SparseError> {
    // An SPD system with diagonal entries spread over 6 decades: plain CG
    // crawls, scaling-aware preconditioners flatten the spectrum.
    let a = generate::ill_conditioned_spd::<f64>(1000, 1e6, 3, 42);
    let b = vec![1.0; a.nrows()];
    let criteria = ConvergenceCriteria::paper().with_max_iterations(20_000);

    println!(
        "system: n = {}, nnz = {}, diagonal spread ~1e6\n",
        a.nrows(),
        a.nnz()
    );
    println!(
        "{:<22} {:>10} {:>12} {:>14} {:>10}",
        "method", "iterations", "residual", "SpMV-equiv ops", "rate"
    );

    let report = |name: &str, rep: &SolveReport<f64>| {
        let s = ConvergenceSummary::from_history(&rep.residual_history, 20);
        println!(
            "{:<22} {:>10} {:>12.2e} {:>14} {:>10.4}",
            name,
            rep.iterations,
            rep.final_residual(),
            rep.counts.spmv_calls,
            s.rate
        );
    };

    let mut k = SoftwareKernels::new();
    let cg = conjugate_gradient(&a, &b, None, &criteria, &mut k)?;
    report("CG", &cg);

    let mut k = SoftwareKernels::new();
    let pcg = preconditioned_cg(&a, &b, None, &criteria, &mut k)?;
    report("PCG (diagonal)", &pcg);

    let mut k = SoftwareKernels::new();
    let ic0 = ic0_preconditioned_cg(&a, &b, None, &criteria, &mut k)?;
    report("PCG (IC(0))", &ic0);

    assert!(pcg.converged() && ic0.converged());
    assert!(
        pcg.iterations <= cg.iterations,
        "diagonal scaling must help on this system"
    );
    println!(
        "\nreading: the diagonal preconditioner absorbs the 1e6 scaling \
         almost entirely; IC(0) does at least as well at higher per-\
         iteration cost. No single method dominates every regime — the \
         premise of Acamar's reconfigurable solver selection."
    );
    Ok(())
}
