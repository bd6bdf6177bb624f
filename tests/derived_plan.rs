//! The derived-operand memo and the one plan both tiers share, through
//! the engine.
//!
//! Jacobi multiplies by `T = D⁻¹(L + U)`, never by `A`. Everything about
//! `T` but its values — its index arrays, each row's diagonal slot, its
//! compiled plan — lives in a pattern-only memo beside `A`'s plan
//! (`AnalysisArtifacts::derived`): empty after analysis, built by the
//! first Jacobi attempt on the pattern, and only *filled from* by every
//! later one. Whether a solve found the memo full or empty, or found one
//! that does not fit its matrix, must not show in a byte of its answer or
//! a cycle of its charges — and whether any SpMV ran without a plan, or
//! any operand was built past its memo, must be answerable from the
//! telemetry counters, not from a bench run.
//!
//! IC(0)-preconditioned CG keeps its pattern half — the factors' patterns
//! and the elimination schedule — in the same memo, under the same rules:
//! built once by the first attempt, replayed by every later one, bypassed
//! and counted when it does not fit, built afresh for a time step's new
//! pattern, and filled independently of Jacobi's half. The two
//! substitution plans over the factors' patterns join it the first time a
//! factor exists on the pattern, and a forced PCG on them is bitwise the
//! run that compiles its own.

use acamar::core::{Acamar, AcamarConfig, RunOptions};
use acamar::datasets::{suite, StructuralClass};
use acamar::engine::{Engine, SolveJob};
use acamar::fabric::FabricSpec;
use acamar::solvers::{ic0_preconditioned_cg, jacobi, DerivedPlan, SoftwareKernels, SolverKind};
use acamar::sparse::generate::{self, RowDistribution};
use acamar::sparse::{BandHint, CsrMatrix, DeterminismPolicy};
use acamar::telemetry::{Counter, RingRecorder, TelemetrySink};
use std::sync::{Arc, Barrier};

fn acamar() -> Acamar {
    Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper())
}

/// A strictly dominant, pattern-nonsymmetric system: Jacobi's by Table I.
fn dominant(n: usize, seed: u64) -> CsrMatrix<f64> {
    generate::diagonally_dominant(n, RowDistribution::Uniform { min: 2, max: 6 }, 1.5, seed)
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn first_and_second_jacobi_solve_agree_with_each_other_and_with_no_plan_at_all() {
    let (a, b) = (dominant(700, 3), rhs(700));
    let engine = Engine::with_workers(acamar(), 1);
    let cold = engine.solve_one(&a, &b).unwrap();
    let artifacts = engine.cache().get_or_analyze(engine.acamar(), &a);
    let t_plan = Arc::clone(
        artifacts
            .derived
            .get()
            .expect("the cold solve filled the memo"),
    );
    assert_eq!(t_plan.nnz(), a.nnz() - a.nrows());
    let warm = engine.solve_one(&a, &b).unwrap();
    assert!(Arc::ptr_eq(artifacts.derived.get().unwrap(), &t_plan));

    assert_eq!(cold.final_solver(), SolverKind::Jacobi);
    assert_eq!(cold.attempts, warm.attempts);
    assert_eq!(bits(&cold.solve.solution), bits(&warm.solve.solution));
    assert_eq!(cold.solve.residual_history, warm.solve.residual_history);
    assert_eq!(cold.solve.counts, warm.solve.counts);
    assert_eq!(format!("{:?}", cold.stats), format!("{:?}", warm.stats));

    // No plan for either operand: the generic walk, start to finish.
    let criteria = engine.acamar().config().criteria;
    let plain = jacobi(&a, &b, None, &criteria, &mut SoftwareKernels::new()).unwrap();
    assert_eq!(bits(&plain.solution), bits(&warm.solve.solution));
    assert_eq!(plain.residual_history, warm.solve.residual_history);
    assert_eq!(plain.counts, warm.solve.counts);
}

#[test]
fn workers_racing_on_a_cold_pattern_build_the_memo_once() {
    let ring = Arc::new(RingRecorder::new(1 << 12));
    let engine = Engine::with_workers(acamar(), 4).with_recorder(Arc::clone(&ring) as Arc<_>);
    let a = Arc::new(dominant(900, 5));
    let jobs = |count: usize| -> Vec<SolveJob<f64>> {
        (0..count)
            .map(|_| SolveJob::new(Arc::clone(&a), rhs(900)))
            .collect()
    };
    let report = engine.solve_jobs(jobs(16));
    assert_eq!(report.converged, 16);
    let counters = ring.counters();
    assert_eq!(counters[Counter::CacheMisses.index()], 1);
    assert_eq!(counters[Counter::DerivedPlansBuilt.index()], 1);
    assert_eq!(counters[Counter::DerivedSplitRebuilds.index()], 0);
    assert_eq!(counters[Counter::PlanlessSpmvs.index()], 0);
    // Split and plan went in together, for T's pattern.
    let memo = engine.cache().get_or_analyze(engine.acamar(), &*a);
    let split = memo.derived.split().expect("built with the plan");
    assert!(split.has_full_diagonal());
    assert_eq!(split.pattern().nnz(), a.nnz() - 900);
    assert_eq!(memo.derived.get().unwrap().nnz(), split.pattern().nnz());
    // Warm: nothing more is built, and still no SpMV walks without a plan.
    engine.solve_jobs(jobs(8));
    let counters = ring.counters();
    assert_eq!(counters[Counter::DerivedPlansBuilt.index()], 1);
    assert_eq!(counters[Counter::DerivedSplitRebuilds.index()], 0);
    assert_eq!(counters[Counter::PlanlessSpmvs.index()], 0);
    // A second pattern is a second memo.
    engine.solve_one(&dominant(900, 6), &rhs(900)).unwrap();
    assert_eq!(ring.counters()[Counter::DerivedPlansBuilt.index()], 2);
}

#[test]
fn no_solver_kind_runs_without_a_plan() {
    // Symmetric and strictly dominant: every solver converges on it.
    let a: CsrMatrix<f64> =
        generate::spd_from_pattern(300, RowDistribution::Uniform { min: 2, max: 6 }, 0.3, 9);
    let b = rhs(300);
    let acamar = acamar();
    let artifacts = acamar.analyze(&a);
    for solver in SolverKind::ALL {
        let ring = Arc::new(RingRecorder::new(1 << 12));
        let report = acamar
            .run_with_plan_opts(
                &a,
                &b,
                None,
                &artifacts,
                RunOptions {
                    solver: Some(solver),
                    telemetry: TelemetrySink::new(Arc::clone(&ring) as Arc<_>),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert!(report.converged(), "{solver:?}");
        assert_eq!(
            ring.counters()[Counter::PlanlessSpmvs.index()],
            0,
            "{solver:?}"
        );
    }
}

/// `a` without the last off-diagonal entry of each listed row.
fn drop_an_off_diagonal(a: &CsrMatrix<f64>, rows: &[usize]) -> CsrMatrix<f64> {
    let (mut row_ptr, mut cols, mut vals) = (vec![0usize], Vec::new(), Vec::new());
    for i in 0..a.nrows() {
        let (rc, rv) = a.row(i);
        let victim = rows
            .contains(&i)
            .then(|| rc.iter().rposition(|&c| c != i))
            .flatten();
        for (k, (&c, &v)) in rc.iter().zip(rv).enumerate() {
            if Some(k) != victim {
                cols.push(c);
                vals.push(v);
            }
        }
        row_ptr.push(cols.len());
    }
    CsrMatrix::try_from_parts(a.nrows(), a.ncols(), row_ptr, cols, vals).unwrap()
}

/// One time step of a time-stepping caller: one `solve_one`, returning
/// whether its plan-cache lookup hit (`true`) or missed (`false`).
fn step(engine: &Engine, a: &CsrMatrix<f64>, b: &[f64]) -> bool {
    let before = engine.counters().cache;
    assert!(engine.solve_one(a, b).unwrap().converged());
    let lookup = engine.counters().cache.since(&before);
    assert_eq!(lookup.hits + lookup.misses, 1, "one lookup per step");
    lookup.hits == 1
}

/// A sequence of time steps, each one `solve_one`: every same-pattern
/// step reads the one cache entry, memo included, and a pattern delta is
/// the new pattern's miss.
#[test]
fn a_sequence_keeps_the_memo_on_a_retile_and_resets_it_on_a_pattern_delta() {
    let engine = Engine::with_workers(acamar(), 1);
    let a0 = dominant(800, 11);
    let b = rhs(800);
    engine.solve_one(&a0, &b).unwrap();
    let analyzed = engine.cache().get_or_analyze(engine.acamar(), &a0);
    let t_plan = Arc::clone(analyzed.derived.get().expect("filled by the solve"));

    assert!(step(&engine, &a0, &b), "a same-pattern step is a hit");
    let reread = engine.cache().get_or_analyze(engine.acamar(), &a0);
    assert!(Arc::ptr_eq(&reread, &analyzed), "one entry per pattern");
    assert!(Arc::ptr_eq(analyzed.derived.get().unwrap(), &t_plan));

    // A pattern delta is an entry of its own, whose memo the step's Jacobi
    // attempt builds from the new pattern.
    let a1 = drop_an_off_diagonal(&a0, &[7, 300]);
    assert!(!step(&engine, &a1, &b), "a pattern delta is a miss");
    let moved = engine.cache().get_or_analyze(engine.acamar(), &a1);
    let t1 = moved.derived.get().expect("built by the step");
    assert_eq!(t1.nnz(), a1.nnz() - 800);
    let (mut diag, mut inv) = (vec![0.0; 800], vec![0.0; 800]);
    let t_of_a1 = a1.split_jacobi(&mut diag, &mut inv).unwrap();
    assert!(t1.verify_pattern(&t_of_a1));
    assert_eq!(moved.derived.split().unwrap().pattern(), t_of_a1.pattern());
    // The old pattern's memo is untouched.
    assert!(Arc::ptr_eq(analyzed.derived.get().unwrap(), &t_plan));
    assert_eq!(
        analyzed.derived.split().unwrap().pattern().nnz(),
        a0.nnz() - 800
    );
}

#[test]
fn a_fast_request_after_a_deterministic_one_hits_the_same_artifacts() {
    let engine = Engine::with_workers(acamar(), 1);
    engine.cache().set_capacity(2);
    let a = Arc::new(dominant(500, 13));
    let solve = |m: &Arc<CsrMatrix<f64>>, policy| {
        let job = SolveJob::new(Arc::clone(m), rhs(500)).with_policy(policy);
        let report = engine.solve_jobs(vec![job]);
        assert_eq!(report.converged, 1);
        report.cache
    };
    let det = solve(&a, DeterminismPolicy::Deterministic);
    assert_eq!((det.hits, det.misses), (0, 1));
    let det_art = engine.cache().get_or_analyze(engine.acamar(), &*a);
    // "Warm" is a promise about the next lookup, whichever tier makes it.
    assert!(engine.is_warm(&*a));
    let fast = solve(&a, DeterminismPolicy::Fast);
    assert_eq!(
        (fast.hits, fast.misses),
        (1, 0),
        "one plan serves both tiers"
    );
    assert_eq!(fast.analysis_nanos, 0, "a hit analyzes nothing");
    assert_eq!(engine.cache().stats().entries, 1);
    let fast_art = engine.cache().get_or_analyze(engine.acamar(), &*a);
    assert!(Arc::ptr_eq(&det_art, &fast_art), "one copy per pattern");
    // The Deterministic Jacobi solve built T's plan; the Fast one ran on
    // it.
    assert!(fast_art.derived.get().is_some());

    // Two patterns alternated across both tiers fill two slots, not four:
    // a capacity-2 cache never evicts.
    let other = Arc::new(dominant(500, 14));
    for _ in 0..3 {
        for policy in DeterminismPolicy::ALL {
            solve(&a, policy);
            solve(&other, policy);
        }
    }
    let s = engine.cache().stats();
    assert_eq!((s.entries, s.evictions, s.misses), (2, 0, 2));
}

/// `a` with row `row`'s first off-diagonal entry left of the diagonal moved
/// to the first free column right of it: same shape, same entry count,
/// same row lengths — and a diagonal one slot further left.
fn shift_an_entry_across_the_diagonal(a: &CsrMatrix<f64>, row: usize) -> CsrMatrix<f64> {
    let (mut cols, mut vals) = (a.col_idx().to_vec(), a.values().to_vec());
    let (lo, hi) = (a.row_ptr()[row], a.row_ptr()[row + 1]);
    assert!(cols[lo] < row, "row {row} has nothing left of its diagonal");
    let free = (row + 1..a.ncols())
        .find(|c| !cols[lo..hi].contains(c))
        .expect("a free column right of the diagonal");
    let mut entries: Vec<(usize, f64)> = cols[lo + 1..hi]
        .iter()
        .copied()
        .zip(vals[lo + 1..hi].iter().copied())
        .chain([(free, vals[lo])])
        .collect();
    entries.sort_by_key(|&(c, _)| c);
    for (k, (c, v)) in entries.into_iter().enumerate() {
        (cols[lo + k], vals[lo + k]) = (c, v);
    }
    CsrMatrix::try_from_parts(a.nrows(), a.ncols(), a.row_ptr().to_vec(), cols, vals).unwrap()
}

#[test]
fn a_memo_that_does_not_fit_its_matrix_is_bypassed_and_counted() {
    let n = 400;
    let p = dominant(n, 17);
    let row = (0..n)
        .find(|&i| p.row(i).0[0] < i && p.row_nnz(i) >= 3)
        .unwrap();
    let q = shift_an_entry_across_the_diagonal(&p, row);
    assert_eq!((q.nrows(), q.nnz()), (p.nrows(), p.nnz()));
    assert_eq!(q.row_ptr(), p.row_ptr());
    let b = rhs(n);
    let criteria = acamar().config().criteria;
    let hints = vec![BandHint {
        rows: 0..n,
        unroll: 8,
    }];

    // P's memo, built by a solve on P.
    let memo = Arc::new(DerivedPlan::new(hints));
    let ring = Arc::new(RingRecorder::new(64));
    let mut with_memo = SoftwareKernels::new()
        .with_derived_plan(Arc::clone(&memo))
        .with_telemetry(TelemetrySink::new(Arc::clone(&ring) as Arc<_>));
    let on_p = jacobi(&p, &b, None, &criteria, &mut with_memo).unwrap();
    assert!(on_p.converged());
    let split_of_p = memo.split().expect("built on P").clone();
    assert_eq!(
        ring.counters()[Counter::DerivedSplitRebuilds.index()],
        0,
        "P fits its own memo"
    );

    // Q through P's memo: the slot check refuses it in row `row`, T is
    // built as if there were no memo, and the answer is the memo-less one.
    let stale = jacobi(&q, &b, None, &criteria, &mut with_memo).unwrap();
    let plain = jacobi(&q, &b, None, &criteria, &mut SoftwareKernels::new()).unwrap();
    assert!(plain.converged());
    assert_eq!(bits(&stale.solution), bits(&plain.solution));
    assert_eq!(stale.residual_history, plain.residual_history);
    assert_eq!(stale.counts, plain.counts);
    assert_ne!(bits(&stale.solution), bits(&on_p.solution));
    let counters = ring.counters();
    assert_eq!(counters[Counter::DerivedSplitRebuilds.index()], 1);
    assert_eq!(counters[Counter::DerivedPlansBuilt.index()], 1);
    // The rebuilt T ran without P's plan, and P's memo is as it was.
    assert_eq!(
        counters[Counter::PlanlessSpmvs.index()],
        stale.iterations as u64
    );
    assert_eq!(memo.split(), Some(&split_of_p));

    // A pattern with a hole in its diagonal memoises nothing: every solve
    // on it rebuilds, breaks down, and is counted.
    let holed = drop_the_diagonal(&p, row);
    let memo = Arc::new(DerivedPlan::new(vec![BandHint {
        rows: 0..n,
        unroll: 8,
    }]));
    let mut k = SoftwareKernels::new()
        .with_derived_plan(Arc::clone(&memo))
        .with_telemetry(TelemetrySink::new(Arc::clone(&ring) as Arc<_>));
    for solves in 1..=2 {
        let report = jacobi(&holed, &b, None, &criteria, &mut k).unwrap();
        assert!(!report.converged());
        assert!(memo.split().is_none() && memo.get().is_none());
        assert_eq!(
            ring.counters()[Counter::DerivedSplitRebuilds.index()],
            1 + solves
        );
    }
    assert_eq!(ring.counters()[Counter::DerivedPlansBuilt.index()], 1);
}

/// `a` without row `row`'s diagonal entry.
fn drop_the_diagonal(a: &CsrMatrix<f64>, row: usize) -> CsrMatrix<f64> {
    let (mut row_ptr, mut cols, mut vals) = (vec![0usize], Vec::new(), Vec::new());
    for (i, rc, rv) in a.iter_rows() {
        for (&c, &v) in rc.iter().zip(rv) {
            if (i, c) != (row, row) {
                cols.push(c);
                vals.push(v);
            }
        }
        row_ptr.push(cols.len());
    }
    CsrMatrix::try_from_parts(a.nrows(), a.ncols(), row_ptr, cols, vals).unwrap()
}

/// Symmetric, strictly dominant with a positive diagonal: SPD, and every
/// solver's system.
fn spd(n: usize, seed: u64) -> CsrMatrix<f64> {
    generate::spd_from_pattern(n, RowDistribution::Uniform { min: 2, max: 6 }, 0.3, seed)
}

fn forced(solver: SolverKind, telemetry: TelemetrySink) -> RunOptions {
    RunOptions {
        solver: Some(solver),
        telemetry,
        ..RunOptions::default()
    }
}

#[test]
fn workers_racing_on_a_cold_pattern_build_the_ic0_schedule_once() {
    let (a, b) = (spd(1200, 21), rhs(1200));
    let acamar = acamar();
    let artifacts = acamar.analyze(&a);
    assert!(artifacts.derived.ic0_schedule().is_none(), "lazy");
    let ring = Arc::new(RingRecorder::new(1 << 12));
    let start = Barrier::new(2);
    let reports: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let sink = TelemetrySink::new(Arc::clone(&ring) as Arc<_>);
                    start.wait();
                    acamar
                        .run_with_plan_opts(
                            &a,
                            &b,
                            None,
                            &artifacts,
                            forced(SolverKind::PreconditionedCg, sink),
                        )
                        .unwrap()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(reports[0].converged());
    assert_eq!(
        bits(&reports[0].solve.solution),
        bits(&reports[1].solve.solution)
    );
    let counters = ring.counters();
    assert_eq!(counters[Counter::Ic0SchedulesBuilt.index()], 1);
    assert_eq!(counters[Counter::Ic0ScheduleRebuilds.index()], 0);
    let schedule = artifacts.derived.ic0_schedule().expect("built by the race");
    assert_eq!(schedule.lower().tri_nnz(), (a.nnz() + 1200) / 2);

    // Warm, cold and memo-less agree to the byte; nothing more is built.
    let sink = TelemetrySink::new(Arc::clone(&ring) as Arc<_>);
    let warm = acamar
        .run_with_plan_opts(
            &a,
            &b,
            None,
            &artifacts,
            forced(SolverKind::PreconditionedCg, sink),
        )
        .unwrap();
    assert_eq!(
        format!("{:?}", warm.solve),
        format!("{:?}", reports[0].solve)
    );
    assert_eq!(
        format!("{:?}", warm.stats),
        format!("{:?}", reports[0].stats)
    );
    assert_eq!(ring.counters()[Counter::Ic0SchedulesBuilt.index()], 1);
    let criteria = acamar.config().criteria;
    let plain =
        ic0_preconditioned_cg(&a, &b, None, &criteria, &mut SoftwareKernels::new()).unwrap();
    assert_eq!(bits(&plain.solution), bits(&warm.solve.solution));
    assert_eq!(plain.residual_history, warm.solve.residual_history);
    assert_eq!(plain.counts, warm.solve.counts);
}

#[test]
fn the_jacobi_half_and_the_ic0_half_of_the_memo_fill_independently() {
    let (a, b) = (spd(600, 23), rhs(600));
    let acamar = acamar();
    let run = |artifacts: &acamar::core::AnalysisArtifacts, solver| {
        let report = acamar
            .run_with_plan_opts(
                &a,
                &b,
                None,
                artifacts,
                forced(solver, TelemetrySink::disabled()),
            )
            .unwrap();
        assert!(report.converged(), "{solver:?}");
    };
    // PCG first: only the schedule.
    let artifacts = acamar.analyze(&a);
    run(&artifacts, SolverKind::PreconditionedCg);
    let schedule = artifacts.derived.ic0_schedule().expect("PCG built it") as *const _;
    assert!(artifacts.derived.split().is_none() && artifacts.derived.get().is_none());
    run(&artifacts, SolverKind::Jacobi);
    assert!(artifacts.derived.split().is_some() && artifacts.derived.get().is_some());
    assert!(std::ptr::eq(
        artifacts.derived.ic0_schedule().unwrap(),
        schedule
    ));
    // Jacobi first: only the split and T's plan. CG builds neither.
    let artifacts = acamar.analyze(&a);
    run(&artifacts, SolverKind::ConjugateGradient);
    assert!(artifacts.derived.split().is_none() && artifacts.derived.ic0_schedule().is_none());
    run(&artifacts, SolverKind::Jacobi);
    let t_plan = Arc::clone(artifacts.derived.get().expect("Jacobi built it"));
    assert!(artifacts.derived.ic0_schedule().is_none());
    run(&artifacts, SolverKind::PreconditionedCg);
    assert!(artifacts.derived.ic0_schedule().is_some());
    assert!(Arc::ptr_eq(artifacts.derived.get().unwrap(), &t_plan));
}

/// As for the Jacobi memo: a same-pattern time step of the sequence
/// leaves the cache entry, and so its schedule, alone; a pattern delta
/// schedules the new pattern.
#[test]
fn a_sequence_keeps_the_ic0_schedule_on_a_retile_and_resets_it_on_a_pattern_delta() {
    let engine = Engine::with_workers(acamar(), 1);
    let a0 = spd(800, 27);
    let b = rhs(800);
    engine.solve_one(&a0, &b).unwrap();
    let analyzed = engine.cache().get_or_analyze(engine.acamar(), &a0);
    let pcg = |a: &CsrMatrix<f64>, artifacts: &acamar::core::AnalysisArtifacts| {
        let opts = forced(SolverKind::PreconditionedCg, TelemetrySink::disabled());
        let report = engine
            .acamar()
            .run_with_plan_opts(a, &b, None, artifacts, opts);
        assert!(report.unwrap().converged());
    };
    pcg(&a0, &analyzed);
    let schedule = analyzed.derived.ic0_schedule().expect("built by the solve") as *const _;

    assert!(step(&engine, &a0, &b), "a same-pattern step is a hit");
    let reread = engine.cache().get_or_analyze(engine.acamar(), &a0);
    assert!(Arc::ptr_eq(&reread, &analyzed), "one entry per pattern");
    pcg(&a0, &reread);
    assert!(std::ptr::eq(
        reread.derived.ic0_schedule().unwrap(),
        schedule
    ));

    // The delta step's entry starts with an empty memo; the next
    // preconditioned attempt schedules the new pattern and memoises its
    // substitution plans.
    let a1 = drop_a_symmetric_pair(&a0, 300);
    assert!(!step(&engine, &a1, &b), "a pattern delta is a miss");
    let moved = engine.cache().get_or_analyze(engine.acamar(), &a1);
    assert!(moved.derived.ic0_schedule().is_none() && moved.derived.sptrsv().is_none());
    pcg(&a1, &moved);
    let rescheduled = moved.derived.ic0_schedule().expect("rebuilt");
    assert_eq!(rescheduled.lower().tri_nnz(), (a1.nnz() + 800) / 2);
    assert_eq!(rescheduled, &acamar::sparse::Ic0Schedule::of(&a1).unwrap());
    let (lower, upper) = &**moved.derived.sptrsv().expect("memoised by the attempt");
    assert!(lower.verify_pattern(&a1) && upper.verify_pattern(&a1));
    // The old pattern's memo is untouched.
    assert!(std::ptr::eq(
        analyzed.derived.ic0_schedule().unwrap(),
        schedule
    ));
}

/// `a` without row `row`'s last off-diagonal entry and its mirror image.
fn drop_a_symmetric_pair(a: &CsrMatrix<f64>, row: usize) -> CsrMatrix<f64> {
    let col = *a.row(row).0.iter().rfind(|&&c| c != row).unwrap();
    let mut coo = acamar::sparse::CooMatrix::new(a.nrows(), a.ncols());
    for (i, rc, rv) in a.iter_rows() {
        for (&c, &v) in rc.iter().zip(rv) {
            if (i, c) != (row, col) && (i, c) != (col, row) {
                coo.push(i, c, v).unwrap();
            }
        }
    }
    coo.to_csr()
}

/// `p` with one symmetric pair of entries moved: `(i, j)`/`(j, i)` with
/// `j < i` becomes `(i, k)`/`(k, i)` with `k > i`, the diagonal of row `k`
/// lifted by the moved magnitude. Still SPD (dominant, positive diagonal),
/// same shape, same entry count — and row `i`'s diagonal one slot further
/// left, row `k`'s one further right.
fn move_a_pair_across_the_diagonal(p: &CsrMatrix<f64>) -> (CsrMatrix<f64>, usize) {
    let n = p.nrows();
    let (i, j, k) = (1..n - 1)
        .find_map(|i| {
            let cols = p.row(i).0;
            let j = *cols.first().filter(|&&c| c < i)?;
            let k = (i + 1..n).find(|k| !cols.contains(k))?;
            Some((i, j, k))
        })
        .expect("a row with a lower entry and a free upper column");
    let moved = p.get(i, j);
    let mut coo = acamar::sparse::CooMatrix::new(n, n);
    for (r, rc, rv) in p.iter_rows() {
        for (&c, &v) in rc.iter().zip(rv) {
            if (r, c) == (i, j) || (r, c) == (j, i) {
                continue;
            }
            let lift = if (r, c) == (k, k) { moved.abs() } else { 0.0 };
            coo.push(r, c, v + lift).unwrap();
        }
    }
    coo.push(i, k, moved).unwrap();
    coo.push(k, i, moved).unwrap();
    (coo.to_csr(), i)
}

#[test]
fn an_ic0_schedule_that_does_not_fit_its_matrix_is_bypassed_and_counted() {
    let n = 400;
    let p = spd(n, 31);
    let (q, moved_row) = move_a_pair_across_the_diagonal(&p);
    assert_eq!((q.nrows(), q.nnz()), (p.nrows(), p.nnz()));
    assert!(q.is_symmetric(0.0) && q.row_nnz(moved_row) == p.row_nnz(moved_row));
    let b = rhs(n);
    let criteria = acamar().config().criteria;
    let hints = |n| {
        vec![BandHint {
            rows: 0..n,
            unroll: 8,
        }]
    };

    // P's schedule, built by a solve on P.
    let memo = Arc::new(DerivedPlan::new(hints(n)));
    let ring = Arc::new(RingRecorder::new(64));
    let mut with_memo = SoftwareKernels::new()
        .with_derived_plan(Arc::clone(&memo))
        .with_telemetry(TelemetrySink::new(Arc::clone(&ring) as Arc<_>));
    let on_p = ic0_preconditioned_cg(&p, &b, None, &criteria, &mut with_memo).unwrap();
    assert!(on_p.converged());
    let schedule_of_p = memo.ic0_schedule().expect("built on P").clone();
    let counters = ring.counters();
    assert_eq!(counters[Counter::Ic0SchedulesBuilt.index()], 1);
    assert_eq!(
        counters[Counter::Ic0ScheduleRebuilds.index()],
        0,
        "P fits its own schedule"
    );

    // Q through P's memo: the diagonal check refuses it, Q is factored as
    // if there were no memo, and the answer is the memo-less one.
    let stale = ic0_preconditioned_cg(&q, &b, None, &criteria, &mut with_memo).unwrap();
    let plain =
        ic0_preconditioned_cg(&q, &b, None, &criteria, &mut SoftwareKernels::new()).unwrap();
    assert!(plain.converged());
    assert_eq!(bits(&stale.solution), bits(&plain.solution));
    assert_eq!(stale.residual_history, plain.residual_history);
    assert_eq!(stale.counts, plain.counts);
    assert_ne!(bits(&stale.solution), bits(&on_p.solution));
    let counters = ring.counters();
    assert_eq!(counters[Counter::Ic0ScheduleRebuilds.index()], 1);
    assert_eq!(counters[Counter::Ic0SchedulesBuilt.index()], 1);
    assert_eq!(
        memo.ic0_schedule(),
        Some(&schedule_of_p),
        "P's memo is as it was"
    );

    // A pattern with a hole in its diagonal memoises nothing: every solve
    // on it tries to schedule, falls back to Jacobi scaling — which breaks
    // down on the same hole — and is counted.
    let holed = drop_the_diagonal(&p, moved_row);
    let memo = Arc::new(DerivedPlan::new(hints(n)));
    let mut k = SoftwareKernels::new()
        .with_derived_plan(Arc::clone(&memo))
        .with_telemetry(TelemetrySink::new(Arc::clone(&ring) as Arc<_>));
    for solves in 1..=2 {
        let report = ic0_preconditioned_cg(&holed, &b, None, &criteria, &mut k).unwrap();
        assert!(!report.converged());
        assert!(memo.ic0_schedule().is_none());
        assert_eq!(
            ring.counters()[Counter::Ic0ScheduleRebuilds.index()],
            1 + solves
        );
    }
    assert_eq!(ring.counters()[Counter::Ic0SchedulesBuilt.index()], 1);
}

#[test]
fn the_substitution_plans_are_built_by_the_first_forced_pcg_and_reused() {
    let (a, b) = (spd(500, 41), rhs(500));
    let acamar = acamar();
    let artifacts = acamar.analyze(&a);
    let ring = Arc::new(RingRecorder::new(1 << 12));
    let run = |solver: Option<SolverKind>| {
        let opts = RunOptions {
            solver,
            telemetry: TelemetrySink::new(Arc::clone(&ring) as Arc<_>),
            ..RunOptions::default()
        };
        acamar
            .run_with_plan_opts(&a, &b, None, &artifacts, opts)
            .unwrap()
    };
    // Analysis and every attempt that does not precondition leave it be.
    assert!(artifacts.derived.sptrsv().is_none(), "analysis builds none");
    run(None);
    for solver in [
        SolverKind::Jacobi,
        SolverKind::ConjugateGradient,
        SolverKind::BiCgStab,
        SolverKind::Sor,
    ] {
        run(Some(solver));
        assert!(artifacts.derived.sptrsv().is_none(), "{solver:?}");
    }
    // The first forced PCG publishes the schedule's pair of plans;
    // the second replays it.
    assert!(run(Some(SolverKind::PreconditionedCg)).converged());
    let plans = Arc::clone(artifacts.derived.sptrsv().expect("built by PCG"));
    let schedule = artifacts.derived.ic0_schedule().unwrap();
    assert!(Arc::ptr_eq(&plans, schedule.plans()), "the schedule's own");
    assert!(plans.0.verify_pattern(&a) && plans.1.verify_pattern(&a));
    assert!(run(Some(SolverKind::PreconditionedCg)).converged());
    assert!(Arc::ptr_eq(artifacts.derived.sptrsv().unwrap(), &plans));
    let counters = ring.counters();
    assert_eq!(counters[Counter::Ic0SchedulesBuilt.index()], 1);
    assert_eq!(counters[Counter::Ic0ScheduleRebuilds.index()], 0);

    // A pattern whose factor breaks down (the first pivot of -A) is
    // scheduled, yet has no factor to compile a pair from.
    let negated = a.scale(-1.0);
    let artifacts = acamar.analyze(&negated);
    let opts = forced(SolverKind::PreconditionedCg, TelemetrySink::disabled());
    acamar
        .run_with_plan_opts(&negated, &b, None, &artifacts, opts)
        .unwrap();
    assert!(artifacts.derived.ic0_schedule().is_some());
    assert!(artifacts.derived.sptrsv().is_none());
}

/// `ic0_preconditioned_cg` the way a forced PCG attempt runs it — the
/// analysis' schedule and SpMV plan on the fabric executor, one solver
/// configuration charged — but with no derived memo: the schedule and the
/// substitution plans are built inside the solve.
fn memo_less_forced_pcg(
    acamar: &Acamar,
    artifacts: &acamar::core::AnalysisArtifacts,
    a: &CsrMatrix<f64>,
    b: &[f64],
) -> (
    acamar::solvers::SolveReport<f64>,
    acamar::fabric::FabricRunStats,
) {
    use acamar::fabric::{cost, FabricKernels};
    let config = acamar.config();
    let schedule = artifacts.plan.schedule.clone();
    let module = cost::solver_control_unit()
        + cost::dense_vector_unit()
        + cost::spmv_engine(schedule.max_unroll());
    let mut hw = FabricKernels::new(acamar.spec().clone(), schedule, config.init_unroll)
        .with_overlap(config.overlap_reconfiguration)
        .with_compiled_plan(Arc::clone(&artifacts.compiled));
    hw.charge_solver_reconfig(&module);
    hw.begin_attempt();
    let report = ic0_preconditioned_cg(a, b, None, &config.criteria, &mut hw).unwrap();
    (report, hw.finish())
}

#[test]
fn forced_pcg_on_the_memoised_plans_is_bitwise_a_memo_less_run() {
    let mut systems: Vec<(String, CsrMatrix<f64>)> = suite()
        .into_iter()
        .filter(|d| {
            matches!(
                d.class,
                StructuralClass::DominantSpd { .. }
                    | StructuralClass::JacobiDivergentSpd { .. }
                    | StructuralClass::IllConditionedSpd { .. }
                    | StructuralClass::Poisson3d { .. }
                    | StructuralClass::ShiftedGridLaplacian { .. }
            )
        })
        .map(|d| (format!("table2-{}", d.id), d.matrix_f64()))
        .collect();
    assert_eq!(systems.len(), 17, "the SPD Table II analogs");
    // A grid's pattern with nonsymmetric values: IC(0) reads the lower
    // triangle only, so it factors, and the analysis calls it
    // nonsymmetric.
    let mut skewed = generate::poisson2d::<f64>(48, 48);
    let row_ptr = skewed.row_ptr().to_vec();
    for i in (1..skewed.nrows()).step_by(7) {
        skewed.values_mut()[row_ptr[i]] *= 1.25;
    }
    systems.extend([
        ("poisson2d-128".into(), generate::poisson2d(128, 128)),
        ("poisson3d-32".into(), generate::poisson3d(32, 32, 32)),
        (
            "anisotropic-40".into(),
            generate::anisotropic_poisson2d(40, 40, 1.0, 0.05),
        ),
        ("jump-64".into(), generate::jump_poisson2d(64, 64, 1e3)),
        ("poisson2d-48 skewed".into(), skewed),
    ]);
    let acamar = acamar();
    for (what, a) in &systems {
        let b = rhs(a.nrows());
        let artifacts = acamar.analyze(a);
        let (plain, plain_stats) = memo_less_forced_pcg(&acamar, &artifacts, a, &b);
        if what.ends_with("skewed") {
            let report = &artifacts.structure.report;
            assert!(report.pattern_symmetric && !report.symmetric);
        }
        for round in ["builds the pair", "replays it"] {
            let opts = forced(SolverKind::PreconditionedCg, TelemetrySink::disabled());
            let forced = acamar
                .run_with_plan_opts(a, &b, None, &artifacts, opts)
                .unwrap();
            assert!(artifacts.derived.sptrsv().is_some(), "{what}: {round}");
            let solve = &forced.solve;
            assert_eq!(solve.iterations, plain.iterations, "{what}: {round}");
            assert_eq!(solve.counts, plain.counts, "{what}: {round}");
            assert_eq!(bits(&solve.solution), bits(&plain.solution), "{what}");
            assert_eq!(solve.residual_history, plain.residual_history, "{what}");
            assert_eq!(
                format!("{:?}", forced.stats),
                format!("{plain_stats:?}"),
                "{what}: {round}"
            );
        }
    }
}
