//! Sequence replay determinism: a drifting matrix sequence solved twice
//! under `DeterminismPolicy::Deterministic` must reproduce itself exactly
//! — the same plan actions (cache hit / miss), the same warm-start
//! verdicts, and bitwise-identical solutions — including under seeded
//! chaos injection, where warm-start rejections must fall back to the
//! deterministic cold start without breaking the replay contract.
//!
//! A step is the engine request it submits: its report is a cold
//! engine's answer to the same job, a step that changes the pattern runs
//! what a cold engine picks for the new matrix, and the plan cache counts
//! one lookup per step.

use acamar::core::{Acamar, AcamarConfig, AcamarRunReport};
use acamar::engine::{Engine, PlanAction, SequenceJob, SequenceStats, SolveJob, WarmStart};
use acamar::fabric::FabricSpec;
use acamar::solvers::{ConvergenceCriteria, SolverKind};
use acamar::sparse::{generate, CooMatrix, CsrMatrix};
use std::sync::Arc;

fn acamar() -> Acamar {
    let cfg =
        AcamarConfig::paper().with_criteria(ConvergenceCriteria::paper().with_max_iterations(2000));
    Acamar::new(FabricSpec::alveo_u55c(), cfg)
}

/// Drops the symmetric pair `(r, c)`/`(c, r)`, changing the pattern in
/// exactly two rows while preserving symmetry and diagonal dominance.
fn drop_pair(a: &CsrMatrix<f64>, r: usize, c: usize) -> CsrMatrix<f64> {
    let mut row_ptr = Vec::with_capacity(a.nrows() + 1);
    row_ptr.push(0usize);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for i in 0..a.nrows() {
        let (rc, rv) = a.row(i);
        for (&j, &v) in rc.iter().zip(rv) {
            if (i == r && j == c) || (i == c && j == r) {
                continue;
            }
            cols.push(j);
            vals.push(v);
        }
        row_ptr.push(cols.len());
    }
    CsrMatrix::try_from_parts(a.nrows(), a.ncols(), row_ptr, cols, vals).unwrap()
}

/// The evolving workload: mostly fixed pattern, two small drifts and one
/// structural break (each a new pattern: a cache miss), varying
/// right-hand sides throughout.
fn workload() -> Vec<SequenceJob<f64>> {
    let mut a = Arc::new(generate::poisson2d::<f64>(16, 16));
    // A different *shape* as well as a different pattern.
    let fresh = Arc::new(generate::poisson2d::<f64>(18, 18));
    let mut jobs = Vec::new();
    for k in 0..10usize {
        match k {
            3 => a = Arc::new(drop_pair(&a, 7, 8)),
            6 => a = Arc::new(drop_pair(&a, 100, 101)),
            8 => a = Arc::clone(&fresh), // new shape entirely
            _ => {}
        }
        let b: Vec<f64> = (0..a.nrows())
            .map(|i| 0.5 + ((i * 7 + k) % 23) as f64 * 0.04)
            .collect();
        jobs.push(SequenceJob::new(Arc::clone(&a), b));
    }
    jobs
}

/// One full sequence run on a fresh engine; returns per-step verdicts and
/// solutions plus the final stats.
type StepTrace = Vec<(
    PlanAction,
    WarmStart,
    Result<(bool, usize, Vec<f64>), String>,
)>;

fn replay(engine: &Engine) -> (StepTrace, SequenceStats) {
    let jobs = workload();
    let mut seq = engine.open_sequence(Arc::clone(&jobs[0].matrix));
    let mut trace = Vec::new();
    for job in jobs {
        match seq.step(job) {
            Ok(step) => trace.push((
                step.plan,
                step.warm_start,
                Ok((
                    step.report.solve.converged(),
                    step.report.solve.iterations,
                    step.report.solve.solution,
                )),
            )),
            Err(e) => trace.push((PlanAction::Recompiled, WarmStart::Cold, Err(e.to_string()))),
        }
    }
    (trace, seq.stats())
}

/// The replay-stable subset of [`SequenceStats`] (everything except the
/// wall-clock timing fields).
fn stat_counts(s: &SequenceStats) -> (u64, u64, u64, u64, u64) {
    (
        s.steps,
        s.plans_reused,
        s.plans_recompiled,
        s.warm_starts_used,
        s.warm_starts_rejected,
    )
}

fn assert_traces_identical(a: &StepTrace, b: &StepTrace, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: step count");
    for (i, (sa, sb)) in a.iter().zip(b).enumerate() {
        assert_eq!(sa.0, sb.0, "{what}: step {i} plan action");
        assert_eq!(sa.1, sb.1, "{what}: step {i} warm-start verdict");
        match (&sa.2, &sb.2) {
            (Ok((ca, ia, xa)), Ok((cb, ib, xb))) => {
                assert_eq!(ca, cb, "{what}: step {i} convergence verdict");
                assert_eq!(ia, ib, "{what}: step {i} iteration count");
                assert_eq!(xa.len(), xb.len(), "{what}: step {i} solution length");
                for (r, (va, vb)) in xa.iter().zip(xb).enumerate() {
                    assert_eq!(
                        va.to_bits(),
                        vb.to_bits(),
                        "{what}: step {i} row {r} solution bits"
                    );
                }
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{what}: step {i} error"),
            _ => panic!("{what}: step {i} outcome kind differs between replays"),
        }
    }
}

#[test]
fn replayed_sequence_is_bitwise_identical() {
    let (first, s1) = replay(&Engine::with_workers(acamar(), 4));
    let (second, s2) = replay(&Engine::with_workers(acamar(), 4));
    assert_traces_identical(&first, &second, "replay");
    assert_eq!(stat_counts(&s1), stat_counts(&s2), "sequence stats differ");
    // Steps 3, 6 and 8 bring a new pattern: three misses, seven hits...
    for (k, step) in first.iter().enumerate() {
        let miss = matches!(k, 3 | 6 | 8);
        assert_eq!(step.0 == PlanAction::Recompiled, miss, "step {k}");
    }
    assert_eq!((s1.plans_reused, s1.plans_recompiled), (7, 3));
    // ...and warm starts engaged on the quiet steps.
    assert!(s1.warm_starts_used >= 4, "stats: {s1:?}");
}

#[test]
fn worker_count_does_not_change_the_sequence() {
    let (one, _) = replay(&Engine::with_workers(acamar(), 1));
    let (eight, _) = replay(&Engine::with_workers(acamar(), 8));
    assert_traces_identical(&one, &eight, "1 vs 8 workers");
}

/// Warm starts pay for themselves in iterations — exact counts, not a
/// timing: the drifting workload with the previous step's solution as the
/// initial guess needs strictly fewer iterations in total than the same
/// steps solved cold, one `solve_one` each, and every step converges
/// either way. A step the gate sent cold is bitwise its `solve_one`.
#[test]
fn warm_starts_cut_the_drifting_workloads_iterations() {
    let (warm, _) = replay(&Engine::with_workers(acamar(), 1));
    let engine = Engine::with_workers(acamar(), 1);
    let (mut warm_total, mut cold_total) = (0, 0);
    for (i, (job, (_, warm_start, outcome))) in workload().iter().zip(&warm).enumerate() {
        let (converged, iterations, solution) = outcome.as_ref().expect("every step solves");
        assert!(converged, "step {i} did not converge warm");
        let cold = engine.solve_one(&job.matrix, &job.rhs).unwrap();
        assert!(cold.solve.converged(), "step {i} did not converge cold");
        if !matches!(warm_start, WarmStart::Used { .. }) {
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(solution), bits(&cold.solve.solution), "step {i}");
        }
        warm_total += iterations;
        cold_total += cold.solve.iterations;
    }
    assert!(
        warm_total < cold_total,
        "{warm_total} iterations with warm starts, {cold_total} without"
    );
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Asserts two runs are the same request's answer: the structure
/// decision, every attempt, the fabric statistics and the solution bits.
fn assert_same_run(got: &AcamarRunReport<f64>, want: &AcamarRunReport<f64>, what: &str) {
    assert_eq!(got.structure, want.structure, "{what}: structure decision");
    assert_eq!(got.attempts, want.attempts, "{what}: attempts");
    assert_eq!(
        format!("{:?}", got.stats),
        format!("{:?}", want.stats),
        "{what}: fabric statistics"
    );
    assert_eq!(
        bits(&got.solve.solution),
        bits(&want.solve.solution),
        "{what}: solution bits"
    );
}

/// One request on a fresh engine: what a step is held to.
fn cold(job: SolveJob<f64>) -> AcamarRunReport<f64> {
    let mut batch = Engine::with_workers(acamar(), 1).solve_jobs(vec![job]);
    batch.results.pop().unwrap().unwrap()
}

/// Every step is the engine request it submits: a cold engine's
/// `solve_jobs` of `SolveJob::new(a_k, b_k)`, seeded with the guess the
/// warm-start gate chose, reports the same structure decision, attempts,
/// fabric statistics and solution bits.
#[test]
fn every_step_is_the_request_it_submits() {
    let engine = Engine::with_workers(acamar(), 1);
    let jobs = workload();
    let mut seq = engine.open_sequence(Arc::clone(&jobs[0].matrix));
    let mut prev: Option<Vec<f64>> = None;
    for (k, job) in jobs.into_iter().enumerate() {
        let request = SolveJob::new(Arc::clone(&job.matrix), job.rhs.clone());
        let step = seq.step(job).unwrap();
        let request = match step.warm_start {
            WarmStart::Used { .. } => request.with_guess(prev.take().unwrap()),
            WarmStart::Cold | WarmStart::Rejected { .. } => request,
        };
        assert_same_run(&step.report, &cold(request), &format!("step {k}"));
        prev = Some(step.report.solve.solution);
    }
}

/// `a` plus the listed entries, each outside `a`'s pattern.
fn with_entries(a: &CsrMatrix<f64>, extra: &[(usize, usize, f64)]) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(a.nrows(), a.ncols());
    for (i, cols, vals) in a.iter_rows() {
        for (&j, &v) in cols.iter().zip(vals) {
            coo.push(i, j, v).unwrap();
        }
    }
    for &(i, j, v) in extra {
        coo.push(i, j, v).unwrap();
    }
    coo.to_csr()
}

/// A step onto a pattern with two entries added on one side of the
/// diagonal: the matrix is no longer symmetric, so the structure unit
/// picks BiCG-STAB, not the CG the previous pattern's decision says — on
/// the step and on every later request of the matrix on that engine.
#[test]
fn a_step_onto_a_new_pattern_runs_what_a_cold_engine_picks() {
    let a0 = Arc::new(generate::poisson2d::<f64>(24, 24));
    let n = a0.nrows();
    let a1 = Arc::new(with_entries(&a0, &[(3, n - 5, -1.0), (40, n - 50, -1.0)]));
    let b = vec![1.0; n];
    let engine = Engine::with_workers(acamar(), 1);
    let mut seq = engine.open_sequence(Arc::clone(&a0));
    seq.step(SequenceJob::new(Arc::clone(&a0), b.clone()))
        .unwrap();
    let step = seq
        .step(SequenceJob::new(Arc::clone(&a1), b.clone()))
        .unwrap();

    let cold = Engine::with_workers(acamar(), 1)
        .solve_one(&a1, &b)
        .unwrap();
    assert!(!cold.structure.report.symmetric);
    assert_eq!(cold.final_solver(), SolverKind::BiCgStab);
    assert_eq!(step.report.structure, cold.structure);
    let solvers =
        |r: &AcamarRunReport<f64>| r.attempts.iter().map(|a| a.solver).collect::<Vec<_>>();
    assert_eq!(solvers(&step.report), solvers(&cold));
    // The engine the sequence ran on answers a plain request of the
    // matrix like a cold one.
    let later = engine.solve_one(&a1, &b).unwrap();
    assert_same_run(&later, &cold, "solve_one after the step");
    assert_eq!(step.plan, PlanAction::Recompiled);
}

/// One cache lookup per step: `open_sequence` is the pattern's one miss,
/// each same-pattern step one hit, and a step onto a new pattern one miss
/// and no hit — an evicted pattern's included.
#[test]
fn the_plan_cache_counts_one_lookup_per_step() {
    let engine = Engine::with_workers(acamar(), 1);
    let a0 = Arc::new(generate::poisson2d::<f64>(16, 16));
    let b = vec![1.0; 256];
    let mut seq = engine.open_sequence(Arc::clone(&a0));
    let counts = || {
        let c = engine.counters().cache;
        (c.hits, c.misses)
    };
    assert_eq!(counts(), (0, 1));
    for k in 1..=3 {
        seq.step(SequenceJob::new(Arc::clone(&a0), b.clone()))
            .unwrap();
        assert_eq!(counts(), (k, 1), "after {k} same-pattern steps");
    }
    let a1 = Arc::new(drop_pair(&a0, 7, 8));
    let step = seq
        .step(SequenceJob::new(Arc::clone(&a1), b.clone()))
        .unwrap();
    assert_eq!(step.plan, PlanAction::Recompiled);
    assert_eq!(counts(), (3, 2), "a new pattern is one miss, no hit");

    // Evicted under the sequence: the next step is an honest miss.
    engine.cache().set_capacity(1);
    engine
        .solve_one(&generate::poisson2d::<f64>(9, 9), &vec![1.0; 81])
        .unwrap();
    assert!(!engine.is_warm(&*a1));
    let step = seq.step(SequenceJob::new(Arc::clone(&a1), b)).unwrap();
    assert_eq!(step.plan, PlanAction::Recompiled);
    assert_eq!(counts(), (3, 4));
    assert_eq!(seq.stats().plans_recompiled, 2);
    assert_eq!(seq.stats().plans_reused, 3);
}

/// Chaos replay: the same seeded fault plan over the same sequence twice
/// must produce identical verdicts and bitwise solutions — warm-start
/// rejections triggered by fault-perturbed residuals fall back to the
/// deterministic cold start, never to divergent state.
#[cfg(feature = "fault-injection")]
#[test]
fn chaos_sequence_replay_is_deterministic() {
    use acamar::engine::ResilienceConfig;
    use acamar::faultline::{FaultInjector, FaultPlan};

    let run = || {
        let injector = Arc::new(FaultInjector::new(FaultPlan::uniform(0xACA3, 0.25)));
        let engine = Engine::with_workers(acamar(), 4)
            .with_resilience(ResilienceConfig::hardened())
            .with_fault_injection(Arc::clone(&injector));
        let (trace, stats) = replay(&engine);
        (trace, stats, injector.injected())
    };
    let (t1, s1, i1) = run();
    let (t2, s2, i2) = run();
    assert_eq!(i1, i2, "injected fault counts differ between chaos replays");
    assert_traces_identical(&t1, &t2, "chaos replay");
    assert_eq!(
        stat_counts(&s1),
        stat_counts(&s2),
        "sequence stats differ under chaos replay"
    );
}
