//! Warm-path determinism: pooled workspaces and the persistent worker
//! pool must be invisible in the numbers.
//!
//! A "cold" batch (fresh engine, empty plan cache, empty buffer pools)
//! and a "warm" batch (same engine re-used after previous solves, so
//! every scratch buffer comes from the pool and every plan from the
//! cache) must produce bitwise-identical solutions at any worker count —
//! reuse may only change *where* bytes live, never what they are.

use acamar::core::{Acamar, AcamarConfig};
use acamar::engine::{BatchReport, Engine, SolveJob};
use acamar::fabric::FabricSpec;
use acamar::solvers::ConvergenceCriteria;
use acamar::sparse::{generate, CsrMatrix};
use std::sync::Arc;

fn acamar() -> Acamar {
    let cfg =
        AcamarConfig::paper().with_criteria(ConvergenceCriteria::paper().with_max_iterations(2000));
    Acamar::new(FabricSpec::alveo_u55c(), cfg)
}

fn systems() -> Vec<Arc<CsrMatrix<f64>>> {
    vec![
        Arc::new(generate::poisson2d::<f64>(11, 11)),
        Arc::new(generate::convection_diffusion_2d::<f64>(9, 10, 1.5)),
        Arc::new(generate::poisson1d::<f64>(120)),
    ]
}

fn job_mix(systems: &[Arc<CsrMatrix<f64>>], jobs: usize) -> Vec<SolveJob<f64>> {
    (0..jobs)
        .map(|k| {
            let a = &systems[k % systems.len()];
            let b: Vec<f64> = (0..a.nrows())
                .map(|i| 0.5 + ((i * 7 + k) % 23) as f64 * 0.04)
                .collect();
            SolveJob::new(Arc::clone(a), b)
        })
        .collect()
}

fn assert_reports_bitwise_equal(a: &BatchReport<f64>, b: &BatchReport<f64>, what: &str) {
    assert_eq!(a.results.len(), b.results.len(), "{what}: job count");
    for (i, (ra, rb)) in a.results.iter().zip(&b.results).enumerate() {
        let (ra, rb) = (ra.as_ref().unwrap(), rb.as_ref().unwrap());
        assert_eq!(
            ra.solve.solution, rb.solve.solution,
            "{what}: job {i} solution differs"
        );
        assert_eq!(ra.solve.iterations, rb.solve.iterations, "{what}: job {i}");
        assert_eq!(ra.attempts.len(), rb.attempts.len(), "{what}: job {i}");
    }
    assert_eq!(a.attempts_by_solver, b.attempts_by_solver, "{what}");
    assert_eq!(a.converged, b.converged, "{what}");
}

/// Cold batch vs. the third batch on the same engine (buffer pools and
/// plan cache fully warm), at 1, 4, and 8 workers — all six reports must
/// agree bitwise.
#[test]
fn warm_and_cold_batches_are_bitwise_identical_at_any_worker_count() {
    let systems = systems();
    let jobs = job_mix(&systems, 24);

    let mut reports: Vec<(usize, BatchReport<f64>, BatchReport<f64>)> = Vec::new();
    for workers in [1usize, 4, 8] {
        let engine = Engine::with_workers(acamar(), workers);
        let cold = engine.solve_jobs(jobs.clone());
        let _second = engine.solve_jobs(jobs.clone());
        let warm = engine.solve_jobs(jobs.clone());
        assert!(cold.all_converged(), "{workers} workers: cold batch");
        assert!(warm.all_converged(), "{workers} workers: warm batch");
        reports.push((workers, cold, warm));
    }

    for (workers, cold, warm) in &reports {
        assert_reports_bitwise_equal(cold, warm, &format!("warm vs cold at {workers} workers"));
    }
    // And across worker counts: every report agrees with the 1-worker cold run.
    let reference = &reports[0].1;
    for (workers, cold, _) in &reports[1..] {
        assert_reports_bitwise_equal(reference, cold, &format!("1 vs {workers} workers"));
    }
}

/// `solve_one` reuses the engine's cached solo workspace; repeated calls
/// must reproduce the first result bitwise.
#[test]
fn repeated_solve_one_is_bitwise_stable() {
    let a = generate::poisson2d::<f64>(13, 13);
    let b: Vec<f64> = (0..a.nrows())
        .map(|i| 1.0 + (i % 11) as f64 * 0.1)
        .collect();
    let engine = Engine::new(acamar());
    let first = engine.solve_one(&a, &b).unwrap();
    for _ in 0..3 {
        let again = engine.solve_one(&a, &b).unwrap();
        assert_eq!(first.solve.solution, again.solve.solution);
        assert_eq!(first.solve.iterations, again.solve.iterations);
    }
}

/// Fault-injection smoke: chaos replay is unchanged by workspace reuse —
/// the same seeded fault plan on a cold and a warm engine yields the
/// same ledger and the same per-job outcomes.
#[test]
fn chaos_replay_is_unchanged_by_warm_workspaces() {
    use acamar::engine::ResilienceConfig;
    use acamar::faultline::{FaultInjector, FaultPlan};

    let systems = systems();
    let jobs = job_mix(&systems, 18);

    let run = |warmed: bool| {
        let injector = Arc::new(FaultInjector::new(FaultPlan::uniform(0xACA3, 0.25)));
        let engine = Engine::with_workers(acamar(), 4)
            .with_resilience(ResilienceConfig::hardened())
            .with_fault_injection(Arc::clone(&injector));
        if warmed {
            // The injector sits on a separate clean engine's output path
            // here: a fault-free pre-batch fills this engine's plan cache
            // and buffer pools without consuming any injection decisions
            // (those are pure functions of (seed, category, job, site),
            // not of engine state).
            let clean = Engine::with_workers(acamar(), 4);
            let _ = clean.solve_jobs(jobs.clone());
        }
        let report = engine.solve_jobs(jobs.clone());
        let injected = injector.injected();
        (report, injected)
    };

    let (cold_report, cold_injected) = run(false);
    let (warm_report, warm_injected) = run(true);

    assert_eq!(
        cold_injected, warm_injected,
        "injected fault counts changed under workspace reuse"
    );
    assert_eq!(cold_report.results.len(), warm_report.results.len());
    for (i, (c, w)) in cold_report
        .results
        .iter()
        .zip(&warm_report.results)
        .enumerate()
    {
        match (c, w) {
            (Ok(c), Ok(w)) => {
                assert_eq!(c.solve.solution, w.solve.solution, "job {i}");
                assert_eq!(c.attempts.len(), w.attempts.len(), "job {i}");
            }
            (Err(_), Err(_)) => {}
            _ => panic!("job {i}: outcome kind differs between cold and warm chaos runs"),
        }
    }
    assert_eq!(
        cold_report.robustness.tallies, warm_report.robustness.tallies,
        "fault reconciliation changed under workspace reuse"
    );
}
