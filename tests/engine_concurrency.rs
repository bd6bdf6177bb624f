//! Concurrency regression tests for the batch engine.
//!
//! The engine's contract is that threading is an implementation detail:
//! however many workers run and however jobs interleave, every solution
//! vector is bitwise identical to the single-threaded path, and the plan
//! cache analyzes each distinct sparsity pattern exactly once.

use acamar::core::{Acamar, AcamarConfig};
use acamar::engine::{Engine, SolveJob};
use acamar::fabric::FabricSpec;
use acamar::solvers::ConvergenceCriteria;
use acamar::sparse::{generate, CsrMatrix, DeterminismPolicy};
use std::sync::Arc;

fn acamar() -> Acamar {
    let cfg =
        AcamarConfig::paper().with_criteria(ConvergenceCriteria::paper().with_max_iterations(2000));
    Acamar::new(FabricSpec::alveo_u55c(), cfg)
}

/// Three matrices with pairwise-distinct sparsity patterns.
fn distinct_systems() -> Vec<Arc<CsrMatrix<f64>>> {
    vec![
        Arc::new(generate::poisson2d::<f64>(12, 12)),
        Arc::new(generate::poisson2d::<f64>(13, 11)),
        Arc::new(generate::poisson1d::<f64>(144)),
    ]
}

/// A job mix cycling through the distinct patterns with varying RHS.
fn job_mix(systems: &[Arc<CsrMatrix<f64>>], jobs: usize) -> Vec<SolveJob<f64>> {
    (0..jobs)
        .map(|k| {
            let a = &systems[k % systems.len()];
            let b: Vec<f64> = (0..a.nrows())
                .map(|i| 1.0 + (i + k) as f64 * 1e-3)
                .collect();
            SolveJob::new(Arc::clone(a), b)
        })
        .collect()
}

#[test]
fn four_workers_match_the_single_threaded_path_bitwise() {
    let systems = distinct_systems();
    let jobs = job_mix(&systems, 24);

    let single = Engine::with_workers(acamar(), 1);
    let reference = single.solve_jobs(jobs.clone());

    let concurrent = Engine::with_workers(acamar(), 4);
    assert_eq!(concurrent.workers(), 4);
    let parallel = concurrent.solve_jobs(jobs);

    assert!(reference.all_converged() && parallel.all_converged());
    for (i, (r, p)) in reference.results.iter().zip(&parallel.results).enumerate() {
        let (r, p) = (r.as_ref().unwrap(), p.as_ref().unwrap());
        assert_eq!(
            r.solve.solution, p.solve.solution,
            "job {i}: solution differs between 1 and 4 workers"
        );
        assert_eq!(r.solve.iterations, p.solve.iterations, "job {i}");
        assert_eq!(r.attempts.len(), p.attempts.len(), "job {i}");
    }
    assert_eq!(reference.attempts_by_solver, parallel.attempts_by_solver);
}

#[test]
fn cache_hits_equal_jobs_minus_distinct_patterns() {
    let systems = distinct_systems();
    let distinct = systems.len() as u64;
    let jobs = job_mix(&systems, 24);
    let total = jobs.len() as u64;

    let engine = Engine::with_workers(acamar(), 4);
    let batch = engine.solve_jobs(jobs);

    assert!(batch.all_converged());
    assert_eq!(batch.cache.misses, distinct);
    assert_eq!(batch.cache.hits, total - distinct);
    let counters = engine.counters();
    assert_eq!(counters.jobs_completed, total);
    assert_eq!(counters.cache.entries, distinct as usize);
}

#[test]
fn external_threads_hammering_one_shared_engine_stay_consistent() {
    // Beyond the engine's own pool: 4 OS threads each pushing their own
    // batches into one shared engine, concurrently.
    let systems = distinct_systems();
    let engine = Arc::new(Engine::with_workers(acamar(), 2));
    let reference = Engine::with_workers(acamar(), 1).solve_jobs(job_mix(&systems, 6));

    let threads = 4;
    let reference = &reference;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let engine = Arc::clone(&engine);
            let systems = systems.clone();
            scope.spawn(move || {
                let batch = engine.solve_jobs(job_mix(&systems, 6));
                for (i, result) in batch.results.iter().enumerate() {
                    let got = result.as_ref().unwrap();
                    let want = reference.results[i].as_ref().unwrap();
                    assert_eq!(got.solve.solution, want.solve.solution, "job {i}");
                }
            });
        }
    });

    let counters = engine.counters();
    assert_eq!(counters.jobs_completed, (threads * 6) as u64);
    // Even with racing batches, each pattern is analyzed exactly once.
    assert_eq!(counters.cache.misses, systems.len() as u64);
    assert_eq!(
        counters.cache.hits,
        (threads * 6) as u64 - systems.len() as u64
    );
}

#[test]
fn solve_batch_of_eight_rhs_analyzes_exactly_once() {
    let engine = Engine::with_workers(acamar(), 4);
    let a = generate::poisson2d::<f64>(16, 16);
    let rhss: Vec<Vec<f64>> = (0..8)
        .map(|k| {
            (0..256)
                .map(|i| 1.0 + (i * (k + 1)) as f64 * 1e-4)
                .collect()
        })
        .collect();

    let batch = engine.solve_batch(&a, &rhss).unwrap();

    assert_eq!(batch.jobs(), 8);
    assert!(batch.all_converged());
    // The acceptance criterion: one analysis serves the whole batch.
    assert_eq!(batch.cache.misses, 1);
    assert_eq!(batch.cache.hits, 7);
    assert_eq!(engine.counters().cache.entries, 1);
    assert!(batch.cache.analysis_nanos > 0);

    // And a second batch on the same pattern is all hits.
    let again = engine.solve_batch(&a, &rhss).unwrap();
    assert_eq!(again.cache.misses, 0);
    assert_eq!(again.cache.hits, 8);
}

#[test]
fn a_one_job_batch_runs_on_the_caller_and_answers_like_any_other_path() {
    // One runner is enough for a one-job batch, so it runs on the calling
    // thread; two jobs on two workers go through the pool. Which thread
    // ran a job must not show in its report.
    let a = Arc::new(generate::convection_diffusion_2d::<f64>(12, 11, 1.5));
    let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + i as f64 * 1e-3).collect();
    let other = SolveJob::new(Arc::new(generate::poisson2d::<f64>(9, 9)), vec![1.0; 81]);

    let alone = |policy| {
        let batch = Engine::with_workers(acamar(), 2).solve_jobs(vec![SolveJob::new(
            Arc::clone(&a),
            b.clone(),
        )
        .with_policy(policy)]);
        assert_eq!(batch.jobs(), 1);
        format!("{:?}", batch.results[0].as_ref().unwrap())
    };
    let direct = Engine::with_workers(acamar(), 2).solve_one(&a, &b).unwrap();
    assert!(direct.converged());
    assert_eq!(
        alone(DeterminismPolicy::Deterministic),
        format!("{direct:?}")
    );

    for policy in DeterminismPolicy::ALL {
        let pair = Engine::with_workers(acamar(), 2).solve_jobs(vec![
            other.clone(),
            SolveJob::new(Arc::clone(&a), b.clone()).with_policy(policy),
        ]);
        let paired = format!("{:?}", pair.results[1].as_ref().unwrap());
        assert_eq!(alone(policy), paired, "{policy}");
    }
}

#[cfg(feature = "fault-injection")]
#[test]
fn a_panic_in_a_one_job_batch_is_typed_and_leaves_the_engine_usable() {
    use acamar::engine::SolveError;
    use acamar::faultline::{FaultCategory, FaultInjector, FaultPlan};

    let a = Arc::new(generate::poisson2d::<f64>(8, 8));
    let job = || SolveJob::new(Arc::clone(&a), vec![1.0; 64]);
    // Every job is disrupted, by a panic or a stall as its index rolls:
    // take the first seed that panics job 0 and only stalls job 1.
    let mut checked = false;
    for seed in 0..64 {
        let plan = FaultPlan::new(seed).with_rate(FaultCategory::WorkerDisruption, 1.0);
        let engine = Engine::with_workers(acamar(), 2)
            .with_fault_injection(Arc::new(FaultInjector::new(plan)));
        // The panic unwinds on this thread, inside the job's own guard.
        let lone = engine.solve_jobs(vec![job()]);
        if !matches!(lone.results[0], Err(SolveError::Panicked { .. })) {
            continue;
        }
        assert_eq!(lone.robustness.panics_caught, 1);
        let pair = engine.solve_jobs(vec![job(), job()]);
        assert!(matches!(pair.results[0], Err(SolveError::Panicked { .. })));
        if !matches!(&pair.results[1], Ok(r) if r.converged()) {
            continue;
        }
        // And the calling-thread path still works after unwinding once.
        let again = engine.solve_jobs(vec![job()]);
        assert!(matches!(again.results[0], Err(SolveError::Panicked { .. })));
        assert_eq!(engine.counters().jobs_completed, 4);
        checked = true;
        break;
    }
    assert!(checked, "no seed under 64 panics job 0 and stalls job 1");
}
