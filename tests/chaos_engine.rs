//! Chaos suite: the deterministic fault-injection harness driving every
//! hardening path of the batch engine at once.
//!
//! Run alone with `cargo test --test chaos_engine`.
//!
//! Everything here is seeded — each test replays the exact same fault
//! sequence on every run, whatever the worker interleaving, because each
//! injection decision is a pure function of `(seed, category, job, site)`.

use acamar::core::{Acamar, AcamarConfig, RescuePolicy};
use acamar::engine::{Engine, ResilienceConfig, SolveError, SolveJob};
use acamar::fabric::FabricSpec;
use acamar::faultline::{FaultCategory, FaultInjector, FaultPlan};
use acamar::solvers::{ConvergenceCriteria, DivergenceReason, Outcome, SolverKind};
use acamar::sparse::{generate, CsrMatrix, SparseError};
use std::sync::Arc;

fn acamar() -> Acamar {
    let cfg =
        AcamarConfig::paper().with_criteria(ConvergenceCriteria::paper().with_max_iterations(2000));
    Acamar::new(FabricSpec::alveo_u55c(), cfg)
}

fn systems() -> Vec<Arc<CsrMatrix<f64>>> {
    vec![
        Arc::new(generate::poisson2d::<f64>(10, 10)),
        Arc::new(generate::poisson2d::<f64>(12, 8)),
        Arc::new(generate::convection_diffusion_2d::<f64>(9, 9, 2.0)),
    ]
}

fn job_mix(systems: &[Arc<CsrMatrix<f64>>], jobs: usize) -> Vec<SolveJob<f64>> {
    (0..jobs)
        .map(|k| {
            let a = &systems[k % systems.len()];
            let b: Vec<f64> = (0..a.nrows())
                .map(|i| 1.0 + ((i + 3 * k) % 17) as f64 * 0.05)
                .collect();
            SolveJob::new(Arc::clone(a), b)
        })
        .collect()
}

/// The acceptance scenario: 64 jobs, every fault category at a 25% rate,
/// full hardening. The batch must complete with a result in every slot,
/// zero uncontained panics, and a ledger in which every injected fault is
/// accounted for (`detected + recovered + exhausted == injected`, per
/// category).
#[test]
fn sixty_four_job_chaos_batch_completes_and_accounts_every_fault() {
    let plan = FaultPlan::uniform(0xACA3, 0.25);
    let injector = Arc::new(FaultInjector::new(plan));
    let engine = Engine::with_workers(acamar(), 4)
        .with_resilience(ResilienceConfig::hardened())
        .with_fault_injection(Arc::clone(&injector));

    let batch = engine.solve_jobs(job_mix(&systems(), 64));

    assert_eq!(batch.jobs(), 64, "a result in every slot");
    let r = &batch.robustness;
    assert!(r.accounted(), "every fault accounted: {r:?}");
    assert_eq!(r.injected_total(), injector.injected_total());
    // Every *engine* seam must fire; the service seams (dispatcher
    // panic/stall, queue drop) live behind admission and are exercised
    // by tests/service_failover.rs instead.
    for category in FaultCategory::ENGINE {
        let t = r.tallies[category.index()];
        assert!(
            t.injected > 0,
            "seed 0xACA3 must exercise {category} (got none)"
        );
    }
    // Uncontained panics would have aborted the test; the contained ones
    // are all attributed to the worker-disruption seam.
    assert!(r.panics_caught > 0, "seed must inject at least one panic");
    // Failures are allowed under 25% chaos, but the engine must keep the
    // majority of the batch alive, and every failure must be typed.
    assert!(
        batch.converged > 32,
        "majority survives, got {}",
        batch.converged
    );
    assert_eq!(batch.converged + r.exhausted_jobs.len(), 64);
    assert!(r.rescued_jobs() > 0, "the ladder must see action");
    // Replaying the identical plan reproduces the identical ledger.
    let replay_injector = Arc::new(FaultInjector::new(FaultPlan::uniform(0xACA3, 0.25)));
    let replay = Engine::with_workers(acamar(), 2)
        .with_resilience(ResilienceConfig::hardened())
        .with_fault_injection(Arc::clone(&replay_injector))
        .solve_jobs(job_mix(&systems(), 64));
    assert_eq!(replay.robustness.tallies, r.tallies);
    assert_eq!(replay.robustness.exhausted_jobs, r.exhausted_jobs);
}

/// A fault-free engine (no injector installed) must reproduce the plain
/// accelerator byte for byte: the hardening hooks are inert until armed.
#[test]
fn fault_free_engine_is_byte_identical_to_the_plain_accelerator() {
    let systems = systems();
    let jobs = job_mix(&systems, 12);
    let engine = Engine::with_workers(acamar(), 4);
    let batch = engine.solve_jobs(jobs.clone());
    let reference = acamar();
    for (job, result) in jobs.iter().zip(&batch.results) {
        let got = result.as_ref().unwrap();
        let want = reference.run(&job.matrix, &job.rhs).unwrap();
        assert_eq!(got.solve.solution, want.solve.solution);
        assert_eq!(got.solve.iterations, want.solve.iterations);
        assert_eq!(got.stats.cycles.total(), want.stats.cycles.total());
        assert_eq!(got.attempts.len(), want.attempts.len());
    }
    assert_eq!(batch.robustness.injected_total(), 0);
    assert_eq!(batch.robustness.panics_caught, 0);
}

/// Poisoned right-hand sides (NaN/Inf written at intake) are caught by
/// input validation as typed, non-retryable errors naming the container.
#[test]
fn poisoned_rhs_is_rejected_as_a_typed_non_finite_error() {
    let plan = FaultPlan::new(5).with_rate(FaultCategory::RhsPoison, 1.0);
    let injector = Arc::new(FaultInjector::new(plan));
    let engine = Engine::with_workers(acamar(), 2)
        .with_resilience(ResilienceConfig::hardened())
        .with_fault_injection(injector);
    let batch = engine.solve_jobs(job_mix(&systems(), 6));
    for result in &batch.results {
        match result {
            Err(SolveError::Invalid(SparseError::NonFiniteValue { what, .. })) => {
                assert_eq!(*what, "right-hand side");
            }
            other => panic!("expected a typed rejection, got {other:?}"),
        }
    }
    // Deterministic rejections never climb the ladder.
    assert_eq!(batch.robustness.rescued_jobs(), 0);
    let t = batch.robustness.tallies[FaultCategory::RhsPoison.index()];
    assert_eq!((t.injected, t.exhausted), (6, 6));
    assert!(batch.robustness.accounted());
}

/// A stuck exponent bit in the SpMV datapath makes the residual explode;
/// the Monitor classifies it (`NonFinite` or `ResidualGrowth`) and the
/// Solver Modifier switches solvers — the paper's robustness loop,
/// triggered by an injected hardware fault.
#[test]
fn stuck_spmv_bit_is_classified_as_divergence_and_switches_solvers() {
    let plan = FaultPlan::new(9).with_rate(FaultCategory::SpmvBitFlip, 1.0);
    let injector = Arc::new(FaultInjector::new(plan));
    // No rescue ladder: observe the in-run defenses on their own.
    let engine = Engine::with_workers(acamar(), 1).with_fault_injection(injector);
    let a = generate::poisson2d::<f64>(10, 10);
    let report = match engine.solve_one(&a, &vec![1.0; 100]) {
        Ok(report) => report,
        Err(e) => panic!("a corrupted datapath still yields a report: {e}"),
    };
    // Rate 1.0 poisons every attempt, so the run cannot converge — but
    // every attempt must end in a *loud* divergence, never a silent wrong
    // answer, and the Modifier must have switched at least once.
    assert!(!report.converged());
    assert!(report.attempts.len() >= 2, "solver switch happened");
    for at in &report.attempts {
        match at.outcome {
            Outcome::Diverged(
                DivergenceReason::NonFinite
                | DivergenceReason::ResidualGrowth
                | DivergenceReason::Breakdown(_),
            ) => {}
            other => panic!("stuck bit must diverge loudly, got {other:?}"),
        }
    }
}

/// With a moderate bit-flip rate the rescue ladder's retry (a fresh
/// attempt re-rolls the stuck bit) recovers jobs the primary run lost.
#[test]
fn rescue_ladder_recovers_bit_flipped_jobs() {
    let plan = FaultPlan::new(21).with_rate(FaultCategory::SpmvBitFlip, 0.5);
    let injector = Arc::new(FaultInjector::new(plan));
    let engine = Engine::with_workers(acamar(), 2)
        .with_resilience(ResilienceConfig::hardened())
        .with_fault_injection(Arc::clone(&injector));
    let batch = engine.solve_jobs(job_mix(&systems(), 16));
    let t = batch.robustness.tallies[FaultCategory::SpmvBitFlip.index()];
    assert!(t.injected > 0);
    assert!(
        t.recovered > 0,
        "some flipped job must converge via rescue: {t:?}"
    );
    assert!(batch.robustness.accounted());
    assert_eq!(
        batch.converged + batch.robustness.exhausted_jobs.len(),
        batch.jobs()
    );
}

/// Aborted partial reconfigurations degrade the fabric to the static
/// max-unroll kernel: the job still converges, and the wasted swap plus
/// the oversized-unroll segments are charged to the run's stats.
#[test]
fn reconfig_aborts_degrade_to_static_and_still_converge() {
    let plan = FaultPlan::new(3).with_rate(FaultCategory::ReconfigAbort, 1.0);
    let injector = Arc::new(FaultInjector::new(plan));
    let engine = Engine::with_workers(acamar(), 1).with_fault_injection(Arc::clone(&injector));
    // The convection-diffusion pattern has a varied row-length profile,
    // so its plan actually schedules mid-run unroll swaps to abort.
    let a = generate::convection_diffusion_2d::<f64>(16, 16, 2.0);
    let report = engine.solve_one(&a, &vec![1.0; 256]).unwrap();
    assert!(report.converged(), "degraded fabric is still correct");
    assert!(report.stats.degraded_to_static);
    assert!(report.stats.reconfig_aborts >= 1);
    assert!(
        report.stats.lost_area_cycles > 0,
        "running off-plan unrolls must be charged as lost area"
    );
    let t = injector.injected();
    assert!(t[FaultCategory::ReconfigAbort.index()] >= 1);
}

/// Worker panics are contained per job: with the ladder enabled the
/// retry rung re-runs the job, and seeds where a later roll stays quiet
/// recover it.
#[test]
fn injected_worker_panics_are_contained_and_retried() {
    let plan = FaultPlan::new(17).with_rate(FaultCategory::WorkerDisruption, 0.6);
    let injector = Arc::new(FaultInjector::new(plan));
    let engine = Engine::with_workers(acamar(), 4)
        .with_resilience(ResilienceConfig::hardened())
        .with_fault_injection(Arc::clone(&injector));
    let batch = engine.solve_jobs(job_mix(&systems(), 16));
    assert_eq!(batch.jobs(), 16);
    assert!(batch.robustness.panics_caught > 0, "panics were injected");
    assert!(batch.robustness.accounted());
    // The ladder turns panicked primaries into recoveries.
    let t = batch.robustness.tallies[FaultCategory::WorkerDisruption.index()];
    assert!(t.injected > 0);
    assert!(
        batch.converged + batch.robustness.exhausted_jobs.len() == 16,
        "every job lands in exactly one bucket"
    );
}

/// Under total chaos a tight wall-clock deadline still bounds every job:
/// work either finishes or fails fast with a typed deadline error.
#[test]
fn deadlines_bound_jobs_even_under_chaos() {
    let plan = FaultPlan::uniform(99, 0.5);
    let injector = Arc::new(FaultInjector::new(plan));
    let resilience = ResilienceConfig {
        rescue: Some(RescuePolicy::default()),
        ..ResilienceConfig::default()
    }
    .with_deadline(std::time::Duration::from_millis(200))
    .with_iteration_budget(20_000);
    let engine = Engine::with_workers(acamar(), 4)
        .with_resilience(resilience)
        .with_fault_injection(injector);
    let batch = engine.solve_jobs(job_mix(&systems(), 24));
    assert_eq!(batch.jobs(), 24);
    assert!(batch.robustness.accounted());
    for result in &batch.results {
        if let Err(SolveError::DeadlineExceeded { limit_ms, .. }) = result {
            assert_eq!(*limit_ms, 200);
        }
    }
}

/// The Gmres last resort can be forced through the ladder: with every
/// other rung exhausted by a starved budget, the merged report shows the
/// climb in order.
#[test]
fn ladder_climb_is_visible_in_the_merged_report() {
    let cfg =
        AcamarConfig::paper().with_criteria(ConvergenceCriteria::paper().with_max_iterations(4));
    let engine = Engine::with_workers(Acamar::new(FabricSpec::alveo_u55c(), cfg), 1)
        .with_resilience(ResilienceConfig {
            rescue: Some(RescuePolicy {
                min_iterations: 2000,
                ..RescuePolicy::default()
            }),
            ..ResilienceConfig::default()
        });
    let a = generate::poisson2d::<f64>(10, 10);
    let report = engine.solve_one(&a, &vec![1.0; 100]).unwrap();
    assert!(report.converged());
    assert!(
        report.attempts.len() >= 2,
        "the starved primary attempts precede the rescue in the report"
    );
    assert!(!report.attempts[0].outcome.converged());
    assert!(report.attempts.last().unwrap().outcome.converged());
}

/// A system all three paper solvers lose is the GMRES rung's to win: the
/// plain accelerator ends unconverged, and a hardened engine climbs past
/// the retry, SOR and PCG to a converged restarted GMRES. (Perturbed
/// indefinite blocks are no test of this rung: SOR, one rung earlier,
/// solves them.)
#[test]
fn the_gmres_rung_rescues_a_system_all_three_solvers_lose() {
    // Convection-dominated centred differences: not dominant, not
    // symmetric, and BiCG-STAB stagnates.
    let a = generate::convection_diffusion_2d_centered::<f64>(12, 10, 100.0);
    let b = vec![1.0; a.nrows()];
    let cfg =
        AcamarConfig::paper().with_criteria(ConvergenceCriteria::paper().with_max_iterations(800));
    let acamar = Acamar::new(FabricSpec::alveo_u55c(), cfg);
    let plain = acamar.run(&a, &b).unwrap();
    assert!(!plain.converged(), "attempts {:?}", plain.attempts);
    assert_eq!(plain.attempts.len(), 3);

    // The budget floor lets the fourth rung's GMRES run to convergence.
    let engine = Engine::with_workers(acamar, 1).with_resilience(ResilienceConfig {
        rescue: Some(RescuePolicy {
            min_iterations: 800,
            ..RescuePolicy::default()
        }),
        ..ResilienceConfig::hardened()
    });
    let report = engine.solve_one(&a, &b).unwrap();
    assert!(report.converged(), "attempts {:?}", report.attempts);
    assert_eq!(report.final_solver(), SolverKind::Gmres);
    let (last, climbed) = report.attempts.split_last().unwrap();
    assert_eq!(last.solver, SolverKind::Gmres);
    assert!(climbed.iter().all(|at| !at.outcome.converged()));
    for rung in [SolverKind::Sor, SolverKind::PreconditionedCg] {
        assert!(climbed.iter().any(|at| at.solver == rung), "{rung} tried");
    }
}
