//! Chaos engineering against the batch solve service.
//!
//! Runs the 64-job acceptance scenario of the fault-injection harness:
//! every fault category armed at a 25% per-job rate against a fully
//! hardened engine (panic isolation, deadlines, rescue ladder, reconfig
//! degrade, cache provenance guard), then prints the reconciled
//! robustness ledger. Because every injection decision is a pure function
//! of `(seed, category, job, site)`, re-running this binary replays the
//! exact same faults.
//!
//! Run with `cargo run --release --example chaos_service`.

use acamar::core::{Acamar, AcamarConfig};
use acamar::engine::{Engine, ResilienceConfig, SolveError, SolveJob};
use acamar::fabric::FabricSpec;
use acamar::faultline::{FaultCategory, FaultInjector, FaultPlan};
use acamar::service::{Service, ServiceConfig, ServiceError, ServiceRequest};
use acamar::solvers::ConvergenceCriteria;
use acamar::sparse::generate;
use acamar::telemetry::{Counter, EventKind, RingRecorder};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let seed = 0xACA3;
    let rate = 0.25;
    let plan = FaultPlan::uniform(seed, rate);
    let injector = Arc::new(FaultInjector::new(plan));

    let cfg =
        AcamarConfig::paper().with_criteria(ConvergenceCriteria::paper().with_max_iterations(2000));
    // The recorder captures the injection/outcome event stream alongside
    // the ledger; because the faults replay deterministically, so does
    // the normalized telemetry trace (see the chaos-replay test).
    let recorder = Arc::new(RingRecorder::new(1 << 17));
    let engine = Engine::new(Acamar::new(FabricSpec::alveo_u55c(), cfg))
        .with_recorder(recorder.clone())
        .with_resilience(
            ResilienceConfig::hardened()
                .with_deadline(Duration::from_secs(5))
                .with_iteration_budget(50_000),
        )
        .with_fault_injection(Arc::clone(&injector));

    println!(
        "chaos service: seed {seed:#x}, {:.0}% rate in all {} fault categories, {} workers\n",
        rate * 100.0,
        FaultCategory::COUNT,
        engine.workers()
    );

    let families = [
        Arc::new(generate::poisson2d::<f64>(16, 16)),
        Arc::new(generate::poisson2d::<f64>(20, 12)),
        Arc::new(generate::convection_diffusion_2d::<f64>(14, 14, 2.0)),
    ];
    let jobs: Vec<SolveJob<f64>> = (0..64)
        .map(|k| {
            let a = &families[k % families.len()];
            let b: Vec<f64> = (0..a.nrows())
                .map(|i| 1.0 + ((i + 5 * k) % 13) as f64 * 0.05)
                .collect();
            SolveJob::new(Arc::clone(a), b)
        })
        .collect();

    let batch = engine.solve_jobs(jobs);
    let r = &batch.robustness;

    println!(
        "batch: {} jobs, {} converged",
        batch.jobs(),
        batch.converged
    );
    println!(
        "engine survived: {} panics caught, {} deadline misses, 0 uncontained panics\n",
        r.panics_caught, r.deadline_misses
    );

    println!("fault ledger (detected + recovered + exhausted == injected):");
    println!(
        "  {:<18} {:>8} {:>9} {:>9} {:>9}",
        "category", "injected", "detected", "recovered", "exhausted"
    );
    for category in FaultCategory::ALL {
        let t = r.tallies[category.index()];
        println!(
            "  {:<18} {:>8} {:>9} {:>9} {:>9}",
            category.label(),
            t.injected,
            t.detected,
            t.recovered,
            t.exhausted
        );
    }
    println!(
        "  ledger reconciles: {} ({} injected, {} survived)\n",
        r.accounted(),
        r.injected_total(),
        r.survived_total()
    );

    println!("rescue-depth histogram (rungs climbed -> jobs):");
    for (depth, count) in r.rescue_depths.iter().enumerate() {
        if *count > 0 {
            println!("  {depth} rungs: {count} jobs");
        }
    }
    if !r.exhausted_jobs.is_empty() {
        println!("\njobs lost after every rescue: {:?}", r.exhausted_jobs);
        for &i in &r.exhausted_jobs {
            if let Err(e) = &batch.results[i] {
                println!("  job {i}: {e}");
            } else {
                println!("  job {i}: diverged after the full ladder");
            }
        }
    }

    println!("\nfabric damage absorbed:");
    println!(
        "  reconfig aborts: {}, lost-area cycles: {}, degraded runs present: {}",
        batch.stats.reconfig_aborts, batch.stats.lost_area_cycles, batch.stats.degraded_to_static
    );
    println!(
        "  cache: {} hits / {} misses, {} provenance collisions absorbed",
        batch.cache.hits, batch.cache.misses, batch.cache.collisions
    );

    let first_typed = batch.results.iter().find_map(|r| r.as_ref().err());
    if let Some(e) = first_typed {
        let kind = match e {
            SolveError::Invalid(_) => "invalid input",
            SolveError::Solver(_) => "solver error",
            SolveError::Panicked { .. } => "isolated panic",
            SolveError::DeadlineExceeded { .. } => "deadline",
        };
        println!("\nexample typed failure ({kind}): {e}");
    }

    // --- Telemetry joins the ledger ----------------------------------
    // The fault counters are the same numbers as the reconciled ledger,
    // published through a second independent channel; the event stream
    // additionally carries the (category, site) of every injection.
    let counters = recorder.counters();
    let events = recorder.drain();
    let injected_events = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FaultInjected { .. }))
        .count();
    println!("\ntelemetry fault join:");
    println!(
        "  counters: injected {}, detected {}, recovered {}, exhausted {} \
         (ledger injected: {})",
        counters[Counter::FaultsInjected.index()],
        counters[Counter::FaultsDetected.index()],
        counters[Counter::FaultsRecovered.index()],
        counters[Counter::FaultsExhausted.index()],
        r.injected_total()
    );
    println!(
        "  event stream: {} FaultInjected events over {} total events ({} dropped)",
        injected_events,
        events.len(),
        recorder.dropped()
    );
    println!(
        "  replay note: re-running with seed {seed:#x} reproduces this trace \
         (normalize timestamps to compare)"
    );

    // --- Fault injection under load: the serving layer under fire ----
    // The same fault plan, now behind admission and sharding: each shard
    // derives its own engine injector (`seed ^ (shard + 1)`) so
    // concurrent shard batches never mix ledgers, while the three
    // *service* seams (dispatcher panic/stall, queue drop) roll from one
    // service-level injector keyed by the global admission sequence. The
    // smoke asserts the self-healing invariants hold even while faults
    // land — every ticket resolves with a typed outcome, the service
    // ledger reconciles, no telemetry event is dropped, and shutdown
    // drains clean.
    let service_ring = Arc::new(RingRecorder::new(1 << 17));
    let service = Service::<f64>::with_fault_plan(
        Acamar::new(
            FabricSpec::alveo_u55c(),
            AcamarConfig::paper()
                .with_criteria(ConvergenceCriteria::paper().with_max_iterations(2000)),
        ),
        ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(64)
            .with_retry_budget(2)
            .with_restart_backoff(Duration::from_millis(1))
            .with_resilience(
                ResilienceConfig::hardened()
                    .with_deadline(Duration::from_secs(5))
                    .with_iteration_budget(50_000),
            ),
        FaultPlan::uniform(seed, rate),
        Some(Arc::clone(&service_ring)),
    );
    let tickets: Vec<_> = (0..32)
        .map(|k| {
            let a = &families[k % families.len()];
            let b: Vec<f64> = (0..a.nrows())
                .map(|i| 1.0 + ((i + 5 * k) % 13) as f64 * 0.05)
                .collect();
            service
                .submit(ServiceRequest::new(Arc::clone(a), b))
                .expect("stream fits the queue bound")
        })
        .collect();
    let (mut ok, mut solve_errors, mut shed, mut given_up) = (0u32, 0u32, 0u32, 0u32);
    for t in tickets {
        match t.wait() {
            Ok(report) => {
                assert!(report.converged());
                ok += 1;
            }
            Err(ServiceError::Solve(_)) => solve_errors += 1,
            Err(ServiceError::Shed { .. }) => shed += 1,
            Err(ServiceError::ShardRestarted { .. }) | Err(ServiceError::Dropped { .. }) => {
                given_up += 1
            }
        }
    }
    println!(
        "\nserving layer under fire ({} shards, same rate):",
        service.shards()
    );
    println!(
        "  32 requests: {ok} converged, {solve_errors} typed solve failures, \
         {shed} shed, {given_up} retry-budget exhausted"
    );
    let c = service_ring.counters();
    println!(
        "  faults through the front-end: injected {}, recovered {}; \
         rescue rungs {}",
        c[Counter::FaultsInjected.index()],
        c[Counter::FaultsRecovered.index()],
        c[Counter::RescueRungs.index()],
    );
    println!(
        "  self-healing: {} dispatcher restarts, {} job retries, \
         {} failovers, {} health transitions",
        c[Counter::DispatcherRestarts.index()],
        c[Counter::JobsRetried.index()],
        c[Counter::Failovers.index()],
        c[Counter::HealthTransitions.index()],
    );

    // The service's own seam ledger, in the same reconciliation
    // vocabulary as the engine's robustness report.
    let ledger = service.service_ledger();
    println!("\nservice seam ledger (detected + recovered + exhausted == injected):");
    println!(
        "  {:<18} {:>8} {:>9} {:>9} {:>9}",
        "category", "injected", "detected", "recovered", "exhausted"
    );
    for category in FaultCategory::SERVICE {
        let t = ledger.category(category);
        println!(
            "  {:<18} {:>8} {:>9} {:>9} {:>9}",
            category.label(),
            t.injected,
            t.detected,
            t.recovered,
            t.exhausted
        );
    }
    println!(
        "  ledger reconciles: {} ({} injected, {} pending)",
        ledger.accounted(),
        ledger.injected_total(),
        ledger.pending
    );
    assert!(ledger.accounted(), "service seam ledger must reconcile");
    assert_eq!(
        ok + solve_errors + shed + given_up,
        32,
        "every ticket resolves"
    );
    assert_eq!(
        service.dropped_events(),
        0,
        "no telemetry dropped under fire"
    );

    // Machine-readable artifact for CI: the reconciled seam ledger.
    if let Ok(path) = std::env::var("CHAOS_LEDGER_OUT") {
        let mut json = String::from("{\"seed\":");
        json.push_str(&format!("{seed},\"rate\":{rate},\"categories\":["));
        for (i, category) in FaultCategory::SERVICE.iter().enumerate() {
            let t = ledger.category(*category);
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"category\":\"{}\",\"injected\":{},\"detected\":{},\
                 \"recovered\":{},\"exhausted\":{}}}",
                category.label(),
                t.injected,
                t.detected,
                t.recovered,
                t.exhausted
            ));
        }
        json.push_str(&format!(
            "],\"accounted\":{},\"restarts\":{},\"retries\":{}}}\n",
            ledger.accounted(),
            c[Counter::DispatcherRestarts.index()],
            c[Counter::JobsRetried.index()],
        ));
        std::fs::write(&path, json).expect("write chaos ledger artifact");
        println!("  seam ledger written to {path}");
    }
    drop(service);
    println!("  service shut down clean under injected faults");
}
