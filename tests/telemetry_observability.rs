//! Observability integration suite (`--features telemetry`).
//!
//! Proves the telemetry layer's two core contracts end to end:
//!
//! 1. **Neutrality** — telemetry is purely observational. Solutions,
//!    iteration counts, and modeled cycle charges are bitwise identical
//!    whether no recorder, a `NullRecorder`, or a live `RingRecorder` is
//!    installed.
//! 2. **Fidelity** — the exported trace reconstructs the engine's own
//!    accounting: per-set reconfiguration counts match
//!    `FabricRunStats::spmv_reconfig_events`, cache counters match
//!    `CacheStats`, and chaos replays produce identical (normalized)
//!    event streams.
#![cfg(feature = "telemetry")]

use acamar::core::{Acamar, AcamarConfig};
use acamar::engine::{Engine, ResilienceConfig, SolveJob};
use acamar::fabric::FabricSpec;
use acamar::faultline::{FaultInjector, FaultPlan};
use acamar::solvers::ConvergenceCriteria;
use acamar::sparse::generate::{self, RowDistribution};
use acamar::sparse::CsrMatrix;
use acamar::telemetry::{timeline, Counter, Event, EventKind, NullRecorder, RingRecorder};
use std::sync::Arc;

fn engine(workers: usize) -> Engine {
    let cfg =
        AcamarConfig::paper().with_criteria(ConvergenceCriteria::paper().with_max_iterations(2500));
    Engine::with_workers(Acamar::new(FabricSpec::alveo_u55c(), cfg), workers)
}

/// A matrix whose bimodal row lengths force the MSID schedule to
/// alternate unroll factors, so solves actually reconfigure.
fn mixed_matrix(n: usize, seed: u64) -> CsrMatrix<f64> {
    generate::diagonally_dominant::<f64>(
        n,
        RowDistribution::Bimodal {
            low: 3,
            high: 24,
            high_fraction: 0.4,
        },
        1.6,
        seed,
    )
}

fn jobs_over(a: &Arc<CsrMatrix<f64>>, count: usize) -> Vec<SolveJob<f64>> {
    (0..count)
        .map(|k| {
            let b: Vec<f64> = (0..a.nrows())
                .map(|i| 1.0 + ((i + 3 * k) % 7) as f64 * 0.125)
                .collect();
            SolveJob::new(Arc::clone(a), b)
        })
        .collect()
}

#[test]
fn null_recorder_is_bitwise_neutral() {
    let a = Arc::new(mixed_matrix(256, 33));
    let plain = engine(2).solve_jobs(jobs_over(&a, 6));
    let nulled = engine(2)
        .with_recorder(Arc::new(NullRecorder))
        .with_residual_stride(1)
        .solve_jobs(jobs_over(&a, 6));
    let ringed = engine(2)
        .with_recorder(Arc::new(RingRecorder::new(1 << 14)))
        .with_residual_stride(1)
        .solve_jobs(jobs_over(&a, 6));
    for (p, other) in std::iter::zip(&plain.results, &nulled.results)
        .chain(std::iter::zip(&plain.results, &ringed.results))
    {
        let (p, o) = (p.as_ref().unwrap(), other.as_ref().unwrap());
        assert_eq!(p.solve.solution, o.solve.solution, "bitwise solutions");
        assert_eq!(p.solve.iterations, o.solve.iterations);
        assert_eq!(p.stats.cycles.total(), o.stats.cycles.total());
        assert_eq!(p.stats.useful_flops, o.stats.useful_flops);
    }
}

#[test]
fn trace_reconfig_counts_match_fabric_stats() {
    let rec = Arc::new(RingRecorder::new(1 << 16));
    let e = engine(1).with_recorder(rec.clone());
    let a = Arc::new(mixed_matrix(384, 7));
    let batch = e.solve_jobs(jobs_over(&a, 4));
    assert!(batch.all_converged());

    let events = rec.drain();
    assert_eq!(rec.dropped(), 0, "ring sized for the whole trace");
    let counts = timeline::reconfig_counts(&events, None);
    assert!(counts.spmv > 0, "the mixed matrix must reconfigure");
    assert_eq!(
        counts.spmv, batch.stats.spmv_reconfig_events as u64,
        "every fabric reconfiguration appears in the trace exactly once"
    );
    assert_eq!(counts.aborts, batch.stats.reconfig_aborts as u64);

    // The counters snapshot agrees with the event stream and the stats.
    let counters = rec.counters();
    assert_eq!(counters[Counter::SpmvReconfigs.index()], counts.spmv);
    assert_eq!(
        counters[Counter::JobsCompleted.index()],
        batch.jobs() as u64
    );
    assert_eq!(counters[Counter::CacheHits.index()], batch.cache.hits);
    assert_eq!(counters[Counter::CacheMisses.index()], batch.cache.misses);
    assert!(counters[Counter::AnalysisNanos.index()] > 0);
    assert_eq!(
        counters[Counter::AnalysisNanos.index()],
        batch.cache.analysis_nanos,
        "cache stats and Prometheus export share one analysis-time source"
    );
}

#[test]
fn every_job_has_balanced_spans_and_lifecycle_events() {
    let rec = Arc::new(RingRecorder::new(1 << 16));
    let e = engine(3).with_recorder(rec.clone());
    let a = Arc::new(mixed_matrix(200, 11));
    let batch = e.solve_jobs(jobs_over(&a, 5));
    assert!(batch.all_converged());

    let events = rec.drain();
    for job in 0..5u64 {
        let of_job: Vec<&Event> = events.iter().filter(|e| e.job == job).collect();
        let starts = of_job
            .iter()
            .filter(|e| matches!(e.kind, EventKind::JobStart { .. }))
            .count();
        let ends = of_job
            .iter()
            .filter(|e| matches!(e.kind, EventKind::JobEnd { .. }))
            .count();
        assert_eq!((starts, ends), (1, 1), "job {job} lifecycle");
        let enters = of_job
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SpanEnter { .. }))
            .count();
        let exits = of_job
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SpanExit { .. }))
            .count();
        assert_eq!(enters, exits, "job {job} spans balance");
        assert!(
            of_job
                .iter()
                .any(|e| matches!(e.kind, EventKind::AttemptStart { rung: 0, .. })),
            "job {job} records its primary attempt"
        );
    }
    // Exactly one analysis ran; the other four jobs hit.
    let hits = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CacheHit))
        .count();
    let misses = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CacheMiss { .. }))
        .count();
    assert_eq!((hits, misses), (4, 1));
}

#[test]
fn residual_stream_is_stride_sampled() {
    let rec = Arc::new(RingRecorder::new(1 << 16));
    let e = engine(1).with_recorder(rec.clone()).with_residual_stride(4);
    let a = Arc::new(mixed_matrix(256, 5));
    let batch = e.solve_jobs(jobs_over(&a, 1));
    assert!(batch.all_converged());
    let iterations = batch.results[0].as_ref().unwrap().solve.iterations;

    let events = rec.drain();
    let residuals = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Residual { .. }))
        .count();
    assert!(residuals > 0, "stride 4 samples the stream");
    assert!(
        residuals <= iterations / 4 + 2,
        "sampling respects the stride ({residuals} samples over {iterations} iterations)"
    );
    assert_eq!(
        rec.counters()[Counter::ResidualSamples.index()],
        residuals as u64
    );
}

#[test]
fn chaos_replay_produces_identical_normalized_streams() {
    let capture = |seed: u64| -> (Vec<Event>, usize) {
        let rec = Arc::new(RingRecorder::new(1 << 16));
        let injector = Arc::new(FaultInjector::new(FaultPlan::uniform(seed, 0.3)));
        // One worker: a deterministic job order makes the full stream
        // (not just its per-job projections) comparable across runs.
        let e = engine(1)
            .with_recorder(rec.clone())
            .with_resilience(ResilienceConfig::hardened())
            .with_fault_injection(injector);
        let a = Arc::new(mixed_matrix(160, 13));
        let batch = e.solve_jobs(jobs_over(&a, 8));
        let events: Vec<Event> = rec.drain().into_iter().map(Event::normalized).collect();
        (events, batch.converged)
    };
    let (first, converged_first) = capture(0xACA3);
    let (second, converged_second) = capture(0xACA3);
    assert_eq!(converged_first, converged_second);
    assert_eq!(
        first, second,
        "same seed, same jobs: identical normalized event streams"
    );
    // A different seed perturbs the stream (sanity check that the
    // comparison above is not vacuous).
    let (third, _) = capture(0xBEEF);
    assert_ne!(first, third);
}

#[test]
fn fault_join_mirrors_the_robustness_ledger() {
    let rec = Arc::new(RingRecorder::new(1 << 16));
    let injector = Arc::new(FaultInjector::new(FaultPlan::uniform(21, 0.4)));
    let e = engine(2)
        .with_recorder(rec.clone())
        .with_resilience(ResilienceConfig::hardened())
        .with_fault_injection(injector);
    let a = Arc::new(mixed_matrix(160, 17));
    let batch = e.solve_jobs(jobs_over(&a, 12));
    let r = &batch.robustness;
    assert!(r.injected_total() > 0, "the plan actually fired");

    let counters = rec.counters();
    assert_eq!(
        counters[Counter::FaultsInjected.index()],
        r.injected_total()
    );
    let detected: u64 = r.tallies.iter().map(|t| t.detected).sum();
    let recovered: u64 = r.tallies.iter().map(|t| t.recovered).sum();
    let exhausted: u64 = r.tallies.iter().map(|t| t.exhausted).sum();
    assert_eq!(counters[Counter::FaultsDetected.index()], detected);
    assert_eq!(counters[Counter::FaultsRecovered.index()], recovered);
    assert_eq!(counters[Counter::FaultsExhausted.index()], exhausted);

    let events = rec.drain();
    let injected_events = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FaultInjected { .. }))
        .count() as u64;
    let outcome_events = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FaultOutcome { .. }))
        .count() as u64;
    assert_eq!(injected_events, r.injected_total());
    assert_eq!(outcome_events, r.injected_total());
}

#[test]
fn prometheus_snapshot_agrees_with_the_batch_report() {
    let rec = Arc::new(RingRecorder::new(1 << 16));
    let e = engine(2).with_recorder(rec.clone());
    let a = Arc::new(mixed_matrix(200, 29));
    let batch = e.solve_jobs(jobs_over(&a, 6));
    let text = batch.prometheus_text();
    for needle in [
        format!("acamar_jobs_completed_total {}", batch.jobs()),
        format!("acamar_plan_cache_hits_total {}", batch.cache.hits),
        format!("acamar_plan_cache_misses_total {}", batch.cache.misses),
        format!(
            "acamar_spmv_reconfigs_total {}",
            batch.stats.spmv_reconfig_events
        ),
        format!("acamar_jobs_converged_total {}", batch.converged),
    ] {
        assert!(text.contains(&needle), "missing `{needle}` in:\n{text}");
    }
    assert!(text.contains("# TYPE acamar_jobs_completed_total counter"));
    assert!(text.contains("# TYPE acamar_batch_wall_seconds gauge"));
}

#[test]
fn timeline_renders_the_reconfiguration_history() {
    let rec = Arc::new(RingRecorder::new(1 << 16));
    let e = engine(1).with_recorder(rec.clone());
    let a = Arc::new(mixed_matrix(384, 7));
    let batch = e.solve_jobs(jobs_over(&a, 2));
    assert!(batch.all_converged());

    let events = rec.drain();
    let rendered = timeline::render_job(&events, 0, 72);
    assert!(rendered.contains("job 0:"), "header present:\n{rendered}");
    assert!(
        rendered.contains("iterations"),
        "iteration axis present:\n{rendered}"
    );
    let summary = timeline::render_summary(&events);
    assert!(summary.contains("job 0"), "{summary}");
    assert!(summary.contains("job 1"), "{summary}");
}
