//! Supervision, failover, and service-seam chaos suite.
//!
//! The serving layer's self-healing acceptance tests
//! (`cargo test --test service_failover`):
//!
//! - a 64-job batch with every service seam (dispatcher panic, dispatcher
//!   stall, queue drop) firing loses zero jobs and keeps the service
//!   ledger's `detected + recovered + exhausted == injected` invariant in
//!   every category;
//! - same-seed chaos runs emit identical normalized telemetry streams;
//! - a broken shard's traffic deterministically spills down the failover
//!   ranking, half-opens after the configured diversions, and heals on a
//!   successful probe;
//! - dropping a service mid-chaos still resolves every outstanding
//!   ticket;
//! - rejected input does not trip a healthy shard's breaker.

use acamar::core::{Acamar, AcamarConfig};
use acamar::engine::PatternFingerprint;
use acamar::fabric::FabricSpec;
use acamar::faultline::{FaultCategory, FaultPlan};
use acamar::service::{
    shard_ranking, Service, ServiceConfig, ServiceError, ServiceRequest, ShardHealth, PROBE_AFTER,
};
use acamar::sparse::{generate, CsrMatrix};
use acamar::telemetry::{Counter, Event, RingRecorder};
use std::sync::Arc;
use std::time::Duration;

fn acamar() -> Acamar {
    Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper())
}

fn systems() -> Vec<Arc<CsrMatrix<f64>>> {
    vec![
        Arc::new(generate::poisson2d::<f64>(10, 10)),
        Arc::new(generate::poisson2d::<f64>(12, 8)),
        Arc::new(generate::convection_diffusion_2d::<f64>(9, 9, 2.0)),
    ]
}

fn request(a: &Arc<CsrMatrix<f64>>, k: usize) -> ServiceRequest<f64> {
    let b: Vec<f64> = (0..a.nrows())
        .map(|i| 1.0 + ((i + 3 * k) % 17) as f64 * 0.05)
        .collect();
    ServiceRequest::new(Arc::clone(a), b)
}

/// Every service seam at a meaningful rate, engine seams quiet — this
/// suite is about the serving layer's own failure modes.
fn service_seam_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_rate(FaultCategory::DispatcherPanic, 0.10)
        .with_rate(FaultCategory::DispatcherStall, 0.10)
        .with_rate(FaultCategory::QueueDrop, 0.15)
}

/// The acceptance scenario: 64 jobs through a chaos service with all
/// three service seams firing. Zero jobs lost — every ticket resolves,
/// and every resolution is either a converged solution or a typed,
/// budget-exhausted error — and the service ledger accounts for every
/// injected fault per category.
#[test]
fn sixty_four_job_service_chaos_batch_loses_nothing_and_accounts_every_fault() {
    let service = Service::<f64>::with_fault_plan(
        acamar(),
        ServiceConfig::default()
            .with_shards(2)
            .with_workers_per_shard(2)
            .with_queue_capacity(64)
            .with_retry_budget(2)
            .with_restart_backoff(Duration::ZERO),
        service_seam_plan(0xACA3),
        None::<Arc<RingRecorder>>,
    );
    let systems = systems();
    let tickets: Vec<_> = (0..64)
        .map(|k| {
            service
                .submit(request(&systems[k % systems.len()], k))
                .expect("under capacity")
        })
        .collect();
    let mut solved = 0usize;
    let mut exhausted = 0usize;
    for t in tickets {
        match t.wait() {
            Ok(report) => {
                assert!(report.converged());
                solved += 1;
            }
            Err(ServiceError::ShardRestarted { .. }) | Err(ServiceError::Dropped { .. }) => {
                exhausted += 1;
            }
            Err(e) => panic!("unexpected service error under seam chaos: {e}"),
        }
    }
    assert_eq!(solved + exhausted, 64, "zero jobs lost");
    assert!(solved > 0, "chaos at these rates must not kill everything");

    // Every ticket has resolved, so the ledger is final: nothing pending.
    let ledger = service.service_ledger();
    assert!(ledger.injected_total() > 0, "seams must actually fire");
    assert!(
        ledger.accounted(),
        "every category balances: {:?}",
        ledger.tallies
    );
    for cat in FaultCategory::SERVICE {
        let t = ledger.category(cat);
        assert_eq!(
            t.detected + t.recovered + t.exhausted,
            t.injected,
            "{cat:?} out of balance: {t:?}"
        );
    }
    // Engine categories stay zero in the *service* ledger.
    for cat in FaultCategory::ENGINE {
        assert_eq!(ledger.category(cat).injected, 0, "{cat:?} leaked in");
    }
}

/// Same seed, same submission order → identical normalized telemetry
/// streams, even though the run crosses dispatcher crashes and retries.
/// One shard and one worker pin the dispatch interleaving; pause/resume
/// pins the admission/dispatch boundary.
#[test]
fn same_seed_service_chaos_replays_identical_normalized_streams() {
    let run = || {
        let ring = Arc::new(RingRecorder::new(1 << 14));
        let service = Service::<f64>::with_fault_plan(
            acamar(),
            ServiceConfig::default()
                .with_shards(1)
                .with_workers_per_shard(1)
                .with_queue_capacity(32)
                .with_retry_budget(2)
                .with_restart_backoff(Duration::ZERO),
            service_seam_plan(0xF00D),
            Some(Arc::clone(&ring)),
        );
        service.pause();
        let systems = systems();
        let tickets: Vec<_> = (0..24)
            .map(|k| {
                service
                    .submit(request(&systems[k % systems.len()], k))
                    .expect("under capacity")
            })
            .collect();
        service.resume();
        for t in tickets {
            let _ = t.wait();
        }
        drop(service);
        let events: Vec<Event> = ring.drain().into_iter().map(Event::normalized).collect();
        events
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed, same order: identical normalized streams");
}

/// Breaking a shard spills its affinity traffic to the next shard in the
/// rendezvous ranking, the breaker half-opens after `PROBE_AFTER`
/// diversions, and a successful probe restores affinity routing.
#[test]
fn broken_shard_fails_over_down_the_ranking_then_probes_and_heals() {
    let shards = 4;
    let probe_after = PROBE_AFTER;
    let ring = Arc::new(RingRecorder::new(1 << 12));
    let service = Service::<f64>::with_recorder(
        acamar(),
        ServiceConfig::default().with_shards(shards),
        Arc::clone(&ring),
    );
    let a = Arc::new(generate::poisson2d::<f64>(10, 10));
    let ranking = shard_ranking(&PatternFingerprint::of(&a), shards);
    let home = ranking[0];
    let spill = ranking[1];

    // Healthy: affinity routing, tickets land on the home shard.
    let t = service.submit(request(&a, 0)).expect("admits");
    assert_eq!(t.shard(), home);
    assert!(t.wait().expect("solves").converged());

    service.break_shard(home);
    assert_eq!(service.shard_health(home), ShardHealth::Broken);

    // The first `probe_after - 1` submissions divert to the spill shard.
    for k in 0..probe_after as usize - 1 {
        let t = service.submit(request(&a, k + 1)).expect("admits");
        assert_eq!(t.shard(), spill, "diverted down the ranking");
        assert!(t.wait().expect("solves on the spill shard").converged());
    }
    // The next submission half-opens the breaker and probes home.
    let probe = service.submit(request(&a, 9)).expect("admits");
    assert_eq!(probe.shard(), home, "admitted as the half-open probe");
    assert!(probe.wait().expect("probe solves").converged());
    assert_eq!(service.shard_health(home), ShardHealth::Healthy);

    // Healed: affinity is back.
    let t = service.submit(request(&a, 10)).expect("admits");
    assert_eq!(t.shard(), home);
    assert!(t.wait().expect("solves at home again").converged());

    let counters = ring.counters();
    assert_eq!(
        counters[Counter::Failovers.index()],
        probe_after as u64 - 1,
        "one failover event per diversion"
    );
    assert_eq!(counters[Counter::BreakerProbes.index()], 1);
    assert!(counters[Counter::HealthTransitions.index()] >= 3);
}

/// With every shard broken, admission falls back to the home shard
/// rather than refusing traffic.
#[test]
fn all_shards_broken_still_serves_on_the_home_shard() {
    let service = Service::<f64>::new(acamar(), ServiceConfig::default().with_shards(2));
    let a = Arc::new(generate::poisson2d::<f64>(8, 8));
    service.break_shard(0);
    service.break_shard(1);
    let t = service.submit(request(&a, 0)).expect("admits");
    assert!(t.wait().expect("still solves").converged());
}

/// A typed input rejection is the request's fault, not the shard's: a run
/// of them, longer than the breaker's failure streak, leaves the home shard
/// healthy, and the next valid request for the pattern still lands on the
/// shard whose cache holds its plan.
#[test]
fn rejected_inputs_leave_a_healthy_shard_closed() {
    let service = Service::<f64>::new(acamar(), ServiceConfig::default().with_shards(2));
    let a = Arc::new(generate::poisson2d::<f64>(8, 8));
    let home = service.route(&a);
    let warm = service.submit(request(&a, 0)).expect("admits");
    assert_eq!(warm.shard(), home);
    assert!(warm.wait().expect("solves").converged());
    for k in 1..=8 {
        let mut bad = request(&a, k);
        bad.rhs[3] = f64::NAN;
        let t = service.submit(bad).expect("admits");
        assert_eq!(t.shard(), home, "rejections never divert traffic");
        match t.wait() {
            Err(ServiceError::Solve(e)) => assert!(e.is_invalid_input()),
            other => panic!("expected a typed input rejection, got {other:?}"),
        }
        assert_eq!(service.shard_health(home), ShardHealth::Healthy);
    }
    let t = service.submit(request(&a, 9)).expect("admits");
    assert_eq!(t.shard(), home, "no failover onto a cold shard");
    assert!(t.wait().expect("solves at home").converged());
    assert!(service.is_warm(home, &a));
    assert!(!service.is_warm(1 - home, &a));
}

/// Dropping the service mid-chaos (queued jobs, seams armed) resolves
/// every outstanding ticket: no `Ticket::wait` hang, ever.
#[test]
fn drop_under_seam_chaos_resolves_every_ticket() {
    for seed in [1u64, 2, 3] {
        let service = Service::<f64>::with_fault_plan(
            acamar(),
            ServiceConfig::default()
                .with_shards(2)
                .with_queue_capacity(32)
                .with_retry_budget(1)
                .with_restart_backoff(Duration::ZERO),
            service_seam_plan(seed),
            None::<Arc<RingRecorder>>,
        );
        service.pause();
        let systems = systems();
        let tickets: Vec<_> = (0..16)
            .map(|k| {
                service
                    .submit(request(&systems[k % systems.len()], k))
                    .expect("under capacity")
            })
            .collect();
        service.resume();
        drop(service);
        for t in tickets {
            // Resolution may be a solution or a typed error; what it may
            // not do is hang.
            let _ = t.wait_timed();
        }
    }
}

/// `wait_timed` on a crashed-then-recovered shard reports a latency and
/// an outcome for every job: the dispatcher's recovery requeues what was
/// stranded.
#[test]
fn crash_mid_burst_recovers_in_flight_jobs() {
    let service = Service::<f64>::new(
        acamar(),
        ServiceConfig::default()
            .with_shards(1)
            .with_queue_capacity(32)
            .with_retry_budget(2)
            .with_restart_backoff(Duration::ZERO),
    );
    service.pause();
    let systems = systems();
    let tickets: Vec<_> = (0..12)
        .map(|k| {
            service
                .submit(request(&systems[k % systems.len()], k))
                .expect("under capacity")
        })
        .collect();
    service.crash_shard(0);
    service.resume();
    for t in tickets {
        assert!(
            t.wait().expect("requeued and delivered").converged(),
            "crash fired before any pop: everything must still solve"
        );
    }
    assert!(service.restarts(0) >= 1);
    assert_eq!(service.service_ledger().injected_total(), 0);
}
