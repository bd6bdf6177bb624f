//! Admission, backpressure, deadline, and determinism suite for the
//! serving layer.
//!
//! Every test drives the queue into a known state first —
//! [`Service::pause`] holds the dispatchers while submissions build the
//! queue, so what the scheduler sees is exact, not racy — and then
//! releases it and asserts on typed errors, completion order (via the
//! global completion index), and bitwise solution identity.
//!
//! Each scenario runs at 1, 2, and 4 shards where shard count is not
//! itself the thing pinned down.

use acamar::core::{Acamar, AcamarConfig};
use acamar::engine::{Engine, SolveJob};
use acamar::fabric::FabricSpec;
use acamar::service::{
    AdmissionError, Priority, Service, ServiceConfig, ServiceRequest, RETRY_AFTER_FLOOR,
};
use acamar::sparse::{generate, CsrMatrix};
use acamar::telemetry::{Counter, RingRecorder};
use std::sync::Arc;
use std::time::Duration;

fn acamar() -> Acamar {
    Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper())
}

fn system() -> Arc<CsrMatrix<f64>> {
    Arc::new(generate::poisson2d::<f64>(10, 10))
}

fn request(a: &Arc<CsrMatrix<f64>>, scale: f64) -> ServiceRequest<f64> {
    ServiceRequest::new(Arc::clone(a), vec![scale; a.nrows()])
}

#[test]
fn queue_full_rejection_is_typed_and_carries_retry_after() {
    let capacity = 4;
    let service = Service::<f64>::new(
        acamar(),
        ServiceConfig::default()
            .with_shards(1)
            .with_queue_capacity(capacity),
    );
    service.pause();
    let a = system();
    let tickets: Vec<_> = (0..capacity)
        .map(|k| {
            service
                .submit(request(&a, 1.0 + k as f64))
                .expect("under capacity")
        })
        .collect();
    assert_eq!(service.queue_depth(0), capacity);

    let err = service
        .submit(request(&a, 99.0))
        .expect_err("queue is full");
    let AdmissionError::QueueFull {
        shard,
        depth,
        capacity: cap,
        retry_after,
    } = err;
    assert_eq!(shard, 0);
    assert_eq!(depth, capacity);
    assert_eq!(cap, capacity);
    assert!(
        retry_after >= RETRY_AFTER_FLOOR,
        "retry-after {retry_after:?} must respect the floor"
    );
    assert_eq!(err.retry_after(), retry_after);

    // Backpressure is advisory, not fatal: once the queue drains, the
    // same submission is admitted.
    service.resume();
    for t in tickets {
        assert!(t
            .wait()
            .expect("queued jobs complete after resume")
            .converged());
    }
    let retried = service
        .submit(request(&a, 99.0))
        .expect("drained queue admits");
    assert!(retried.wait().expect("retried job solves").converged());
}

#[test]
fn expired_deadline_jobs_are_shed_before_any_solve() {
    for shards in [1usize, 2, 4] {
        let ring = Arc::new(RingRecorder::new(1024));
        let service = Service::<f64>::with_recorder(
            acamar(),
            ServiceConfig::default().with_shards(shards),
            Arc::clone(&ring),
        );
        service.pause();
        let a = system();
        // A zero deadline has expired by the time any dispatcher sees it.
        let doomed = service
            .submit(request(&a, 1.0).with_deadline(Duration::ZERO))
            .expect("admission ignores the deadline");
        let healthy = service.submit(request(&a, 2.0)).expect("under capacity");
        service.resume();

        let shed = doomed.wait().expect_err("expired deadline must shed");
        assert!(shed.is_shed(), "got {shed:?} instead of Shed");
        assert!(healthy.wait().expect("no deadline, solves").converged());

        // The shed job never reached a solver on any shard: exactly one
        // engine job ran (the healthy one).
        let ran: u64 = (0..shards)
            .map(|s| service.engine(s).counters().jobs_completed)
            .sum();
        assert_eq!(ran, 1, "{shards} shards: shed job must not be solved");
        assert_eq!(ring.counters()[Counter::JobsShed.index()], 1);
        assert_eq!(ring.counters()[Counter::JobsAdmitted.index()], 2);
        assert_eq!(service.dropped_events(), 0);
    }
}

#[test]
fn starvation_bound_promotes_waiting_low_priority_work() {
    let a = system();
    // With an unreachable bound, strict class order wins: the high-
    // priority job overtakes the earlier-queued low-priority one.
    let strict = Service::<f64>::new(
        acamar(),
        ServiceConfig::default()
            .with_shards(1)
            .with_starvation_bound(Duration::from_secs(3600)),
    );
    strict.pause();
    let low = strict
        .submit(request(&a, 1.0).with_priority(Priority::Low).with_tenant(7))
        .expect("under capacity");
    let high = strict
        .submit(
            request(&a, 2.0)
                .with_priority(Priority::High)
                .with_tenant(8),
        )
        .expect("under capacity");
    strict.resume();
    let (low_result, low_idx) = low.wait_with_index();
    let (high_result, high_idx) = high.wait_with_index();
    assert!(low_result.expect("completes").converged());
    assert!(high_result.expect("completes").converged());
    assert!(
        high_idx < low_idx,
        "unreachable bound: high priority dispatches first ({high_idx} vs {low_idx})"
    );

    // With a zero bound every queued job is already past its bounded
    // wait, so admission order wins and the low-priority tenant is not
    // overtaken — the starvation guarantee, taken to its limit.
    let fair = Service::<f64>::new(
        acamar(),
        ServiceConfig::default()
            .with_shards(1)
            .with_starvation_bound(Duration::ZERO),
    );
    fair.pause();
    let low = fair
        .submit(request(&a, 1.0).with_priority(Priority::Low).with_tenant(7))
        .expect("under capacity");
    let high = fair
        .submit(
            request(&a, 2.0)
                .with_priority(Priority::High)
                .with_tenant(8),
        )
        .expect("under capacity");
    fair.resume();
    let (low_result, low_idx) = low.wait_with_index();
    let (high_result, high_idx) = high.wait_with_index();
    assert!(low_result.expect("completes").converged());
    assert!(high_result.expect("completes").converged());
    assert!(
        low_idx < high_idx,
        "zero bound: the starved low-priority job dispatches first \
         ({low_idx} vs {high_idx})"
    );
}

#[test]
fn service_results_are_bitwise_identical_to_direct_solve_jobs() {
    let systems: Vec<Arc<CsrMatrix<f64>>> = vec![
        Arc::new(generate::poisson2d::<f64>(8, 8)),
        Arc::new(generate::poisson2d::<f64>(10, 6)),
        Arc::new(generate::poisson1d::<f64>(48)),
        Arc::new(generate::tridiagonal::<f64>(40, -1.0, 4.0, -1.0)),
    ];
    let jobs: Vec<SolveJob<f64>> = (0..32)
        .map(|k| {
            let a = Arc::clone(&systems[k % systems.len()]);
            let rhs = vec![1.0 + (k as f64) * 0.25; a.nrows()];
            SolveJob::new(a, rhs)
        })
        .collect();

    let direct = Engine::with_workers(acamar(), 1).solve_jobs(jobs.clone());
    assert!(direct.all_converged());

    for shards in [1usize, 2, 4] {
        let service = Service::<f64>::new(
            acamar(),
            ServiceConfig::default()
                .with_shards(shards)
                .with_queue_capacity(64),
        );
        let tickets: Vec<_> = jobs
            .iter()
            .map(|j| {
                service
                    .submit(ServiceRequest::new(Arc::clone(&j.matrix), j.rhs.clone()))
                    .expect("under capacity")
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let served = t.wait().expect("solves");
            let reference = direct.results[i].as_ref().expect("solves");
            assert_eq!(
                served.solve.solution, reference.solve.solution,
                "{shards} shards: job {i} solution differs"
            );
            assert_eq!(served.solve.iterations, reference.solve.iterations);
            assert_eq!(served.final_solver(), reference.final_solver());
        }
    }
}

#[test]
fn paused_service_sheds_nothing_and_loses_nothing_on_drop() {
    let ring = Arc::new(RingRecorder::new(4096));
    let service = Service::<f64>::with_recorder(
        acamar(),
        ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(32),
        Arc::clone(&ring),
    );
    service.pause();
    let a = system();
    let tickets: Vec<_> = (0..8)
        .map(|k| {
            service
                .submit(request(&a, 1.0 + k as f64))
                .expect("under capacity")
        })
        .collect();
    // Drop while paused with a full queue: shutdown drains everything.
    drop(service);
    for t in tickets {
        assert!(t.wait().expect("drained on shutdown").converged());
    }
    let counters = ring.counters();
    assert_eq!(counters[Counter::JobsAdmitted.index()], 8);
    assert_eq!(counters[Counter::JobsShed.index()], 0);
    assert_eq!(counters[Counter::JobsRejected.index()], 0);
    assert_eq!(ring.dropped(), 0, "no telemetry events may be dropped");
}
