//! The serving front-end, end to end: admission → shards → scrape.
//!
//! Drives `acamar-service` the way a deployment would: a stream of
//! requests with mixed priorities and deadlines is *submitted* (not
//! batch-called) into a 2-shard service with fingerprint-affinity
//! routing, backpressure is demonstrated against a deliberately tiny
//! queue, and the Prometheus snapshot + ring trace are scraped over the
//! HTTP endpoint. Doubles as the CI `service-smoke` job: it asserts
//! every ticket resolves, zero telemetry events are dropped, and
//! shutdown is clean (drop drains the queues and joins every thread).
//!
//! Run with `cargo run --release --example batch_service`.

use acamar::core::{Acamar, AcamarConfig};
use acamar::fabric::FabricSpec;
use acamar::service::{
    AdmissionError, Priority, ScrapeServer, Service, ServiceConfig, ServiceRequest,
};
use acamar::solvers::ConvergenceCriteria;
use acamar::sparse::generate;
use acamar::telemetry::RingRecorder;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("scrape endpoint up");
    write!(s, "GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n").expect("request");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("response");
    out
}

fn main() {
    let cfg =
        AcamarConfig::paper().with_criteria(ConvergenceCriteria::paper().with_max_iterations(2500));
    let acamar = Acamar::new(FabricSpec::alveo_u55c(), cfg);
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let service = Arc::new(Service::<f64>::with_recorder(
        acamar,
        ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(128),
        Arc::clone(&ring),
    ));
    println!(
        "service: {} shards × {} worker(s), affinity routing, queue bound {}\n",
        service.shards(),
        service.config().workers_per_shard,
        service.config().queue_capacity
    );

    // --- Phase 1: a mixed-priority streaming workload ----------------
    // Three recurring structural families (time steps of the same PDEs);
    // affinity routing pins each family to one shard, so only the first
    // request per family pays the analysis.
    let families = [
        (
            "poisson 24x24",
            Arc::new(generate::poisson2d::<f64>(24, 24)),
        ),
        (
            "poisson 28x14",
            Arc::new(generate::poisson2d::<f64>(28, 14)),
        ),
        (
            "convection-diffusion 20x20",
            Arc::new(generate::convection_diffusion_2d::<f64>(20, 20, 2.0)),
        ),
    ];
    let tickets: Vec<_> = (0..48)
        .map(|k| {
            let (_, a) = &families[k % families.len()];
            let b: Vec<f64> = (0..a.nrows())
                .map(|i| 1.0 + ((i + 7 * k) % 13) as f64 * 0.05)
                .collect();
            let priority = match k % 3 {
                0 => Priority::High,
                1 => Priority::Normal,
                _ => Priority::Low,
            };
            service
                .submit(
                    ServiceRequest::new(Arc::clone(a), b)
                        .with_tenant((k % 4) as u32)
                        .with_priority(priority)
                        .with_deadline(Duration::from_secs(30)),
                )
                .expect("stream fits the queue bound")
        })
        .collect();

    let mut converged = 0;
    for t in tickets {
        let report = t.wait().expect("healthy systems solve");
        assert!(report.converged());
        converged += 1;
    }
    println!("phase 1 — 48 mixed-priority requests");
    println!(
        "  converged: {converged}/48, completions: {}",
        service.completions()
    );
    for s in 0..service.shards() {
        let c = service.engine(s).counters();
        println!(
            "  shard {s}: {} jobs, cache {} hits / {} misses",
            c.jobs_completed, c.cache.hits, c.cache.misses
        );
    }
    // Affinity picks each job's queue and engine, so the lines above are
    // deterministic. Which thread ran a job is not: an idle dispatcher
    // runs a busy peer's queued jobs on that peer's engine.
    for s in 0..service.shards() {
        println!(
            "  shard {s}: {} of its jobs stolen by a peer's idle dispatcher",
            service.stolen(s)
        );
    }
    let total_misses: u64 = (0..service.shards())
        .map(|s| service.engine(s).counters().cache.misses)
        .sum();
    assert_eq!(
        total_misses,
        families.len() as u64,
        "affinity: exactly one analysis per structural family"
    );
    for (name, a) in &families {
        let warm: Vec<usize> = (0..service.shards())
            .filter(|&s| service.is_warm(s, a))
            .collect();
        println!("  {name}: warm on shard(s) {warm:?}");
        assert_eq!(warm.len(), 1, "each family warms exactly one shard");
    }
    println!();

    // --- Phase 2: backpressure against a tiny queue ------------------
    let small = Service::<f64>::new(
        Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper()),
        ServiceConfig::default()
            .with_shards(1)
            .with_queue_capacity(2),
    );
    small.pause();
    let (_, a) = &families[0];
    let held: Vec<_> = (0..2)
        .map(|k| {
            small
                .submit(ServiceRequest::new(
                    Arc::clone(a),
                    vec![1.0 + k as f64; a.nrows()],
                ))
                .expect("under the bound")
        })
        .collect();
    let rejected = small
        .submit(ServiceRequest::new(Arc::clone(a), vec![9.0; a.nrows()]))
        .expect_err("third submission overflows capacity 2");
    let AdmissionError::QueueFull {
        depth, retry_after, ..
    } = rejected;
    println!("phase 2 — backpressure");
    println!("  queue full at depth {depth}; typed rejection says retry after {retry_after:?}");
    small.resume();
    for t in held {
        assert!(t.wait().expect("held jobs drain after resume").converged());
    }
    drop(small);
    println!("  held jobs drained after resume; small service shut down clean\n");

    // --- Phase 3: the scrape endpoint --------------------------------
    let server = ScrapeServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    println!("phase 3 — scrape endpoint at http://{}", server.addr());
    let health = scrape(server.addr(), "/healthz");
    assert!(health.ends_with("ok\n"), "healthz: {health}");
    let metrics = scrape(server.addr(), "/metrics");
    assert!(metrics.contains("acamar_service_jobs_admitted_total 48"));
    assert!(metrics.contains("acamar_service_shard_jobs_total"));
    assert!(metrics.contains("acamar_service_shard_stolen_total"));
    for line in metrics
        .lines()
        .filter(|l| l.contains("acamar_service") && !l.starts_with('#'))
        .take(10)
    {
        println!("  {line}");
    }
    let trace = scrape(server.addr(), "/trace");
    let body = trace.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    println!("  /trace drained {} event lines", body.lines().count());
    drop(server);
    println!();

    // --- Clean shutdown ----------------------------------------------
    assert_eq!(service.dropped_events(), 0, "no telemetry events dropped");
    assert_eq!(service.total_queue_depth(), 0);
    let service = Arc::try_unwrap(service).expect("scrape server released its handle");
    drop(service); // joins every dispatcher; queues are already empty
    println!("clean shutdown: 0 dropped events, queues drained, threads joined");
}
