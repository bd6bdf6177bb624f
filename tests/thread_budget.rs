//! Only threads that run solves exist: an engine starts none at rest, and
//! a service adds one dispatcher per shard and nothing else.
//!
//! Counts this process's threads in `/proc/self/task`, so it is Linux-only
//! and holds one test: another test running beside it would move the count.
#![cfg(target_os = "linux")]

use acamar::core::{Acamar, AcamarConfig};
use acamar::engine::Engine;
use acamar::fabric::FabricSpec;
use acamar::service::{Service, ServiceConfig, ServiceRequest};
use acamar::sparse::generate;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .count()
}

/// Waits for the thread count to reach `want`: a joined thread can stay
/// listed for a moment after its join returns.
fn settles_at(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = threads();
        if now == want || Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn engines_start_no_threads_and_services_start_one_dispatcher_per_shard() {
    let acamar = Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper());
    let a = Arc::new(generate::poisson2d::<f64>(8, 8));
    let baseline = threads();

    let engine = Engine::with_workers(acamar.clone(), 2);
    assert_eq!(threads(), baseline, "an engine at rest holds no thread");
    let batch = engine
        .solve_batch(&a, &[vec![1.0; 64], vec![2.0; 64]])
        .unwrap();
    assert!(batch.all_converged());
    assert_eq!(settles_at(baseline), baseline, "batch runners are joined");
    drop(engine);
    assert_eq!(threads(), baseline);

    let service = Service::<f64>::new(
        acamar,
        ServiceConfig::default()
            .with_shards(2)
            .with_workers_per_shard(1),
    );
    assert_eq!(threads(), baseline + 2, "one dispatcher per shard");
    for k in 0..4 {
        let t = service
            .submit(ServiceRequest::new(
                Arc::clone(&a),
                vec![1.0 + k as f64; 64],
            ))
            .expect("admits");
        assert!(t.wait().expect("solves").converged());
    }
    assert_eq!(threads(), baseline + 2, "solves add no thread");
    drop(service);
    assert_eq!(settles_at(baseline), baseline, "drop joins the dispatchers");
}
