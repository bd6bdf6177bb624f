//! Routing property suite for the serving layer.
//!
//! Two claims, both deterministic:
//!
//! 1. **Affinity routing is a pure function of the fingerprint** — the
//!    same sparsity pattern maps to the same shard on every call, in
//!    every service instance ("across restarts": `shard_for` keeps no
//!    process state), at every shard count.
//! 2. **Affinity beats round-robin on cache hits** — on a seeded
//!    256-job mixed-pattern stream, affinity routing analyzes each
//!    pattern on exactly one shard (total misses = distinct patterns),
//!    while round-robin dispatch smears each pattern across shards (one
//!    miss per `(pattern, shard)` pair it touches), so affinity's total
//!    per-shard hit count is strictly higher. The service routes by
//!    affinity alone, so the round-robin baseline is built here: one
//!    one-shard service per shard, request `i` going to service
//!    `i % shards`. Both counts are timing-independent: the plan cache
//!    guarantees `misses == distinct patterns seen` per shard even under
//!    contention.
//!
//! The stream's patterns are chosen by a seeded [`DetRng`], *not* by
//! cycling — a cycled stream whose period divides the shard count would
//! degenerate round-robin into accidental affinity.

use acamar::core::{Acamar, AcamarConfig};
use acamar::engine::PatternFingerprint;
use acamar::fabric::FabricSpec;
use acamar::service::{shard_for, Service, ServiceConfig, ServiceRequest};
use acamar::sparse::rng::DetRng;
use acamar::sparse::{generate, CsrMatrix};
use std::sync::Arc;

fn acamar() -> Acamar {
    Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper())
}

/// Twelve structurally distinct small systems (every one solves fast;
/// what matters here is that their fingerprints differ).
fn patterns() -> Vec<Arc<CsrMatrix<f64>>> {
    let mut out: Vec<Arc<CsrMatrix<f64>>> = Vec::new();
    for k in 0..6 {
        out.push(Arc::new(generate::poisson2d::<f64>(6 + k, 6)));
    }
    for k in 0..3 {
        out.push(Arc::new(generate::poisson1d::<f64>(40 + 7 * k)));
    }
    for k in 0..3u64 {
        out.push(Arc::new(generate::diagonally_dominant::<f64>(
            48 + 4 * k as usize,
            generate::RowDistribution::Constant(4),
            4.0,
            900 + k,
        )));
    }
    let fps: std::collections::HashSet<PatternFingerprint> =
        out.iter().map(|a| PatternFingerprint::of(a)).collect();
    assert_eq!(
        fps.len(),
        out.len(),
        "patterns must be structurally distinct"
    );
    out
}

/// The seeded 256-request stream: `(pattern index, rhs scale)` pairs.
fn stream(n_patterns: usize) -> Vec<(usize, f64)> {
    let mut rng = DetRng::seed_from_u64(0x5eed_5e88);
    (0..256)
        .map(|_| {
            (
                (rng.next_u64() % n_patterns as u64) as usize,
                1.0 + rng.gen_f64(),
            )
        })
        .collect()
}

#[test]
fn affinity_is_a_pure_function_of_the_fingerprint() {
    let pats = patterns();
    for shards in [1usize, 2, 4] {
        let routes: Vec<usize> = pats
            .iter()
            .map(|a| shard_for(&PatternFingerprint::of(a), shards))
            .collect();
        for (a, &r) in pats.iter().zip(&routes) {
            assert!(r < shards);
            // Pure in the fingerprint: recomputing never disagrees.
            for _ in 0..3 {
                assert_eq!(shard_for(&PatternFingerprint::of(a), shards), r);
            }
        }
        // "Across restarts": a fresh service instance (fresh caches,
        // fresh threads) routes every pattern identically.
        let cfg = ServiceConfig::default().with_shards(shards);
        let s1 = Service::<f64>::new(acamar(), cfg.clone());
        let s2 = Service::<f64>::new(acamar(), cfg);
        for (a, &r) in pats.iter().zip(&routes) {
            assert_eq!(s1.route(a), r, "service 1 disagrees with shard_for");
            assert_eq!(s2.route(a), r, "restarted service disagrees");
        }
    }
}

#[test]
fn one_shard_routes_everything_to_shard_zero() {
    for a in patterns() {
        assert_eq!(shard_for(&PatternFingerprint::of(&a), 1), 0);
    }
}

fn one_shard_service() -> Service<f64> {
    Service::<f64>::new(
        acamar(),
        ServiceConfig::default()
            .with_shards(1)
            .with_queue_capacity(512),
    )
}

/// Runs the seeded stream, request `i` going to `services[i % len]`, and
/// returns `(total hits, total misses, per-shard job counts)` over every
/// shard of every service. One multi-shard service routes by affinity;
/// several one-shard services make a round-robin dispatcher.
fn run_stream(services: &[Service<f64>], pats: &[Arc<CsrMatrix<f64>>]) -> (u64, u64, Vec<u64>) {
    let tickets: Vec<_> = stream(pats.len())
        .into_iter()
        .enumerate()
        .map(|(i, (p, scale))| {
            let a = Arc::clone(&pats[p]);
            let rhs = vec![scale; a.nrows()];
            services[i % services.len()]
                .submit(ServiceRequest::new(a, rhs))
                .expect("stream fits the queue bound")
        })
        .collect();
    for t in tickets {
        t.wait().expect("healthy systems solve");
    }
    let mut hits = 0;
    let mut misses = 0;
    let mut jobs = Vec::new();
    for service in services {
        for s in 0..service.shards() {
            let c = service.engine(s).counters();
            hits += c.cache.hits;
            misses += c.cache.misses;
            jobs.push(c.jobs_completed);
        }
    }
    (hits, misses, jobs)
}

#[test]
fn affinity_yields_strictly_more_cache_hits_than_round_robin() {
    let pats = patterns();
    let k = pats.len() as u64;
    for shards in [2usize, 4] {
        let affinity = [Service::<f64>::new(
            acamar(),
            ServiceConfig::default()
                .with_shards(shards)
                .with_queue_capacity(512),
        )];
        let (hits_aff, misses_aff, jobs_aff) = run_stream(&affinity, &pats);
        // Affinity analyzes each pattern on exactly one shard.
        assert_eq!(misses_aff, k, "{shards} shards: one miss per pattern");
        assert_eq!(hits_aff, 256 - k);
        assert_eq!(jobs_aff.iter().sum::<u64>(), 256);
        // Each pattern is warm on exactly one shard.
        for a in &pats {
            let warm = (0..shards).filter(|&s| affinity[0].is_warm(s, a)).count();
            assert_eq!(warm, 1, "{shards} shards: pattern warm on {warm} shards");
        }

        let rr: Vec<Service<f64>> = (0..shards).map(|_| one_shard_service()).collect();
        let (hits_rr, misses_rr, jobs_rr) = run_stream(&rr, &pats);
        assert_eq!(hits_rr + misses_rr, 256);
        assert_eq!(jobs_rr.iter().sum::<u64>(), 256);
        assert!(
            misses_rr > k,
            "{shards} shards: round-robin should smear at least one pattern \
             across shards (misses {misses_rr} vs {k} patterns)"
        );
        assert!(
            hits_aff > hits_rr,
            "{shards} shards: affinity hits {hits_aff} must strictly beat \
             round-robin hits {hits_rr}"
        );
    }
}

#[test]
fn at_one_shard_routing_policy_is_irrelevant_to_hits() {
    let pats = patterns();
    let k = pats.len() as u64;
    // At one shard, affinity routing and round-robin dispatch both send
    // every request to the same engine.
    let affinity = [one_shard_service()];
    let round_robin = [one_shard_service()];
    assert_eq!(affinity[0].shards(), 1);
    for services in [&affinity, &round_robin] {
        let (hits, misses, jobs) = run_stream(services, &pats);
        assert_eq!(misses, k);
        assert_eq!(hits, 256 - k);
        assert_eq!(jobs, vec![256]);
        for a in &pats {
            assert!(services[0].is_warm(0, a));
        }
    }
}
