//! # acamar-service
//!
//! The long-running serving front-end over the batch engine: what turns
//! `Engine::solve_batch` (a blocking library call) into a service that
//! absorbs streaming traffic.
//!
//! Four mechanisms, layered:
//!
//! 1. **Bounded admission with backpressure** — every shard has a
//!    bounded queue; a submission that would overflow it is rejected at
//!    the door with a typed [`AdmissionError::QueueFull`] carrying a
//!    retry-after estimate derived from the shard's observed service
//!    rate, instead of queueing unboundedly or blocking the caller.
//! 2. **Priority + deadline scheduling** — three scheduling classes
//!    ([`Priority`]) with earliest-deadline-first order inside each, an
//!    anti-starvation bound that promotes any job that has waited too
//!    long ([`ServiceConfig::starvation_bound`]), and queue-side
//!    shedding of jobs whose deadline expired before a solver ever ran
//!    ([`ServiceError::Shed`]).
//! 3. **Fingerprint-affinity sharding** — `N` independent engine
//!    shards, each with its own plan cache and workspace pool; affinity
//!    routing ([`shard_for`]) maps each sparsity pattern to one shard as
//!    a *pure function of the fingerprint*, so every repeat of a
//!    structural class lands where its compiled SpMV plan is already
//!    warm. `tests/service_routing.rs` counts exactly this effect in
//!    plan-cache misses (one per pattern, at every shard count).
//!    Affinity picks a job's queue and engine, not its thread: a
//!    dispatcher whose own queue is empty takes the next job from a busy
//!    peer's queue and runs it on the peer's engine
//!    ([`Service::stolen`]), so skewed load does not idle a CPU and no
//!    plan is built twice. Idle dispatchers sleep until admission wakes
//!    them.
//! 4. **Supervision and failover** — every shard has a count-based
//!    health state machine ([`ShardHealth`]:
//!    `Healthy → Suspect → Broken → Probing → Healthy`) fed by dispatch
//!    outcomes; a dispatcher that panics recovers in place — it swaps in
//!    a fresh engine, requeues what was in flight and serves again, so
//!    the dispatchers are the service's only threads at rest; a `Broken` shard's
//!    breaker deterministically spills new traffic down the
//!    [`shard_ranking`] until a half-open probe heals it; and the three
//!    service-seam fault categories (dispatcher panic/stall, queue drop)
//!    are accounted in a [`ServiceLedger`] with the same
//!    `detected + recovered + exhausted == injected` invariant the
//!    engine's robustness report uses.
//!
//! Scheduling affects *when and where* a job runs, never *what it
//! computes*: results are bitwise-identical to a direct
//! `Engine::solve_batch` of the same jobs, which the admission test
//! suite asserts.
//!
//! Observability rides on `acamar-telemetry`: install a ring recorder
//! ([`Service::with_recorder`]) and the service emits admission /
//! rejection / shed / dispatch events plus the matching counters, all
//! scrapeable over HTTP ([`ScrapeServer`]: `/metrics`, `/trace`,
//! `/healthz`).

#![warn(missing_docs)]

mod config;
mod health;
mod http;
mod queue;
mod router;
mod service;

pub use acamar_sparse::DeterminismPolicy;
pub use config::{Priority, ServiceConfig, PROBE_AFTER, RETRY_AFTER_FLOOR};
pub use health::{ServiceLedger, ShardHealth};
pub use http::ScrapeServer;
pub use router::{shard_for, shard_ranking};
pub use service::{AdmissionError, RingBacked, Service, ServiceError, ServiceRequest, Ticket};
