//! # acamar-engine
//!
//! A concurrent batch-solve service over the [`Acamar`] accelerator.
//!
//! The accelerator's robustness comes from two host-side decision loops —
//! the Matrix Structure unit's solver pick and the Fine-Grained
//! Reconfiguration unit's per-row-set unroll plan (with its MSID
//! schedule). Batch workloads (time stepping, parameter sweeps, many
//! right-hand sides) re-run those loops on matrices whose sparsity
//! pattern they have already seen. This crate removes that redundancy:
//!
//! * [`PatternFingerprint`] keys a CSR pattern by `(nrows, ncols, nnz)`
//!   plus a 64-bit digest of `row_ptr`/`col_idx` (eight folded-multiply
//!   lanes over the words, read once at memory speed), which the
//!   [`CsrPattern`](acamar_sparse::CsrPattern) computes once and keeps;
//! * [`PlanCache`] maps fingerprints to per-pattern slots of shared
//!   [`AnalysisArtifacts`](acamar_core::AnalysisArtifacts) behind an
//!   `RwLock`, filling each slot exactly once, outside the lock, even under
//!   concurrent misses — one entry per pattern, which both determinism
//!   tiers share;
//! * [`Engine`] drains [`SolveJob`]s on the calling thread plus, for a
//!   batch, scoped runner threads that exist only while it runs, replays cached
//!   artifacts through
//!   [`Acamar::run_with_plan`](acamar_core::Acamar::run_with_plan), and
//!   aggregates a [`BatchReport`] (per-job results in submission order,
//!   merged fabric statistics, per-solver attempt histogram, cache
//!   hits/misses and analysis time, wall time).
//!
//! A time-stepping caller submits each step as its own request: steps
//! that keep the pattern are plan-cache hits.
//!
//! Determinism: job results are written back by submission slot and
//! `run_with_plan` is a pure function of `(matrix, rhs, artifacts)`, so
//! a batch's solution vectors are bitwise identical whatever the worker
//! count or scheduling.
//!
//! # Hardening and fault injection
//!
//! Every job runs panic-isolated; inputs are validated up front
//! ([`SolveError::Invalid`]); [`ResilienceConfig`] adds per-job
//! deadlines, iteration budgets, and the
//! [`RescuePolicy`](acamar_core::RescuePolicy) rescue ladder; and
//! [`Engine::with_fault_injection`] wires a deterministic
//! [`FaultInjector`](acamar_faultline::FaultInjector) through every seam
//! (RHS intake, plan cache, reconfiguration, SpMV datapath, the workers
//! themselves). Each batch reconciles the injector's ledger against job
//! outcomes into a [`RobustnessReport`], whose invariant
//! `detected + recovered + exhausted == injected` holds per category.
//!
//! ```
//! use acamar_core::{Acamar, AcamarConfig};
//! use acamar_engine::Engine;
//! use acamar_fabric::FabricSpec;
//! use acamar_sparse::generate;
//!
//! let engine = Engine::with_workers(
//!     Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper()),
//!     4,
//! );
//! let a = generate::poisson2d::<f64>(16, 16);
//! let rhss: Vec<Vec<f64>> = (0..8).map(|k| vec![k as f64 + 1.0; 256]).collect();
//! let batch = engine.solve_batch(&a, &rhss).unwrap();
//! assert!(batch.all_converged());
//! assert_eq!(batch.cache.misses, 1); // one analysis served all 8 solves
//! assert_eq!(batch.cache.hits, 7);
//! ```
//!
//! [`Acamar`]: acamar_core::Acamar

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod engine;
mod error;
mod fingerprint;
mod robustness;

pub use cache::{CacheStats, PlanCache};
pub use engine::{BatchReport, Engine, EngineCounters, ResilienceConfig, SolveJob};
pub use error::SolveError;
pub use fingerprint::PatternFingerprint;
pub use robustness::{FaultTally, JobDisposition, RobustnessReport, DEPTH_BUCKETS};
