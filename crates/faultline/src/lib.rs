//! # acamar-faultline
//!
//! Deterministic, seeded fault injection for the Acamar reproduction.
//!
//! Acamar's headline claim is *robust convergence* — the Solver Modifier
//! rescues diverging solves at runtime, and the Dynamic SpMV Kernel is
//! swapped through ICAP partial reconfiguration, a mechanism that can
//! fail mid-swap in real DFX deployments. This crate provides the
//! adversary that proves those claims: a [`FaultPlan`] describes *which*
//! faults fire (a pure function of `(seed, category, job, site)`, so
//! chaos runs replay identically regardless of thread scheduling), and a
//! shared [`FaultInjector`] rolls the plan at each seam while keeping a
//! ground-truth ledger the engine reconciles into its `RobustnessReport`.
//!
//! ## Seams
//!
//! | Category | Seam | Effect |
//! |---|---|---|
//! | [`FaultCategory::RhsPoison`] | engine job intake | NaN/Inf in the RHS |
//! | [`FaultCategory::SpmvBitFlip`] | fabric kernel executor | stuck exponent bit in SpMV output |
//! | [`FaultCategory::ReconfigAbort`] | fabric reconfig controller | ICAP swap aborts, old unroll stays |
//! | [`FaultCategory::CacheCorruption`] | engine plan cache | stored pattern metadata corrupted |
//! | [`FaultCategory::WorkerDisruption`] | engine solver attempt | batch runner panics or stalls mid-job |
//! | [`FaultCategory::DispatcherPanic`] | service dispatch loop | dispatcher thread panics holding a wave |
//! | [`FaultCategory::DispatcherStall`] | service dispatch loop | dispatcher wedges before dispatching |
//! | [`FaultCategory::QueueDrop`] | service admission queue | queued job vanishes between pop and dispatch |
//!
//! The hooks this crate feeds are always compiled into the downstream
//! crates and are inert unless an injector is installed, so a fault-free
//! run is byte-identical to a build without any harness at all.

#![warn(missing_docs)]

mod injector;
mod plan;

pub use injector::{
    silence_injected_panics, FaultContext, FaultEvent, FaultInjector, InjectedPanic,
    WorkerDisruption,
};
pub use plan::{FaultCategory, FaultPlan};
