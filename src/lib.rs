//! # acamar
//!
//! A behavioral, end-to-end reproduction of **Acamar** (MICRO 2024): a
//! dynamically reconfigurable scientific-computing accelerator for robust
//! convergence and minimal resource underutilization.
//!
//! Acamar solves sparse linear systems `A x = b` on an FPGA and, unlike
//! static accelerators, *reconfigures itself at runtime* on two levels:
//!
//! 1. **Solver level** — a Matrix Structure unit inspects the coefficient
//!    matrix (diagonal dominance, symmetry) to pick among Jacobi, CG, and
//!    BiCG-STAB; a Solver Modifier swaps solvers when divergence is
//!    detected, so *some* solver always converges (paper Table II).
//! 2. **SpMV level** — a Fine-Grained Reconfiguration unit adapts the
//!    SpMV engine's unroll factor to the NNZ/row of each set of rows,
//!    minimizing wasted MAC slots (paper Eq. 5), with a Multi-Stage
//!    Iterative Decision chain (Algorithm 4) keeping the partial-
//!    reconfiguration rate low.
//!
//! This crate is a facade over the workspace:
//!
//! * [`sparse`] — CSR/CSC/COO matrices, Matrix Market I/O, structural
//!   analysis, synthetic dataset generators;
//! * [`solvers`] — Jacobi, CG, BiCG-STAB (+ Gauss-Seidel, SOR, GMRES)
//!   with the paper's convergence policy;
//! * [`fabric`] — the Alveo U55C-class behavioral fabric model (cycles,
//!   resources, area, DFX reconfiguration) and the static baseline;
//! * [`gpu`] — the GTX 1650 Super-class cuSPARSE SpMV baseline model;
//! * [`datasets`] — synthetic analogs of the paper's 25 SuiteSparse
//!   datasets (Table II);
//! * [`core`] — the Acamar accelerator itself;
//! * [`engine`] — a concurrent batch-solve service that fingerprints
//!   sparsity patterns and caches structure/plan decisions across jobs,
//!   with panic isolation, per-job deadlines, and a rescue ladder;
//! * [`service`] — the long-running serving front-end over the engine:
//!   bounded admission with typed backpressure, per-tenant priority +
//!   deadline scheduling, fingerprint-affinity engine shards, and an
//!   HTTP scrape endpoint for the Prometheus snapshot and ring trace;
//! * [`faultline`] — a seeded deterministic fault-injection harness for
//!   exercising every recovery path (see the fault-model section of
//!   DESIGN.md);
//! * [`telemetry`] — zero-overhead-when-disabled structured observability:
//!   per-job spans, monotonic counters, a lock-free event ring, JSON-lines
//!   and Prometheus exporters, and the Fig. 13-style reconfiguration
//!   timeline renderer.
//!
//! ## Quickstart
//!
//! ```
//! use acamar::core::{Acamar, AcamarConfig};
//! use acamar::fabric::FabricSpec;
//! use acamar::sparse::generate;
//!
//! // Discretize a PDE (2D Poisson) and solve it on the accelerator model.
//! let a = generate::poisson2d::<f32>(32, 32);
//! let b = vec![1.0; a.nrows()];
//!
//! let acamar = Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper());
//! let report = acamar.run(&a, &b)?;
//!
//! assert!(report.converged());
//! println!(
//!     "{} iterations of {}, SpMV underutilization {:.1}%",
//!     report.solve.iterations,
//!     report.final_solver(),
//!     100.0 * report.stats.spmv.underutilization(),
//! );
//! # Ok::<(), acamar::sparse::SparseError>(())
//! ```
//!
//! The experiment harnesses that regenerate every table and figure of the
//! paper live in the `acamar-bench` crate (`cargo run --release -p
//! acamar-bench --bin experiments -- all`). See DESIGN.md
//! for the system inventory and EXPERIMENTS.md for paper-vs-measured
//! results.

#![warn(missing_docs)]

pub use acamar_core as core;
pub use acamar_datasets as datasets;
pub use acamar_engine as engine;
pub use acamar_fabric as fabric;
pub use acamar_faultline as faultline;
pub use acamar_gpu as gpu;
pub use acamar_service as service;
pub use acamar_solvers as solvers;
pub use acamar_sparse as sparse;
pub use acamar_telemetry as telemetry;

/// Convenience prelude importing the most common types.
///
/// ```
/// use acamar::prelude::*;
///
/// let a = generate::poisson1d::<f32>(64);
/// let report = Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper())
///     .run(&a, &vec![1.0; 64])
///     .unwrap();
/// assert!(report.converged());
/// ```
pub mod prelude {
    pub use acamar_core::{
        Acamar, AcamarConfig, AcamarRunReport, AnalysisArtifacts, RescuePolicy, RunOptions,
    };
    pub use acamar_engine::{
        BatchReport, Engine, ResilienceConfig, RobustnessReport, SolveError, SolveJob,
    };
    pub use acamar_fabric::{FabricSpec, StaticAccelerator, UnrollSchedule};
    pub use acamar_faultline::{FaultCategory, FaultInjector, FaultPlan};
    pub use acamar_gpu::{model_csr_spmv, GpuSpec};
    pub use acamar_service::{
        AdmissionError, Priority, ScrapeServer, Service, ServiceConfig, ServiceError,
        ServiceRequest, Ticket,
    };
    pub use acamar_solvers::{
        ConvergenceCriteria, Outcome, SoftwareKernels, SolveReport, SolverKind,
    };
    pub use acamar_sparse::{generate, CooMatrix, CsrMatrix, Scalar, SparseError};
    pub use acamar_telemetry::{NullRecorder, Recorder, RingRecorder, TelemetrySink};
}
