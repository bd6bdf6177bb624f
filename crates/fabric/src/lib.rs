//! # acamar-fabric
//!
//! Behavioral FPGA fabric model for the Acamar (MICRO 2024) reproduction:
//! an Alveo U55C-class device specification, resource and area accounting,
//! cycle models for the SpMV engine and dense vector units, a DFX partial
//! reconfiguration controller, and a [`Kernels`](acamar_solvers::Kernels)
//! executor ([`FabricKernels`]) that runs the real solver numerics while
//! charging hardware costs.
//!
//! The paper evaluates "based on its Vitis HLS implementation on Xilinx
//! Alveo u55c … \[with\] a cycle-level simulator that takes the performance
//! numbers from the HLS co-simulation" (Section V-A); this crate *is* that
//! simulator layer, with unit costs as documented calibrated estimates
//! (see `cost`).
//!
//! ```
//! use acamar_fabric::{FabricSpec, StaticAccelerator};
//! use acamar_solvers::{ConvergenceCriteria, SolverKind};
//! use acamar_sparse::generate;
//!
//! // The paper's static baseline: fixed solver, fixed SpMV_URB.
//! let a = generate::poisson2d::<f32>(16, 16);
//! let baseline = StaticAccelerator::new(
//!     FabricSpec::alveo_u55c(), SolverKind::ConjugateGradient, 16);
//! let run = baseline.run(&a, &vec![1.0; 256], &ConvergenceCriteria::paper())?;
//! assert!(run.solve.converged());
//! // A 5-point stencil keeps at most 5 of 16 lanes busy:
//! assert!(run.stats.spmv.underutilization() > 0.6);
//! # Ok::<(), acamar_sparse::SparseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accelerator;
pub mod cost;
mod cycle_table;
mod kernels;
mod reconfig;
mod spec;
pub mod spmv;
pub mod trace;

pub use accelerator::{HwRun, StaticAccelerator};
pub use kernels::{CycleBreakdown, FabricKernels, FabricRunStats, ScheduleEntry, UnrollSchedule};
pub use reconfig::{ReconfigController, RegionKind};
pub use spec::{FabricSpec, ResourceVector};
pub use spmv::SpmvExecution;
pub use trace::{ExecutionTrace, TraceEvent};
