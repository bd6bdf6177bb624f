//! # acamar-sparse
//!
//! Sparse-matrix substrate for the Acamar (MICRO 2024) reproduction:
//! storage formats, Matrix Market I/O, structural analysis, and the
//! synthetic matrix generators that stand in for the paper's SuiteSparse
//! datasets.
//!
//! ## Quick tour
//!
//! ```
//! use acamar_sparse::{analysis, generate, CsrMatrix, RowNnzStats};
//!
//! // A 2D Poisson operator — the canonical PDE discretization (paper §II-A).
//! let a: CsrMatrix<f64> = generate::poisson2d(16, 16);
//!
//! // The structural checks Acamar's Matrix Structure unit performs (§IV-B).
//! let report = analysis::analyze(&a);
//! assert!(report.symmetric);
//! assert!(report.weakly_diagonally_dominant);
//!
//! // The NNZ/row distribution that drives SpMV resource utilization (§III-B).
//! let stats = RowNnzStats::of(&a);
//! assert_eq!(stats.max, 5);
//! ```
//!
//! ## Modules
//!
//! * [`CsrMatrix`], [`CscMatrix`], [`CooMatrix`], [`DenseMatrix`] — storage
//!   formats with validated constructors and conversions.
//! * [`analysis`] — diagonal dominance, symmetry (paper-faithful CSR↔CSC
//!   comparison), Gershgorin definiteness, spectral estimates.
//! * [`generate`] — deterministic matrix generators per structural class.
//! * [`io`] — Matrix Market reader/writer.
//! * [`stats`] — NNZ/row statistics and per-set averages (paper Eq. 7–9).
//! * [`chunk`] — 4096-row chunking (paper §V-B).
//! * [`compiled`] — format-specialized SpMV execution plans compiled from
//!   the MSID unroll schedule (paper Fig. 3 / Eq. 5, host twin).
//! * [`simd`] — portable fixed-lane accumulators and the
//!   [`DeterminismPolicy`] two-tier numeric contract (DESIGN §4).
//! * [`sptrsv`] — sparse triangular solve plans and their level schedules
//!   for incomplete-factorization preconditioners (DESIGN §7).
//! * [`Ic0Schedule`] — the pattern half of IC(0): the factors' patterns
//!   and the elimination schedule, built once and replayed per matrix.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod chunk;
pub mod compiled;
mod coo;
mod csc;
mod csr;
mod dense;
mod ell;
mod error;
mod fingerprint;
pub mod generate;
mod ic0;
pub mod io;
pub mod ops;
pub mod permute;
pub mod rng;
mod scalar;
pub mod simd;
pub mod sptrsv;
pub mod stats;

pub use analysis::{Definiteness, StructureReport};
pub use compiled::{Band, BandHint, BandKind, CompiledSpmv};
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::{CsrMatrix, CsrPattern, JacobiSplit, RowIter};
pub use dense::DenseMatrix;
pub use ell::EllMatrix;
pub use error::{IoError, SparseError};
pub use ic0::{Ic0Refusal, Ic0Schedule};
pub use scalar::Scalar;
pub use simd::DeterminismPolicy;
pub use sptrsv::{CompiledSptrsv, LevelOrdered, Triangle};
pub use stats::RowNnzStats;
