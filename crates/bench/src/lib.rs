//! # acamar-bench
//!
//! Experiment harnesses regenerating every table and figure of the Acamar
//! paper's evaluation (Tables I–II, Figures 1–2 and 5–13).
//!
//! Run everything with `cargo run --release -p acamar-bench --bin
//! experiments -- all` (or name experiments instead of `all`): each prints
//! the paper-style rows followed by `paper:` / `measured:` comparison
//! lines, and `golden/experiments.txt` holds what they print. Or invoke an
//! experiment directly:
//!
//! ```no_run
//! use acamar_bench::experiments;
//! use acamar_datasets::suite;
//!
//! let datasets = suite();
//! let runs = experiments::sweep(&datasets); // Acamar + URB sweep, reused
//! experiments::fig06(&runs);                // latency speedup
//! experiments::fig07(&runs);                // R.U. improvement
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod runner;
pub mod table;
