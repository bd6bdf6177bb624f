//! Row chunking.
//!
//! Acamar processes coefficient matrices in `4096 x 4096` chunks (paper
//! Section V-B/V-C): the SpMV engine streams the matrix one row-chunk at a
//! time, and the Row Length Trace / sampling-rate machinery operates within
//! each chunk (`acamar_core`'s fine-grained planner slices the rows itself;
//! this module names the paper's chunk size).

/// The paper's fixed problem-chunk dimension.
pub const PAPER_CHUNK_ROWS: usize = 4096;
