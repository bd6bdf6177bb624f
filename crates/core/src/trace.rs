//! Row Length Trace unit and its tBuffer (paper Section IV-B, Eq. 7–9).
//!
//! The trace unit reads the CSR offsets, averages NNZ/row over each of
//! `SamplingRate` contiguous row sets, and stores the per-set optimal
//! unroll factors in the tBuffer consumed by the MSID chain.

use acamar_sparse::{stats, CsrMatrix, Scalar};
use std::ops::Range;

/// The per-set trace of optimal unroll factors.
#[derive(Debug, Clone, PartialEq)]
pub struct TBuffer {
    sets: Vec<Range<usize>>,
    unrolls: Vec<usize>,
}

impl TBuffer {
    /// Number of sets (at most the sampling rate).
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// `true` if the trace is empty (empty matrix).
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// All row ranges.
    pub fn sets(&self) -> &[Range<usize>] {
        &self.sets
    }

    /// Optimal unroll factor per set (`round(avg)`, at least 1).
    pub fn unrolls(&self) -> &[usize] {
        &self.unrolls
    }

    /// Replaces the unroll factors (used by the MSID chain).
    ///
    /// # Panics
    ///
    /// Panics if the length differs or any factor is zero.
    pub fn set_unrolls(&mut self, unrolls: Vec<usize>) {
        assert_eq!(unrolls.len(), self.sets.len(), "length mismatch");
        assert!(unrolls.iter().all(|&u| u > 0), "zero unroll factor");
        self.unrolls = unrolls;
    }

    /// Number of unroll-factor changes while walking the sets in order
    /// (the per-pass reconfiguration count of the Dynamic SpMV Kernel).
    pub fn reconfigurations_per_pass(&self) -> usize {
        self.unrolls.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

/// The Row Length Trace unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowLengthTrace {
    /// Number of sets to sample (paper's `SamplingRate`).
    pub sampling_rate: usize,
    /// Clamp applied to per-set unroll factors.
    pub max_unroll: usize,
}

impl RowLengthTrace {
    /// Creates a trace unit.
    ///
    /// # Panics
    ///
    /// Panics if `max_unroll == 0`.
    pub fn new(sampling_rate: usize, max_unroll: usize) -> Self {
        assert!(max_unroll > 0, "max_unroll must be positive");
        RowLengthTrace {
            sampling_rate,
            max_unroll,
        }
    }

    /// Traces `a`, producing the tBuffer (paper Eq. 7–9: set size is
    /// `ceil(rows / SamplingRate)`, the optimal unroll factor of a set is
    /// the average NNZ/row, rounded and clamped to `[1, max_unroll]`).
    pub fn trace<T: Scalar>(&self, a: &CsrMatrix<T>) -> TBuffer {
        let rate = self.sampling_rate.max(1);
        let avg = stats::per_set_average_nnz(a, rate);
        let nrows = a.nrows();
        let set_size = if nrows == 0 { 0 } else { nrows.div_ceil(rate) };
        let mut sets = Vec::with_capacity(avg.len());
        let mut start = 0usize;
        while start < nrows {
            let end = (start + set_size).min(nrows);
            sets.push(start..end);
            start = end;
        }
        debug_assert_eq!(sets.len(), avg.len());
        let unrolls = avg
            .iter()
            .map(|&m| (m.round() as usize).clamp(1, self.max_unroll))
            .collect();
        TBuffer { sets, unrolls }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_sparse::CooMatrix;

    fn matrix_with_counts(counts: &[usize]) -> CsrMatrix<f64> {
        let n = counts.len();
        let m = counts.iter().copied().max().unwrap_or(1).max(1);
        let mut coo = CooMatrix::new(n, m);
        for (i, &c) in counts.iter().enumerate() {
            for j in 0..c {
                coo.push(i, j, 1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn trace_computes_per_set_unrolls() {
        let a = matrix_with_counts(&[2, 4, 6, 8]);
        let t = RowLengthTrace::new(2, 64).trace(&a);
        assert_eq!(t.len(), 2);
        assert_eq!(stats::per_set_average_nnz(&a, 2), vec![3.0, 7.0]);
        assert_eq!(t.unrolls(), &[3, 7]);
        assert_eq!(t.sets(), &[0..2, 2..4]);
        assert_eq!(t.reconfigurations_per_pass(), 1);
    }

    #[test]
    fn unrolls_are_clamped() {
        let a = matrix_with_counts(&[100, 100, 0, 0]);
        let t = RowLengthTrace::new(2, 16).trace(&a);
        assert_eq!(t.unrolls(), &[16, 1]); // clamped high and low
    }

    #[test]
    fn sampling_rate_above_rows_gives_per_row_sets() {
        let a = matrix_with_counts(&[1, 2, 3]);
        let t = RowLengthTrace::new(100, 64).trace(&a);
        assert_eq!(t.len(), 3);
        assert_eq!(t.unrolls(), &[1, 2, 3]);
    }

    #[test]
    fn set_unrolls_validates() {
        let a = matrix_with_counts(&[2, 2]);
        let mut t = RowLengthTrace::new(1, 8).trace(&a);
        t.set_unrolls(vec![5]);
        assert_eq!(t.unrolls(), &[5]);
        assert_eq!(t.reconfigurations_per_pass(), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_unrolls_rejects_wrong_length() {
        let a = matrix_with_counts(&[2, 2]);
        let mut t = RowLengthTrace::new(1, 8).trace(&a);
        t.set_unrolls(vec![5, 5]);
    }

    #[test]
    fn uniform_matrix_needs_no_reconfiguration() {
        let a = matrix_with_counts(&[4; 64]);
        let t = RowLengthTrace::new(8, 64).trace(&a);
        assert_eq!(t.reconfigurations_per_pass(), 0);
        assert!(t.unrolls().iter().all(|&u| u == 4));
    }
}
