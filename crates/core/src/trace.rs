//! Row Length Trace unit and its tBuffer (paper Section IV-B, Eq. 7–9).
//!
//! The trace unit reads the CSR offsets, averages NNZ/row over each of
//! `SamplingRate` contiguous row sets, and stores the per-set optimal
//! unroll factors in the tBuffer consumed by the MSID chain.

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

    /// Traces the rows whose CSR offsets are `row_ptr` (one more entry
    /// than rows; the first need not be zero, so a chunk of a larger
    /// matrix is traced in place), producing the tBuffer (paper Eq. 7–9:
    /// set size is `ceil(rows / SamplingRate)`, the optimal unroll factor
    /// of a set is the average NNZ/row, rounded and clamped to
    /// `[1, max_unroll]`).
    pub fn trace(&self, row_ptr: &[usize]) -> TBuffer {
        let (sets, unrolls) = set_averages(row_ptr, self.sampling_rate)
            .map(|(rows, m)| (rows, (m.round() as usize).clamp(1, self.max_unroll)))
            .unzip();
        TBuffer { sets, unrolls }
    }
}

/// Splits the rows whose CSR offsets are `row_ptr` into `sampling_rate`
/// contiguous sets and yields each set's rows (counted from the first)
/// with its average NNZ/row (paper Eq. 7–9). A set's NNZ is the
/// difference of its end offsets, so no row is visited.
///
/// `Set Size = ceil(rows / sampling_rate)`; the final set may be shorter.
/// A `sampling_rate` of zero is treated as one. Yields one entry per
/// *actual* set (at most `sampling_rate`).
fn set_averages(
    row_ptr: &[usize],
    sampling_rate: usize,
) -> impl Iterator<Item = (Range<usize>, f64)> + '_ {
    let nrows = row_ptr.len().saturating_sub(1);
    let set_size = nrows.div_ceil(sampling_rate.max(1)).max(1);
    (0..nrows).step_by(set_size).map(move |start| {
        let end = (start + set_size).min(nrows);
        let nnz = row_ptr[end] - row_ptr[start];
        (start..end, nnz as f64 / (end - start) as f64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_sparse::{CooMatrix, CsrMatrix};

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

    /// The per-set averages the trace reads off `a`'s offsets.
    fn per_set_averages(a: &CsrMatrix<f64>, sampling_rate: usize) -> Vec<f64> {
        set_averages(a.row_ptr(), sampling_rate)
            .map(|(_, m)| m)
            .collect()
    }

    #[test]
    fn trace_computes_per_set_unrolls() {
        let a = matrix_with_counts(&[2, 4, 6, 8]);
        let t = RowLengthTrace::new(2, 64).trace(a.row_ptr());
        assert_eq!(t.len(), 2);
        assert_eq!(per_set_averages(&a, 2), vec![3.0, 7.0]);
        assert_eq!(t.unrolls(), &[3, 7]);
        assert_eq!(t.sets(), &[0..2, 2..4]);
        assert_eq!(t.reconfigurations_per_pass(), 1);
    }

    #[test]
    fn unrolls_are_clamped() {
        let a = matrix_with_counts(&[100, 100, 0, 0]);
        let t = RowLengthTrace::new(2, 16).trace(a.row_ptr());
        assert_eq!(t.unrolls(), &[16, 1]); // clamped high and low
    }

    #[test]
    fn sampling_rate_above_rows_gives_per_row_sets() {
        let a = matrix_with_counts(&[1, 2, 3]);
        let t = RowLengthTrace::new(100, 64).trace(a.row_ptr());
        assert_eq!(t.len(), 3);
        assert_eq!(t.unrolls(), &[1, 2, 3]);
    }

    #[test]
    fn set_unrolls_validates() {
        let a = matrix_with_counts(&[2, 2]);
        let mut t = RowLengthTrace::new(1, 8).trace(a.row_ptr());
        t.set_unrolls(vec![5]);
        assert_eq!(t.unrolls(), &[5]);
        assert_eq!(t.reconfigurations_per_pass(), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_unrolls_rejects_wrong_length() {
        let a = matrix_with_counts(&[2, 2]);
        let mut t = RowLengthTrace::new(1, 8).trace(a.row_ptr());
        t.set_unrolls(vec![5, 5]);
    }

    #[test]
    fn uniform_matrix_needs_no_reconfiguration() {
        let a = matrix_with_counts(&[4; 64]);
        let t = RowLengthTrace::new(8, 64).trace(a.row_ptr());
        assert_eq!(t.reconfigurations_per_pass(), 0);
        assert!(t.unrolls().iter().all(|&u| u == 4));
    }

    #[test]
    fn per_set_averages_follow_eq7() {
        let a = matrix_with_counts(&[2, 4, 6, 8]);
        // sampling rate 2 -> set size 2 -> averages [3, 7]
        assert_eq!(per_set_averages(&a, 2), vec![3.0, 7.0]);
        // sampling rate 4 -> per-row
        assert_eq!(per_set_averages(&a, 4), vec![2.0, 4.0, 6.0, 8.0]);
        // sampling rate 1 -> whole matrix
        assert_eq!(per_set_averages(&a, 1), vec![5.0]);
    }

    #[test]
    fn per_set_handles_non_dividing_rates() {
        let a = matrix_with_counts(&[2, 4, 6, 8, 10]);
        // 5 rows, rate 2 -> set size 3 -> sets of 3 and 2 rows
        let sets = per_set_averages(&a, 2);
        assert_eq!(sets, vec![4.0, 9.0]);
        // rate larger than rows -> one set per row
        assert_eq!(per_set_averages(&a, 100).len(), 5);
        // rate zero treated as one
        assert_eq!(per_set_averages(&a, 0), vec![6.0]);
    }

    #[test]
    fn a_chunk_is_traced_from_its_offsets_in_place() {
        // Rows 2..6 of a larger matrix: offsets that do not start at zero
        // trace like the rebased copy of those rows.
        let a = matrix_with_counts(&[9, 1, 2, 4, 6, 8, 3]);
        let chunk = matrix_with_counts(&[2, 4, 6, 8]);
        let trace = RowLengthTrace::new(2, 64);
        assert_eq!(
            trace.trace(&a.row_ptr()[2..=6]),
            trace.trace(chunk.row_ptr())
        );
        assert_eq!(trace.trace(&a.row_ptr()[2..=6]).unrolls(), &[3, 7]);
        assert!(trace.trace(&a.row_ptr()[3..=3]).is_empty());
    }
}
