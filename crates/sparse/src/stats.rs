//! Row-population statistics.
//!
//! The paper's resource-underutilization analysis (Section III-B, Eq. 5)
//! is driven entirely by the distribution of non-zeros per row; this module
//! computes that distribution. (The Row Length Trace unit's per-set
//! averages, Eq. 7–8, are differences of CSR offsets and live with the
//! unit.)

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;

/// Summary statistics of the NNZ-per-row distribution of a sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RowNnzStats {
    /// Number of rows observed.
    pub rows: usize,
    /// Total stored entries.
    pub total_nnz: usize,
    /// Minimum NNZ over rows.
    pub min: usize,
    /// Maximum NNZ over rows.
    pub max: usize,
    /// Mean NNZ per row.
    pub mean: f64,
    /// Population standard deviation of NNZ per row.
    pub std_dev: f64,
    /// Coefficient of variation (`std_dev / mean`; 0 when `mean == 0`).
    pub cv: f64,
    /// Histogram over power-of-two buckets: `histogram[k]` counts rows with
    /// `2^k <= nnz < 2^(k+1)` (bucket 0 also counts empty rows).
    pub histogram: Vec<usize>,
}

impl RowNnzStats {
    /// Computes statistics for `a`.
    ///
    /// # Examples
    ///
    /// ```
    /// use acamar_sparse::{generate, RowNnzStats};
    ///
    /// let a = generate::poisson2d::<f64>(16, 16);
    /// let s = RowNnzStats::of(&a);
    /// assert_eq!(s.max, 5); // interior rows of the 5-point stencil
    /// assert!(s.mean > 3.0 && s.mean < 5.0);
    /// ```
    pub fn of<T: Scalar>(a: &CsrMatrix<T>) -> Self {
        let counts = a.row_nnz_counts();
        Self::of_counts(&counts)
    }

    /// Computes statistics from a raw NNZ-per-row count vector.
    fn of_counts(counts: &[usize]) -> Self {
        let rows = counts.len();
        if rows == 0 {
            return RowNnzStats {
                rows: 0,
                total_nnz: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                std_dev: 0.0,
                cv: 0.0,
                histogram: Vec::new(),
            };
        }
        let total: usize = counts.iter().sum();
        let min = *counts.iter().min().expect("nonempty");
        let max = *counts.iter().max().expect("nonempty");
        let mean = total as f64 / rows as f64;
        let var = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / rows as f64;
        let std_dev = var.sqrt();
        let cv = if mean > 0.0 { std_dev / mean } else { 0.0 };
        let buckets = if max == 0 {
            1
        } else {
            (usize::BITS - max.leading_zeros()) as usize
        };
        let mut histogram = vec![0usize; buckets.max(1)];
        for &c in counts {
            let b = if c <= 1 {
                0
            } else {
                (usize::BITS - 1 - c.leading_zeros()) as usize
            };
            let slot = b.min(histogram.len() - 1);
            histogram[slot] += 1;
        }
        RowNnzStats {
            rows,
            total_nnz: total,
            min,
            max,
            mean,
            std_dev,
            cv,
            histogram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn matrix_with_row_counts(counts: &[usize]) -> CsrMatrix<f64> {
        let n = counts.len();
        let ncols = counts.iter().copied().max().unwrap_or(0).max(1);
        let mut coo = CooMatrix::new(n, ncols);
        for (i, &c) in counts.iter().enumerate() {
            for j in 0..c {
                coo.push(i, j, 1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn stats_on_uniform_rows() {
        let a = matrix_with_row_counts(&[4, 4, 4, 4]);
        let s = RowNnzStats::of(&a);
        assert_eq!(s.min, 4);
        assert_eq!(s.max, 4);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.cv, 0.0);
        assert_eq!(s.total_nnz, 16);
    }

    #[test]
    fn stats_on_skewed_rows() {
        let a = matrix_with_row_counts(&[1, 1, 1, 9]);
        let s = RowNnzStats::of(&a);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 9);
        assert_eq!(s.mean, 3.0);
        assert!(s.std_dev > 3.0);
        assert!(s.cv > 1.0);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let a = matrix_with_row_counts(&[0, 1, 2, 3, 4, 8]);
        let s = RowNnzStats::of(&a);
        // bucket 0: nnz in {0, 1} -> 2 rows; bucket 1: {2, 3} -> 2 rows;
        // bucket 2: {4..7} -> 1 row; bucket 3: {8..15} -> 1 row.
        assert_eq!(s.histogram, vec![2, 2, 1, 1]);
    }

    #[test]
    fn empty_matrix_stats() {
        let s = RowNnzStats::of_counts(&[]);
        assert_eq!(s.rows, 0);
        assert_eq!(s.mean, 0.0);
    }
}
