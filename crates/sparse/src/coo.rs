//! Coordinate-format (COO) sparse matrix: the assembly format.
//!
//! COO is the natural format for incremental construction (finite-element /
//! finite-difference assembly, Matrix Market files). It is converted to
//! [`CsrMatrix`](crate::CsrMatrix) before any computation.

use crate::error::SparseError;
use crate::scalar::Scalar;

/// A sparse matrix in coordinate (triplet) format.
///
/// Duplicate entries are permitted and are *summed* on conversion to CSR,
/// matching the convention of assembly workflows and the Matrix Market
/// format.
///
/// # Examples
///
/// ```
/// use acamar_sparse::CooMatrix;
///
/// let mut coo = CooMatrix::<f64>::new(2, 2);
/// coo.push(0, 0, 1.0).unwrap();
/// coo.push(1, 1, 2.0).unwrap();
/// coo.push(1, 1, 0.5).unwrap(); // duplicate: summed in CSR
/// let csr = coo.to_csr();
/// assert_eq!(csr.get(1, 1), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<T> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> CooMatrix<T> {
    /// Creates an empty `nrows x ncols` COO matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty matrix with room for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Builds a COO matrix from parallel triplet slices.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if the slices disagree in
    /// length, or [`SparseError::IndexOutOfBounds`] if any index exceeds the
    /// matrix dimensions.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: &[usize],
        cols: &[usize],
        values: &[T],
    ) -> Result<Self, SparseError> {
        if rows.len() != cols.len() || rows.len() != values.len() {
            return Err(SparseError::DimensionMismatch {
                expected: rows.len(),
                found: cols.len().min(values.len()),
                what: "triplet slice length",
            });
        }
        let mut m = CooMatrix::with_capacity(nrows, ncols, rows.len());
        for ((&r, &c), &v) in rows.iter().zip(cols).zip(values) {
            m.push(r, c, v)?;
        }
        Ok(m)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries, *including* duplicates.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an entry.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if `row >= nrows` or
    /// `col >= ncols`.
    pub fn push(&mut self, row: usize, col: usize, value: T) -> Result<(), SparseError> {
        if row >= self.nrows {
            return Err(SparseError::IndexOutOfBounds {
                index: row,
                bound: self.nrows,
                axis: "row",
            });
        }
        if col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                index: col,
                bound: self.ncols,
                axis: "column",
            });
        }
        self.entries.push((row, col, value));
        Ok(())
    }

    /// Iterates over stored `(row, col, value)` triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        self.entries.iter().copied()
    }

    /// Converts to CSR, summing duplicate entries and dropping entries whose
    /// accumulated value is exactly zero is **not** done (explicit zeros are
    /// preserved, as in SuiteSparse practice).
    pub fn to_csr(&self) -> crate::CsrMatrix<T> {
        // Counting sort by row, then stable sort each row segment by column.
        let mut counts = vec![0usize; self.nrows + 1];
        for &(r, _, _) in &self.entries {
            counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let mut order: Vec<usize> = vec![0; self.entries.len()];
        let mut next = counts.clone();
        for (k, &(r, _, _)) in self.entries.iter().enumerate() {
            order[next[r]] = k;
            next[r] += 1;
        }

        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx: Vec<usize> = Vec::with_capacity(self.entries.len());
        let mut values: Vec<T> = Vec::with_capacity(self.entries.len());
        row_ptr.push(0);

        let mut scratch: Vec<(usize, T)> = Vec::new();
        for r in 0..self.nrows {
            scratch.clear();
            for &k in &order[counts[r]..counts[r + 1]] {
                let (_, c, v) = self.entries[k];
                scratch.push((c, v));
            }
            // Row-major assembly (most generators) gathers each row already
            // strictly ascending: nothing to sort, nothing to merge.
            if scratch.windows(2).all(|w| w[0].0 < w[1].0) {
                col_idx.extend(scratch.iter().map(|&(c, _)| c));
                values.extend(scratch.iter().map(|&(_, v)| v));
            } else {
                scratch.sort_by_key(|&(c, _)| c);
                // merge duplicates
                let mut i = 0;
                while i < scratch.len() {
                    let (c, mut v) = scratch[i];
                    let mut j = i + 1;
                    while j < scratch.len() && scratch[j].0 == c {
                        v += scratch[j].1;
                        j += 1;
                    }
                    col_idx.push(c);
                    values.push(v);
                    i = j;
                }
            }
            row_ptr.push(col_idx.len());
        }

        crate::CsrMatrix::from_raw_parts_unchecked(self.nrows, self.ncols, row_ptr, col_idx, values)
    }
}

impl<T: Scalar> Extend<(usize, usize, T)> for CooMatrix<T> {
    /// Extends with triplets, panicking on out-of-bounds indices.
    ///
    /// Use [`CooMatrix::push`] for fallible insertion.
    fn extend<I: IntoIterator<Item = (usize, usize, T)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v).expect("triplet index out of bounds");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates_bounds() {
        let mut m = CooMatrix::<f64>::new(2, 3);
        assert!(m.push(1, 2, 1.0).is_ok());
        assert!(matches!(
            m.push(2, 0, 1.0),
            Err(SparseError::IndexOutOfBounds { axis: "row", .. })
        ));
        assert!(matches!(
            m.push(0, 3, 1.0),
            Err(SparseError::IndexOutOfBounds { axis: "column", .. })
        ));
    }

    #[test]
    fn from_triplets_checks_lengths() {
        let err = CooMatrix::<f64>::from_triplets(2, 2, &[0, 1], &[0], &[1.0]);
        assert!(matches!(err, Err(SparseError::DimensionMismatch { .. })));
    }

    #[test]
    fn to_csr_sorts_and_sums_duplicates() {
        let mut m = CooMatrix::<f64>::new(3, 3);
        m.push(2, 1, 5.0).unwrap();
        m.push(0, 2, 1.0).unwrap();
        m.push(0, 0, 2.0).unwrap();
        m.push(0, 2, 3.0).unwrap(); // duplicate of (0,2)
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.get(0, 0), 2.0);
        assert_eq!(csr.get(0, 2), 4.0);
        assert_eq!(csr.get(2, 1), 5.0);
        assert_eq!(csr.get(1, 1), 0.0);
        // columns sorted within rows
        let (cols, _) = csr.row(0);
        assert_eq!(cols, &[0, 2]);
    }

    #[test]
    fn ascending_rows_skip_the_sort_and_convert_the_same() {
        // (0,1) twice in a row is not *strictly* ascending: it must still
        // reach the merge.
        let sorted = [
            (0, 0, 1.0),
            (0, 1, 2.0),
            (0, 1, 0.5),
            (2, 0, 3.0),
            (2, 2, 4.0),
        ];
        let mut a = CooMatrix::<f64>::new(3, 3);
        a.extend(sorted);
        let mut b = CooMatrix::<f64>::new(3, 3);
        b.extend(sorted.iter().rev().copied());
        let csr = a.to_csr();
        assert_eq!(csr, b.to_csr());
        assert_eq!(csr.row_ptr(), &[0, 2, 2, 4]);
        assert_eq!(csr.col_idx(), &[0, 1, 0, 2]);
        assert_eq!(csr.values(), &[1.0, 2.5, 3.0, 4.0]);
    }

    #[test]
    fn empty_matrix_converts() {
        let m = CooMatrix::<f32>::new(4, 4);
        assert!(m.is_empty());
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.nrows(), 4);
    }

    #[test]
    fn extend_collects_triplets() {
        let mut m = CooMatrix::<f64>::new(2, 2);
        m.extend(vec![(0, 0, 1.0), (1, 1, 2.0)]);
        assert_eq!(m.nnz(), 2);
        let got: Vec<_> = m.iter().collect();
        assert_eq!(got, vec![(0, 0, 1.0), (1, 1, 2.0)]);
    }
}
