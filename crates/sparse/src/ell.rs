//! ELLPACK (ELL) sparse format.
//!
//! ELL pads every row to a fixed `width` — the storage-format twin of a
//! fixed-unroll SpMV engine: the padding fraction of an ELL matrix is
//! *exactly* the resource underutilization of the paper's Eq. 5 at an
//! unroll factor equal to the width. Provided both as a general library
//! format and to make that correspondence testable.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;

/// Sentinel column index marking a padding slot.
const PAD: usize = usize::MAX;

/// A sparse matrix in ELLPACK format (row-major slots, `width` per row).
///
/// # Examples
///
/// ```
/// use acamar_sparse::{generate, EllMatrix};
///
/// let a = generate::poisson1d::<f64>(8);
/// let e = EllMatrix::from_csr(&a);
/// assert_eq!(e.width(), 3);
/// assert_eq!(e.mul_vec(&vec![1.0; 8])?, a.mul_vec(&vec![1.0; 8])?);
/// # Ok::<(), acamar_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix<T> {
    nrows: usize,
    ncols: usize,
    width: usize,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> EllMatrix<T> {
    /// Converts from CSR with `width = max NNZ/row`.
    pub fn from_csr(a: &CsrMatrix<T>) -> Self {
        let width = (0..a.nrows()).map(|i| a.row_nnz(i)).max().unwrap_or(0);
        Self::from_csr_with_width(a, width).expect("max width always fits")
    }

    /// Converts from CSR with an explicit slot `width`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if any row holds more
    /// than `width` entries.
    fn from_csr_with_width(a: &CsrMatrix<T>, width: usize) -> Result<Self, SparseError> {
        let mut col_idx = vec![PAD; a.nrows() * width];
        let mut values = vec![T::ZERO; a.nrows() * width];
        for (i, cols, vals) in a.iter_rows() {
            if cols.len() > width {
                return Err(SparseError::InvalidStructure(format!(
                    "row {i} has {} entries, exceeds ELL width {width}",
                    cols.len()
                )));
            }
            for (k, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                col_idx[i * width + k] = c;
                values[i * width + k] = v;
            }
        }
        Ok(EllMatrix {
            nrows: a.nrows(),
            ncols: a.ncols(),
            width,
            col_idx,
            values,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Slots per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Stored (non-padding) entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.iter().filter(|&&c| c != PAD).count()
    }

    /// Fraction of slots that are padding — the storage analog of the
    /// paper's Eq. 5 underutilization at `unroll = width`.
    pub fn padding_fraction(&self) -> f64 {
        let total = self.nrows * self.width;
        if total == 0 {
            0.0
        } else {
            (total - self.nnz()) as f64 / total as f64
        }
    }

    /// `y = A x`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on a wrong-length `x`.
    pub fn mul_vec(&self, x: &[T]) -> Result<Vec<T>, SparseError> {
        if x.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                expected: self.ncols,
                found: x.len(),
                what: "input vector length",
            });
        }
        let mut y = vec![T::ZERO; self.nrows];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = T::ZERO;
            for k in 0..self.width {
                let c = self.col_idx[i * self.width + k];
                if c != PAD {
                    acc += self.values[i * self.width + k] * x[c];
                }
            }
            *yi = acc;
        }
        Ok(y)
    }

    /// Converts back to CSR.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut coo = crate::coo::CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for i in 0..self.nrows {
            for k in 0..self.width {
                let c = self.col_idx[i * self.width + k];
                if c != PAD {
                    coo.push(i, c, self.values[i * self.width + k])
                        .expect("indices validated at construction");
                }
            }
        }
        coo.to_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{self, RowDistribution};

    #[test]
    fn round_trip_csr_ell_csr() {
        let a = generate::random_pattern::<f64>(40, RowDistribution::Uniform { min: 1, max: 7 }, 3);
        let e = EllMatrix::from_csr(&a);
        assert_eq!(e.to_csr(), a);
        assert_eq!(e.nnz(), a.nnz());
    }

    #[test]
    fn spmv_matches_csr() {
        let a = generate::poisson2d::<f64>(7, 7);
        let e = EllMatrix::from_csr(&a);
        let x: Vec<f64> = (0..49).map(|i| ((i % 5) as f64) - 2.0).collect();
        assert_eq!(e.mul_vec(&x).unwrap(), a.mul_vec(&x).unwrap());
        assert!(e.mul_vec(&[1.0; 3]).is_err());
    }

    #[test]
    fn width_overflow_is_rejected() {
        let a = generate::poisson1d::<f64>(5); // middle rows have 3 entries
        assert!(EllMatrix::from_csr_with_width(&a, 2).is_err());
        assert!(EllMatrix::from_csr_with_width(&a, 3).is_ok());
    }

    #[test]
    fn padding_fraction_equals_eq5_underutilization_at_unroll_width() {
        // For a matrix with no empty rows, ELL padding at width W equals
        // the fabric's Eq. 5 underutilization at unroll = W when every
        // row fits one chunk.
        let a = generate::random_pattern::<f32>(64, RowDistribution::Uniform { min: 1, max: 6 }, 9);
        let e = EllMatrix::from_csr(&a);
        let w = e.width();
        let total_slots = (a.nrows() * w) as f64;
        let expected = (total_slots - a.nnz() as f64) / total_slots;
        assert!((e.padding_fraction() - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_has_zero_padding() {
        let a = crate::CooMatrix::<f64>::new(3, 3).to_csr();
        let e = EllMatrix::from_csr(&a);
        assert_eq!(e.width(), 0);
        assert_eq!(e.padding_fraction(), 0.0);
        assert_eq!(e.mul_vec(&[1.0; 3]).unwrap(), vec![0.0; 3]);
    }

    #[test]
    fn zero_row_matrix_from_csr_is_fully_empty() {
        // 0 rows, 0 nnz: width collapses to 0 and every slice is empty.
        let a = crate::CooMatrix::<f64>::new(0, 5).to_csr();
        let e = EllMatrix::from_csr(&a);
        assert_eq!(e.nrows(), 0);
        assert_eq!(e.ncols(), 5);
        assert_eq!(e.width(), 0);
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.padding_fraction(), 0.0);
        // width() == 0 slicing: the slot arrays hold nrows * width == 0
        // entries, so mul_vec on the empty row set yields an empty vector.
        assert_eq!(e.mul_vec(&[1.0; 5]).unwrap(), Vec::<f64>::new());
        assert_eq!(e.to_csr(), a);
    }

    #[test]
    fn mul_vec_rejects_empty_input_of_wrong_width() {
        let a = crate::CooMatrix::<f64>::new(0, 5).to_csr();
        let e = EllMatrix::from_csr(&a);
        // ncols is 5, so a zero-length x is a dimension mismatch even
        // though the matrix has no rows.
        assert!(matches!(
            e.mul_vec(&[]),
            Err(SparseError::DimensionMismatch {
                expected: 5,
                found: 0,
                ..
            })
        ));

        // A genuinely 0x0 matrix accepts the empty vector.
        let z = crate::CooMatrix::<f64>::new(0, 0).to_csr();
        let ez = EllMatrix::from_csr(&z);
        assert_eq!(ez.width(), 0);
        assert_eq!(ez.mul_vec(&[]).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn from_csr_with_width_error_reports_offending_row() {
        let a = generate::poisson1d::<f64>(6); // rows 1..=4 hold 3 entries
        let err = EllMatrix::from_csr_with_width(&a, 2).unwrap_err();
        match err {
            SparseError::InvalidStructure(msg) => {
                assert!(msg.contains("row 1"), "unexpected message: {msg}");
                assert!(msg.contains("width 2"), "unexpected message: {msg}");
            }
            other => panic!("expected InvalidStructure, got {other:?}"),
        }
        // Width 0 is an error as soon as any row is non-empty...
        assert!(EllMatrix::from_csr_with_width(&a, 0).is_err());
        // ...but valid for an all-empty matrix.
        let empty = crate::CooMatrix::<f64>::new(4, 4).to_csr();
        let e = EllMatrix::from_csr_with_width(&empty, 0).unwrap();
        assert_eq!(e.width(), 0);
        assert_eq!(e.mul_vec(&[2.0; 4]).unwrap(), vec![0.0; 4]);
    }
}
