//! Compressed Sparse Row (CSR) matrix — the compute format.
//!
//! Acamar takes its coefficient matrix in CSR (paper Section IV); every
//! kernel and analysis in this workspace operates on [`CsrMatrix`].

use crate::csc::CscMatrix;
use crate::dense::DenseMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;

/// A sparse matrix in Compressed Sparse Row format.
///
/// Invariants (enforced by [`CsrMatrix::try_from_parts`] and maintained by
/// all constructors):
///
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`, monotone
///   non-decreasing, `row_ptr[nrows] == col_idx.len() == values.len()`;
/// * column indices within each row are strictly increasing (sorted, no
///   duplicates) and `< ncols`.
///
/// # Examples
///
/// ```
/// use acamar_sparse::CsrMatrix;
///
/// // [ 2 -1  0 ]
/// // [-1  2 -1 ]
/// // [ 0 -1  2 ]
/// let a = CsrMatrix::try_from_parts(
///     3, 3,
///     vec![0, 2, 5, 7],
///     vec![0, 1, 0, 1, 2, 1, 2],
///     vec![2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0],
/// ).unwrap();
/// assert_eq!(a.nnz(), 7);
/// let y = a.mul_vec(&[1.0, 1.0, 1.0]).unwrap();
/// assert_eq!(y, vec![1.0, 0.0, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Builds a CSR matrix from raw arrays, validating every invariant.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if `row_ptr` is malformed
    /// or column indices are unsorted/duplicated within a row, and
    /// [`SparseError::IndexOutOfBounds`] if a column index exceeds `ncols`.
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self, SparseError> {
        if row_ptr.len() != nrows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "row_ptr length {} != nrows + 1 = {}",
                row_ptr.len(),
                nrows + 1
            )));
        }
        if row_ptr[0] != 0 {
            return Err(SparseError::InvalidStructure(format!(
                "row_ptr[0] = {} (must be 0)",
                row_ptr[0]
            )));
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::DimensionMismatch {
                expected: col_idx.len(),
                found: values.len(),
                what: "values length vs col_idx length",
            });
        }
        if *row_ptr.last().expect("nonempty row_ptr") != col_idx.len() {
            return Err(SparseError::InvalidStructure(format!(
                "row_ptr[nrows] = {} != nnz = {}",
                row_ptr[nrows],
                col_idx.len()
            )));
        }
        for r in 0..nrows {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            if lo > hi {
                return Err(SparseError::InvalidStructure(format!(
                    "row_ptr decreases at row {r}"
                )));
            }
            let mut prev: Option<usize> = None;
            for &c in &col_idx[lo..hi] {
                if c >= ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        index: c,
                        bound: ncols,
                        axis: "column",
                    });
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(SparseError::InvalidStructure(format!(
                            "columns not strictly increasing in row {r} ({p} then {c})"
                        )));
                    }
                }
                prev = Some(c);
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Internal constructor for callers that already guarantee the
    /// invariants (COO/CSC conversions, generators).
    pub(crate) fn from_raw_parts_unchecked(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        debug_assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        debug_assert_eq!(col_idx.len(), values.len());
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![T::ONE; n],
        }
    }

    /// A square matrix with `diag` on the diagonal and zeros elsewhere.
    pub fn from_diagonal(diag: &[T]) -> Self {
        let n = diag.len();
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: diag.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (explicit) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Fraction of entries that are stored: `nnz / (nrows * ncols)`.
    ///
    /// This is the "Sparsity%" column of the paper's Table II (expressed as
    /// a fraction, not a percentage).
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// The row-pointer array (`nrows + 1` offsets).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The value array.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable access to the value array (pattern is immutable).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// The column indices and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[T]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Stored entries per row, as a vector of counts.
    pub fn row_nnz_counts(&self) -> Vec<usize> {
        (0..self.nrows).map(|i| self.row_nnz(i)).collect()
    }

    /// Iterates over rows as `(row_index, cols, values)`.
    pub fn iter_rows(&self) -> RowIter<'_, T> {
        RowIter { m: self, next: 0 }
    }

    /// The value at `(i, j)`, or zero if not stored.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows` or `j >= ncols`.
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(j < self.ncols, "column index {j} out of bounds");
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => T::ZERO,
        }
    }

    /// The diagonal as a dense vector (missing entries are zero).
    ///
    /// Works for rectangular matrices too (length `min(nrows, ncols)`).
    pub fn diagonal(&self) -> Vec<T> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Returns `true` if every diagonal entry is stored and nonzero.
    pub fn has_nonzero_diagonal(&self) -> bool {
        let n = self.nrows.min(self.ncols);
        (0..n).all(|i| self.get(i, i) != T::ZERO)
    }

    /// Sparse matrix–vector product `y = A x` into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[T]) -> Result<Vec<T>, SparseError> {
        let mut y = vec![T::ZERO; self.nrows];
        self.mul_vec_into(x, &mut y)?;
        Ok(y)
    }

    /// Sparse matrix–vector product `y = A x` into a caller-provided buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x.len() != ncols` or
    /// `y.len() != nrows`.
    pub fn mul_vec_into(&self, x: &[T], y: &mut [T]) -> Result<(), SparseError> {
        if x.len() != self.ncols {
            return Err(SparseError::DimensionMismatch {
                expected: self.ncols,
                found: x.len(),
                what: "input vector length",
            });
        }
        if y.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                expected: self.nrows,
                found: y.len(),
                what: "output vector length",
            });
        }
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = T::ZERO;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c];
            }
            *yi = acc;
        }
        Ok(())
    }

    /// Converts to Compressed Sparse Column format.
    ///
    /// This is the operation the paper's Matrix Structure unit performs to
    /// test symmetry (Section IV-B).
    pub fn to_csc(&self) -> CscMatrix<T> {
        CscMatrix::from_csr(self)
    }

    /// The transpose, as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix<T> {
        // CSC of A has the same arrays as CSR of A^T.
        let csc = self.to_csc();
        csc.into_transposed_csr()
    }

    /// Materializes as a dense matrix (intended for tests and small systems).
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (i, cols, vals) in self.iter_rows() {
            for (&c, &v) in cols.iter().zip(vals) {
                d[(i, c)] = v;
            }
        }
        d
    }

    /// Applies `f` to every stored value, preserving the pattern.
    pub fn map_values<F: FnMut(T) -> T>(&self, mut f: F) -> CsrMatrix<T> {
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Multiplies every stored value by `s`.
    pub fn scale(&self, s: T) -> CsrMatrix<T> {
        self.map_values(|v| v * s)
    }

    /// Converts the value type (e.g. `f64 -> f32` for the hardware model).
    pub fn cast<U: Scalar>(&self) -> CsrMatrix<U> {
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self
                .values
                .iter()
                .map(|v| U::from_f64(v.to_f64()))
                .collect(),
        }
    }

    /// Numeric symmetry test: `A[i][j] == A[j][i]` within relative
    /// tolerance `tol` on every stored entry (and pattern symmetry).
    ///
    /// For the paper-faithful CSR-vs-CSC comparison used by the Matrix
    /// Structure unit, see
    /// [`analysis::symmetric_via_csc`](crate::analysis::symmetric_via_csc);
    /// both agree on well-formed matrices.
    pub fn is_symmetric(&self, tol: T) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        // Compare against the CSC view directly: CSC arrays of A are the
        // CSR arrays of Aᵀ, so no transpose matrix needs materializing.
        let csc = self.to_csc();
        if csc.col_ptr() != &self.row_ptr[..] || csc.row_idx() != &self.col_idx[..] {
            return false;
        }
        self.values
            .iter()
            .zip(csc.values())
            .all(|(&a, &b)| (a - b).abs() <= tol * T::ONE.max(a.abs().max(b.abs())))
    }

    /// Structural (pattern-only) symmetry test.
    pub fn is_pattern_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let n = self.ncols;
        // Column histogram + prefix sum yields the transpose's row_ptr;
        // reject early if it already disagrees.
        let mut col_ptr = vec![0usize; n + 1];
        for &c in &self.col_idx {
            col_ptr[c + 1] += 1;
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        if col_ptr != self.row_ptr {
            return false;
        }
        // Pattern-only scatter: build just the transpose's column indices,
        // skipping the value pass a full transpose would pay for.
        let mut t_col = vec![0usize; self.col_idx.len()];
        let mut next = col_ptr;
        for i in 0..n {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            for &c in &self.col_idx[lo..hi] {
                t_col[next[c]] = i;
                next[c] += 1;
            }
        }
        t_col == self.col_idx
    }

    /// Splits off the strictly-lower, diagonal, and strictly-upper parts:
    /// `A = L + D + U` (the Jacobi decomposition of Algorithm 1).
    pub fn split_ldu(&self) -> (CsrMatrix<T>, Vec<T>, CsrMatrix<T>) {
        let mut l_ptr = vec![0usize];
        let mut l_col = Vec::new();
        let mut l_val = Vec::new();
        let mut u_ptr = vec![0usize];
        let mut u_col = Vec::new();
        let mut u_val = Vec::new();
        let n = self.nrows.min(self.ncols);
        let mut d = vec![T::ZERO; n];
        for (i, cols, vals) in self.iter_rows() {
            for (&c, &v) in cols.iter().zip(vals) {
                use std::cmp::Ordering::*;
                match c.cmp(&i) {
                    Less => {
                        l_col.push(c);
                        l_val.push(v);
                    }
                    Equal => d[i] = v,
                    Greater => {
                        u_col.push(c);
                        u_val.push(v);
                    }
                }
            }
            l_ptr.push(l_col.len());
            u_ptr.push(u_col.len());
        }
        (
            CsrMatrix::from_raw_parts_unchecked(self.nrows, self.ncols, l_ptr, l_col, l_val),
            d,
            CsrMatrix::from_raw_parts_unchecked(self.nrows, self.ncols, u_ptr, u_col, u_val),
        )
    }

    /// The off-diagonal part with row `i` multiplied by `row_scale[i]`:
    /// with `row_scale = 1 / diag(A)` this is Jacobi's iteration matrix
    /// `T = D⁻¹(L + U)` (Algorithm 1's Initialize lines;
    /// [`Self::split_jacobi`] reads the diagonal in the same sweep).
    ///
    /// One sweep over the stored entries into freshly reserved arrays —
    /// the result shares nothing with `self` — with no sort: dropping one
    /// column from a sorted row leaves it sorted. The reservation is exact
    /// when every diagonal entry is stored (the only case Jacobi gets this
    /// far with); a structurally missing diagonal just grows the arrays.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if
    /// `row_scale.len() != nrows`.
    pub fn off_diagonal_scaled(&self, row_scale: &[T]) -> Result<CsrMatrix<T>, SparseError> {
        self.check_row_vector(row_scale.len(), "row scale length")?;
        Ok(self.off_diagonal_with(|i, _| row_scale[i]))
    }

    /// Jacobi's set-up in one sweep: writes `diag[i] = a_ii` (zero where
    /// no diagonal entry is stored) and `inv_diag[i] = 1 / a_ii`, and
    /// returns `T = D⁻¹(L + U)` — bit for bit
    /// `off_diagonal_scaled(inv_diag)`, without searching each row for its
    /// diagonal a second time. A zero diagonal yields an infinite scale;
    /// the caller checks `diag` before using `T`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `diag` or `inv_diag`
    /// is not `nrows` long.
    pub fn split_jacobi(
        &self,
        diag: &mut [T],
        inv_diag: &mut [T],
    ) -> Result<CsrMatrix<T>, SparseError> {
        self.check_row_vector(diag.len(), "diagonal length")?;
        self.check_row_vector(inv_diag.len(), "inverse diagonal length")?;
        Ok(self.off_diagonal_with(|i, d| {
            diag[i] = d.unwrap_or(T::ZERO);
            inv_diag[i] = T::ONE / diag[i];
            inv_diag[i]
        }))
    }

    fn check_row_vector(&self, found: usize, what: &'static str) -> Result<(), SparseError> {
        if found == self.nrows {
            Ok(())
        } else {
            Err(SparseError::DimensionMismatch {
                expected: self.nrows,
                found,
                what,
            })
        }
    }

    /// The sweep behind [`Self::off_diagonal_scaled`] and
    /// [`Self::split_jacobi`]: `scale_of(i, a_ii)` sees row `i`'s stored
    /// diagonal entry, if any, and returns the row's multiplier.
    fn off_diagonal_with(&self, mut scale_of: impl FnMut(usize, Option<T>) -> T) -> CsrMatrix<T> {
        let kept = self.nnz() - self.nrows.min(self.ncols).min(self.nnz());
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::with_capacity(kept);
        let mut values = Vec::with_capacity(kept);
        row_ptr.push(0);
        for (i, cols, vals) in self.iter_rows() {
            // The diagonal's slot splits the row into two runs that are
            // copied (columns) and scaled (values) whole.
            let (below, above, diagonal) = match cols.binary_search(&i) {
                Ok(k) => (k, k + 1, Some(vals[k])),
                Err(k) => (k, k, None),
            };
            let s = scale_of(i, diagonal);
            col_idx.extend_from_slice(&cols[..below]);
            col_idx.extend_from_slice(&cols[above..]);
            values.extend(vals[..below].iter().map(|&v| v * s));
            values.extend(vals[above..].iter().map(|&v| v * s));
            row_ptr.push(col_idx.len());
        }
        if cfg!(debug_assertions) {
            CsrMatrix::try_from_parts(self.nrows, self.ncols, row_ptr, col_idx, values)
                .expect("a sorted row minus one column is a sorted row")
        } else {
            CsrMatrix::from_raw_parts_unchecked(self.nrows, self.ncols, row_ptr, col_idx, values)
        }
    }

    /// Extracts rows `range` as a new matrix with the same column count.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > nrows`.
    pub fn row_slice(&self, range: std::ops::Range<usize>) -> CsrMatrix<T> {
        assert!(range.end <= self.nrows, "row range out of bounds");
        let base = self.row_ptr[range.start];
        let row_ptr: Vec<usize> = self.row_ptr[range.start..=range.end]
            .iter()
            .map(|&p| p - base)
            .collect();
        let lo = self.row_ptr[range.start];
        let hi = self.row_ptr[range.end];
        CsrMatrix {
            nrows: range.end - range.start,
            ncols: self.ncols,
            row_ptr,
            col_idx: self.col_idx[lo..hi].to_vec(),
            values: self.values[lo..hi].to_vec(),
        }
    }
}

/// Iterator over the rows of a [`CsrMatrix`], yielding
/// `(row_index, column_indices, values)`.
#[derive(Debug)]
pub struct RowIter<'a, T> {
    m: &'a CsrMatrix<T>,
    next: usize,
}

impl<'a, T: Scalar> Iterator for RowIter<'a, T> {
    type Item = (usize, &'a [usize], &'a [T]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.m.nrows {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let (cols, vals) = self.m.row(i);
        Some((i, cols, vals))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.m.nrows - self.next;
        (rem, Some(rem))
    }
}

impl<'a, T: Scalar> ExactSizeIterator for RowIter<'a, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri3() -> CsrMatrix<f64> {
        CsrMatrix::try_from_parts(
            3,
            3,
            vec![0, 2, 5, 7],
            vec![0, 1, 0, 1, 2, 1, 2],
            vec![2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_row_ptr() {
        let e = CsrMatrix::<f64>::try_from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
        let e = CsrMatrix::<f64>::try_from_parts(1, 2, vec![1, 1], vec![], vec![]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
        let e = CsrMatrix::<f64>::try_from_parts(1, 2, vec![0, 2], vec![0], vec![1.0]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn validation_rejects_unsorted_or_duplicate_columns() {
        let e = CsrMatrix::<f64>::try_from_parts(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
        let e = CsrMatrix::<f64>::try_from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn validation_rejects_out_of_bounds_column() {
        let e = CsrMatrix::<f64>::try_from_parts(1, 2, vec![0, 1], vec![2], vec![1.0]);
        assert!(matches!(e, Err(SparseError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn identity_and_diagonal() {
        let i = CsrMatrix::<f32>::identity(3);
        assert_eq!(i.diagonal(), vec![1.0; 3]);
        assert!(i.has_nonzero_diagonal());
        let d = CsrMatrix::from_diagonal(&[1.0, 0.0, 3.0]);
        assert!(!d.has_nonzero_diagonal());
    }

    #[test]
    fn get_and_row_access() {
        let a = tri3();
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.row_nnz(1), 3);
        assert_eq!(a.row_nnz_counts(), vec![2, 3, 2]);
        let rows: Vec<usize> = a.iter_rows().map(|(i, _, _)| i).collect();
        assert_eq!(rows, vec![0, 1, 2]);
        assert_eq!(a.iter_rows().len(), 3);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let a = tri3();
        let x = vec![1.0, 2.0, 3.0];
        let y = a.mul_vec(&x).unwrap();
        let d = a.to_dense();
        let yd = d.mul_vec(&x);
        assert_eq!(y, yd);
    }

    #[test]
    fn mul_vec_checks_dims() {
        let a = tri3();
        assert!(a.mul_vec(&[1.0, 2.0]).is_err());
        let mut y = vec![0.0; 2];
        assert!(a.mul_vec_into(&[1.0, 2.0, 3.0], &mut y).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = CsrMatrix::try_from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])
            .unwrap();
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn symmetry_checks() {
        let a = tri3();
        assert!(a.is_symmetric(1e-12));
        assert!(a.is_pattern_symmetric());
        let b = CsrMatrix::try_from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0, 5.0, 1.0])
            .unwrap();
        assert!(!b.is_pattern_symmetric());
        assert!(!b.is_symmetric(1e-12));
    }

    #[test]
    fn split_ldu_reassembles() {
        let a = tri3();
        let (l, d, u) = a.split_ldu();
        assert_eq!(d, vec![2.0, 2.0, 2.0]);
        assert_eq!(l.nnz() + u.nnz() + 3, a.nnz());
        // L + D + U == A entrywise
        for (i, &di) in d.iter().enumerate() {
            for j in 0..3 {
                let dij = if i == j { di } else { 0.0 };
                assert_eq!(l.get(i, j) + dij + u.get(i, j), a.get(i, j));
            }
        }
    }

    #[test]
    fn row_slice_extracts_subrange() {
        let a = tri3();
        let s = a.row_slice(1..3);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.ncols(), 3);
        assert_eq!(s.get(0, 0), -1.0); // old row 1
        assert_eq!(s.get(1, 2), 2.0); // old row 2
        assert_eq!(s.nnz(), 5);
    }

    #[test]
    fn cast_between_precisions() {
        let a = tri3();
        let f: CsrMatrix<f32> = a.cast();
        assert_eq!(f.get(1, 1), 2.0_f32);
        assert_eq!(f.nnz(), a.nnz());
    }

    #[test]
    fn density_and_scale() {
        let a = tri3();
        assert!((a.density() - 7.0 / 9.0).abs() < 1e-12);
        let b = a.scale(2.0);
        assert_eq!(b.get(0, 0), 4.0);
    }
}
