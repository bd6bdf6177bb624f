//! Compressed Sparse Row (CSR) matrix — the compute format.
//!
//! Acamar takes its coefficient matrix in CSR (paper Section IV); every
//! kernel and analysis in this workspace operates on [`CsrMatrix`].

use crate::csc::CscMatrix;
use crate::dense::DenseMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use std::fmt;
use std::sync::Arc;

/// The sparsity pattern of a [`CsrMatrix`]: its shape and index arrays.
///
/// The arrays are immutable once built and held by reference count
/// (`Arc<[usize]>`: the slice pointers sit in the struct, so `row(i)` in a
/// loop costs what it cost on a `Vec` — see DESIGN §11), so a clone is
/// two reference bumps and every matrix made from one pattern —
/// [`CsrMatrix::clone`], [`CsrMatrix::map_values`], [`CsrMatrix::cast`],
/// [`CsrMatrix::from_pattern`] — reads the same storage. A pattern only
/// ever comes out of a validated matrix (or a [`JacobiSplit`]), so it
/// always satisfies the [`CsrMatrix`] invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrPattern {
    nrows: usize,
    ncols: usize,
    row_ptr: Arc<[usize]>,
    col_idx: Arc<[usize]>,
}

impl CsrPattern {
    /// For in-crate builders whose arrays satisfy the [`CsrMatrix`]
    /// invariants by construction.
    pub(crate) fn from_raw_parts_unchecked(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        debug_assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        CsrPattern {
            nrows,
            ncols,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
        }
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
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
}

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
///
/// The index arrays live in a shared [`CsrPattern`]: cloning a matrix, or
/// deriving one with the same pattern, copies the values only.
#[derive(Clone, PartialEq)]
pub struct CsrMatrix<T> {
    pattern: CsrPattern,
    values: Vec<T>,
}

impl<T: fmt::Debug> fmt::Debug for CsrMatrix<T> {
    /// The flat five-field form the struct had before its index arrays
    /// moved behind [`CsrPattern`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrMatrix")
            .field("nrows", &self.pattern.nrows)
            .field("ncols", &self.pattern.ncols)
            .field("row_ptr", &self.pattern.row_ptr)
            .field("col_idx", &self.pattern.col_idx)
            .field("values", &self.values)
            .finish()
    }
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
        Ok(Self::from_raw_parts_unchecked(
            nrows, ncols, row_ptr, col_idx, values,
        ))
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
        debug_assert_eq!(col_idx.len(), values.len());
        CsrMatrix {
            pattern: CsrPattern::from_raw_parts_unchecked(nrows, ncols, row_ptr, col_idx),
            values,
        }
    }

    /// A matrix over an existing pattern, sharing its index arrays.
    ///
    /// The pattern is valid by construction, so the only check is O(1).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if
    /// `values.len() != pattern.nnz()`.
    pub fn from_pattern(pattern: CsrPattern, values: Vec<T>) -> Result<Self, SparseError> {
        if values.len() != pattern.nnz() {
            return Err(SparseError::DimensionMismatch {
                expected: pattern.nnz(),
                found: values.len(),
                what: "values length vs pattern entries",
            });
        }
        Ok(CsrMatrix { pattern, values })
    }

    /// The sparsity pattern; clone it to share the index arrays.
    #[inline]
    pub fn pattern(&self) -> &CsrPattern {
        &self.pattern
    }

    /// Gives up the matrix for its value array.
    pub fn into_values(self) -> Vec<T> {
        self.values
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::from_raw_parts_unchecked(n, n, (0..=n).collect(), (0..n).collect(), vec![T::ONE; n])
    }

    /// A square matrix with `diag` on the diagonal and zeros elsewhere.
    pub fn from_diagonal(diag: &[T]) -> Self {
        let n = diag.len();
        Self::from_raw_parts_unchecked(n, n, (0..=n).collect(), (0..n).collect(), diag.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.pattern.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.pattern.ncols
    }

    /// Number of stored (explicit) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are stored: `nnz / (nrows * ncols)`.
    ///
    /// This is the "Sparsity%" column of the paper's Table II (expressed as
    /// a fraction, not a percentage).
    pub fn density(&self) -> f64 {
        if self.nrows() == 0 || self.ncols() == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows() as f64 * self.ncols() as f64)
    }

    /// The row-pointer array (`nrows + 1` offsets).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.pattern.row_ptr
    }

    /// The column-index array.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.pattern.col_idx
    }

    /// The value array.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable access to the value array (pattern is immutable). Values
    /// are never shared: a write here shows in no other matrix.
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
        let row_ptr = self.row_ptr();
        let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
        (&self.col_idx()[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr()[i + 1] - self.row_ptr()[i]
    }

    /// Stored entries per row, as a vector of counts.
    pub fn row_nnz_counts(&self) -> Vec<usize> {
        (0..self.nrows()).map(|i| self.row_nnz(i)).collect()
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
        assert!(j < self.ncols(), "column index {j} out of bounds");
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
        let n = self.nrows().min(self.ncols());
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Returns `true` if every diagonal entry is stored and nonzero.
    pub fn has_nonzero_diagonal(&self) -> bool {
        let n = self.nrows().min(self.ncols());
        (0..n).all(|i| self.get(i, i) != T::ZERO)
    }

    /// Sparse matrix–vector product `y = A x` into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[T]) -> Result<Vec<T>, SparseError> {
        let mut y = vec![T::ZERO; self.nrows()];
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
        if x.len() != self.ncols() {
            return Err(SparseError::DimensionMismatch {
                expected: self.ncols(),
                found: x.len(),
                what: "input vector length",
            });
        }
        if y.len() != self.nrows() {
            return Err(SparseError::DimensionMismatch {
                expected: self.nrows(),
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
    /// The paper's Matrix Structure unit tests symmetry by this conversion
    /// (Section IV-B); [`CsrMatrix::is_symmetric`] answers without it.
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
        let mut d = DenseMatrix::zeros(self.nrows(), self.ncols());
        for (i, cols, vals) in self.iter_rows() {
            for (&c, &v) in cols.iter().zip(vals) {
                d[(i, c)] = v;
            }
        }
        d
    }

    /// Applies `f` to every stored value; the result shares the pattern.
    pub fn map_values<F: FnMut(T) -> T>(&self, mut f: F) -> CsrMatrix<T> {
        CsrMatrix {
            pattern: self.pattern.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Multiplies every stored value by `s`.
    pub fn scale(&self, s: T) -> CsrMatrix<T> {
        self.map_values(|v| v * s)
    }

    /// Converts the value type (e.g. `f64 -> f32` for the hardware
    /// model); the result shares the pattern.
    pub fn cast<U: Scalar>(&self) -> CsrMatrix<U> {
        CsrMatrix {
            pattern: self.pattern.clone(),
            values: self
                .values
                .iter()
                .map(|v| U::from_f64(v.to_f64()))
                .collect(),
        }
    }

    /// Numeric symmetry test: pattern symmetry, and every stored `A[i][j]`
    /// equal to `A[j][i]` or within relative tolerance `tol` of it (the
    /// diagonal against itself, so a NaN anywhere fails). `tol = 0` is
    /// exactly [`analysis::symmetric_via_csc`](crate::analysis::symmetric_via_csc).
    pub fn is_symmetric(&self, tol: T) -> bool {
        self.symmetry(|a, b| a == b || (a - b).abs() <= tol * T::ONE.max(a.abs().max(b.abs())))
            .1
    }

    /// Structural (pattern-only) symmetry test.
    pub fn is_pattern_symmetric(&self) -> bool {
        self.symmetry(|_, _| true).0
    }

    /// `(pattern symmetric, and same(A[i][j], A[j][i]) on every stored
    /// entry too)` — what a CSR-vs-CSC comparison answers, without the CSC.
    /// Rows are swept in order; each upper entry `(i, j)` claims the next
    /// unclaimed lower entry of row `j`, which must be `(j, i)` (mirrors
    /// arrive in column order), and each diagonal is compared with itself.
    /// The first entry without its mirror ends the walk.
    pub(crate) fn symmetry(&self, same: impl Fn(T, T) -> bool) -> (bool, bool) {
        let n = self.nrows();
        if n != self.ncols() {
            return (false, false);
        }
        let (row_ptr, col_idx, values) = (self.row_ptr(), self.col_idx(), &self.values[..]);
        // next[j]: row j's first lower entry no upper entry has claimed.
        let mut next = row_ptr[..n].to_vec();
        let mut same_values = true;
        for i in 0..n {
            let (start, end) = (next[i], row_ptr[i + 1]);
            // A lower entry the rows above left unclaimed has no mirror.
            if start < end && col_idx[start] < i {
                return (false, false);
            }
            for k in start..end {
                let j = col_idx[k];
                let mirror = if j == i {
                    k
                } else {
                    let m = next[j];
                    if m == row_ptr[j + 1] || col_idx[m] != i {
                        return (false, false);
                    }
                    next[j] = m + 1;
                    m
                };
                same_values &= same(values[k], values[mirror]);
            }
        }
        (true, same_values)
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
        let n = self.nrows().min(self.ncols());
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
            CsrMatrix::from_raw_parts_unchecked(self.nrows(), self.ncols(), l_ptr, l_col, l_val),
            d,
            CsrMatrix::from_raw_parts_unchecked(self.nrows(), self.ncols(), u_ptr, u_col, u_val),
        )
    }

    /// The off-diagonal part with row `i` multiplied by `row_scale[i]`:
    /// with `row_scale = 1 / diag(A)` this is Jacobi's iteration matrix
    /// `T = D⁻¹(L + U)` (Algorithm 1's Initialize lines;
    /// [`Self::split_jacobi`] reads the diagonal in the same sweep).
    ///
    /// A [`JacobiSplit`] built and filled on the spot: the result shares
    /// nothing with `self`. Callers that see one pattern many times keep
    /// the split and call [`JacobiSplit::fill`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if
    /// `row_scale.len() != nrows`.
    pub fn off_diagonal_scaled(&self, row_scale: &[T]) -> Result<CsrMatrix<T>, SparseError> {
        self.check_row_vector(row_scale.len(), "row scale length")?;
        Ok(JacobiSplit::of(self)
            .fill_with(self, Vec::new(), |i, _| row_scale[i])
            .expect("a split fits the matrix it was built from"))
    }

    /// Jacobi's set-up in one call: writes `diag[i] = a_ii` (zero where
    /// no diagonal entry is stored) and `inv_diag[i] = 1 / a_ii`, and
    /// returns `T = D⁻¹(L + U)` — bit for bit
    /// `off_diagonal_scaled(inv_diag)`. A zero diagonal yields an infinite
    /// scale; the caller checks `diag` before using `T`. Like
    /// [`Self::off_diagonal_scaled`], a [`JacobiSplit`] built and filled
    /// on the spot.
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
        Ok(JacobiSplit::of(self)
            .fill(self, Vec::new(), diag, inv_diag)
            .expect("a split fits the matrix it was built from"))
    }

    fn check_row_vector(&self, found: usize, what: &'static str) -> Result<(), SparseError> {
        if found == self.nrows() {
            Ok(())
        } else {
            Err(SparseError::DimensionMismatch {
                expected: self.nrows(),
                found,
                what,
            })
        }
    }

    /// Extracts rows `range` as a new matrix with the same column count.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > nrows`.
    pub fn row_slice(&self, range: std::ops::Range<usize>) -> CsrMatrix<T> {
        assert!(range.end <= self.nrows(), "row range out of bounds");
        let (lo, hi) = (self.row_ptr()[range.start], self.row_ptr()[range.end]);
        let row_ptr: Vec<usize> = self.row_ptr()[range.start..=range.end]
            .iter()
            .map(|&p| p - lo)
            .collect();
        Self::from_raw_parts_unchecked(
            range.end - range.start,
            self.ncols(),
            row_ptr,
            self.col_idx()[lo..hi].to_vec(),
            self.values[lo..hi].to_vec(),
        )
    }
}

/// [`JacobiSplit`]'s mark for a row that stores no diagonal entry.
const NO_DIAGONAL: u32 = u32::MAX;

/// Writes `row` through `f` into `out`, stepping over the entry at `below`
/// when `out` is the shorter by one (`below` past the end steps over
/// nothing). One run indexed past the gap: splitting it in two at `below`
/// would end two loops at lengths only the data knows, which a short
/// ragged row mispredicts once or twice.
fn copy_without<U: Copy>(out: &mut [U], row: &[U], below: usize, f: impl Fn(U) -> U) {
    for (j, o) in out.iter_mut().enumerate() {
        *o = f(row[j + usize::from(j >= below)]);
    }
}

/// The pattern-only half of Jacobi's set-up (Algorithm 1's Initialize
/// lines): the pattern of `T = D⁻¹(L + U)` — the source pattern minus each
/// row's diagonal entry — and where in its row each diagonal entry sits.
///
/// Both are pure functions of the source *pattern*, so one split serves
/// every matrix of that pattern, in any scalar type: [`Self::of`] finds
/// the slots and builds the index arrays once, and each later
/// [`Self::fill`] only reads values through the remembered slots and
/// writes values, wrapping them with the shared [`CsrPattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JacobiSplit {
    pattern: CsrPattern,
    /// Per source row, the diagonal entry's offset from the row's first
    /// entry, or [`NO_DIAGONAL`].
    diag_slot: Vec<u32>,
    source_nnz: usize,
}

impl JacobiSplit {
    /// Splits `a`'s pattern. One sweep with no search and no sort: a row's
    /// columns left of `i` count the diagonal's slot (rows are sorted), and
    /// dropping one column from a sorted row leaves it sorted.
    ///
    /// # Panics
    ///
    /// Panics if a row stores 2³² − 1 or more entries left of its
    /// diagonal.
    pub fn of<T: Scalar>(a: &CsrMatrix<T>) -> Self {
        let mut row_ptr = Vec::with_capacity(a.nrows() + 1);
        // Exact when every diagonal entry is stored — the patterns that
        // are kept; a structurally missing one grows it.
        let mut col_idx = vec![0usize; a.nnz() - a.nrows().min(a.ncols()).min(a.nnz())];
        let mut diag_slot = Vec::with_capacity(a.nrows());
        let mut kept = 0usize;
        row_ptr.push(0);
        for (i, cols, _) in a.iter_rows() {
            let below = cols.iter().filter(|&&c| c < i).count();
            // Where the copy steps over an entry: the diagonal's slot, or
            // nowhere.
            let (t_len, gap) = if cols.get(below) == Some(&i) {
                let slot = u32::try_from(below).ok().filter(|&s| s != NO_DIAGONAL);
                diag_slot.push(slot.expect("diagonal offset fits u32"));
                (cols.len() - 1, below)
            } else {
                diag_slot.push(NO_DIAGONAL);
                (cols.len(), cols.len())
            };
            if kept + t_len > col_idx.len() {
                col_idx.resize(a.nnz(), 0);
            }
            copy_without(&mut col_idx[kept..kept + t_len], cols, gap, |c| c);
            kept += t_len;
            row_ptr.push(kept);
        }
        col_idx.truncate(kept);
        JacobiSplit {
            pattern: CsrPattern::from_raw_parts_unchecked(a.nrows(), a.ncols(), row_ptr, col_idx),
            diag_slot,
            source_nnz: a.nnz(),
        }
    }

    /// The pattern of `T`.
    pub fn pattern(&self) -> &CsrPattern {
        &self.pattern
    }

    /// Whether every row of the source pattern stores its diagonal entry —
    /// the only patterns Jacobi can iterate on.
    pub fn has_full_diagonal(&self) -> bool {
        !self.diag_slot.contains(&NO_DIAGONAL)
    }

    /// Jacobi's per-matrix set-up against this split: writes
    /// `diag[i] = a_ii` (zero where no diagonal entry is stored) and
    /// `inv_diag[i] = 1 / a_ii`, scales row `i`'s other entries by
    /// `inv_diag[i]` into `values` (resized to fit; what it held is
    /// overwritten) and returns them as `T` over the shared pattern. A
    /// zero diagonal yields an infinite scale; the caller checks `diag`
    /// before using `T`.
    ///
    /// The split is trusted for the off-diagonal columns only as far as a
    /// compiled plan is (shape and entry count); the diagonal is checked.
    /// `a` must have the split's shape and entry count, every row the
    /// length the split recorded, and every remembered slot must hold
    /// column `i` (rows marked diagonal-free must have none), so a stale
    /// split never scales a row by the wrong entry.
    ///
    /// # Errors
    ///
    /// Hands `values` back if `a` fails those checks; `diag` and
    /// `inv_diag` are then partly written.
    ///
    /// # Panics
    ///
    /// Panics if `diag` or `inv_diag` is not `a.nrows()` long.
    pub fn fill<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        values: Vec<T>,
        diag: &mut [T],
        inv_diag: &mut [T],
    ) -> Result<CsrMatrix<T>, Vec<T>> {
        assert_eq!(diag.len(), a.nrows(), "diagonal length");
        assert_eq!(inv_diag.len(), a.nrows(), "inverse diagonal length");
        self.fill_with(a, values, |i, d| {
            diag[i] = d.unwrap_or(T::ZERO);
            inv_diag[i] = T::ONE / diag[i];
            inv_diag[i]
        })
    }

    /// The sweep behind [`Self::fill`]: `scale_of(i, a_ii)` sees row `i`'s
    /// stored diagonal entry, if any, and returns the row's multiplier.
    fn fill_with<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        mut values: Vec<T>,
        mut scale_of: impl FnMut(usize, Option<T>) -> T,
    ) -> Result<CsrMatrix<T>, Vec<T>> {
        let t = &self.pattern;
        if (a.nrows(), a.ncols(), a.nnz()) != (t.nrows, t.ncols, self.source_nnz) {
            return Err(values);
        }
        // A recycled buffer usually has the right length already; only a
        // longer operand zero-fills, and only the difference.
        values.resize(t.nnz(), T::ZERO);
        let (cols, vals) = (a.col_idx(), a.values());
        let rows = a.row_ptr().windows(2).zip(t.row_ptr.windows(2));
        for (i, ((src, dst), &slot)) in rows.zip(&self.diag_slot).enumerate() {
            let (lo, hi) = (src[0], src[1]);
            let out = &mut values[dst[0]..dst[1]];
            // `below` entries sit left of the diagonal; a row without one
            // has them all there.
            let (below, diagonal) = if slot == NO_DIAGONAL {
                if out.len() != hi - lo || cols[lo..hi].binary_search(&i).is_ok() {
                    return Err(values);
                }
                (hi - lo, None)
            } else {
                let below = slot as usize;
                if below >= hi - lo || out.len() + 1 != hi - lo || cols[lo + below] != i {
                    return Err(values);
                }
                (below, Some(vals[lo + below]))
            };
            let s = scale_of(i, diagonal);
            copy_without(out, &vals[lo..hi], below, |v| v * s);
        }
        Ok(CsrMatrix {
            pattern: t.clone(),
            values,
        })
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
        if self.next >= self.m.nrows() {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let (cols, vals) = self.m.row(i);
        Some((i, cols, vals))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.m.nrows() - self.next;
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
    fn zero_tolerance_symmetry_is_the_csc_comparison() {
        // `==` on every mirrored pair, the diagonal against itself: equal
        // infinities pass (their difference is NaN), NaN never does.
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let m = |d0: f64, upper: f64, lower: f64| {
            let values = vec![d0, upper, lower, 1.0];
            CsrMatrix::try_from_parts(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1], values).unwrap()
        };
        for (a, want) in [
            (m(1.0, inf, inf), true),
            (m(1.0, -inf, -inf), true),
            (m(inf, 2.0, 2.0), true),
            (m(1.0, 0.0, -0.0), true),
            (m(1.0, inf, -inf), false),
            (m(1.0, inf, 2.0), false),
            (m(1.0, nan, nan), false),
            (m(nan, 2.0, 2.0), false),
        ] {
            assert_eq!(a.is_symmetric(0.0), want, "{:?}", a.values());
            assert_eq!(
                crate::analysis::symmetric_via_csc(&a),
                want,
                "{:?}",
                a.values()
            );
            assert!(a.is_pattern_symmetric());
            let a32 = a.cast::<f32>();
            assert_eq!(a32.is_symmetric(0.0), want, "{:?} in f32", a.values());
        }
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

    fn shares_pattern<T, U>(a: &CsrMatrix<T>, b: &CsrMatrix<U>) -> bool {
        Arc::ptr_eq(&a.pattern.row_ptr, &b.pattern.row_ptr)
            && Arc::ptr_eq(&a.pattern.col_idx, &b.pattern.col_idx)
    }

    #[test]
    fn value_only_derivations_share_the_pattern_and_structural_ones_own_theirs() {
        let a = tri3();
        let mut b = a.clone();
        assert!(shares_pattern(&a, &b));
        assert!(shares_pattern(&a, &a.scale(2.0)));
        assert!(shares_pattern(&a, &a.map_values(|v| v - 1.0)));
        assert!(shares_pattern(&a, &a.cast::<f32>()));
        let same = CsrMatrix::from_pattern(a.pattern().clone(), vec![1.0_f32; 7]).unwrap();
        assert!(shares_pattern(&a, &same));
        assert!(CsrMatrix::from_pattern(a.pattern().clone(), vec![1.0; 6]).is_err());
        assert_eq!(a.clone().into_values(), a.values());

        // Values are never shared.
        b.values_mut()[0] = 9.0;
        assert_eq!((a.get(0, 0), b.get(0, 0)), (2.0, 9.0));
        assert_ne!(a, b);

        // Equal arrays, separate storage: still equal matrices.
        let rebuilt = CsrMatrix::try_from_parts(
            3,
            3,
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.values().to_vec(),
        )
        .unwrap();
        assert!(!shares_pattern(&a, &rebuilt));
        assert_eq!(a, rebuilt);
        assert_eq!(a.pattern(), rebuilt.pattern());

        // The symmetric tri3 transposes onto an equal pattern of its own.
        let t = a.transpose();
        assert_eq!(t, a);
        assert!(!shares_pattern(&a, &t));
        assert!(!shares_pattern(&a, &a.row_slice(0..3)));
        let (l, _, u) = a.split_ldu();
        assert!(!shares_pattern(&l, &u) && !shares_pattern(&a, &l));
        let mut coo = crate::CooMatrix::with_capacity(3, 3, 7);
        for (i, cols, vals) in a.iter_rows() {
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(i, c, v).unwrap();
            }
        }
        assert!(!shares_pattern(&a, &coo.to_csr()));
        assert_eq!(coo.to_csr(), a);
    }

    #[test]
    fn debug_output_is_the_flat_five_fields() {
        let a = CsrMatrix::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.5_f64, -2.0])
            .unwrap();
        assert_eq!(
            format!("{a:?}"),
            "CsrMatrix { nrows: 2, ncols: 2, row_ptr: [0, 1, 2], col_idx: [1, 0], \
             values: [1.5, -2.0] }"
        );
    }

    #[test]
    fn a_split_fills_its_own_pattern_and_hands_back_the_buffer_on_any_other() {
        // Diagonal first, middle, last, only; then a row without one.
        let p = CsrMatrix::try_from_parts(
            5,
            5,
            vec![0, 2, 5, 7, 8, 10],
            vec![0, 3, 0, 1, 4, 1, 2, 3, 0, 2],
            vec![2.0_f64, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, -1.0, 7.0, 9.0],
        )
        .unwrap();
        let split = JacobiSplit::of(&p);
        assert!(!split.has_full_diagonal());
        assert_eq!(split.pattern().row_ptr(), &[0, 1, 3, 4, 4, 6]);
        assert_eq!(split.pattern().col_idx(), &[3, 0, 4, 1, 0, 2]);
        let (mut diag, mut inv) = (vec![7.0; 5], vec![7.0; 5]);
        // A recycled buffer: wrong length, stale contents.
        let t = split
            .fill(&p, vec![f64::NAN; 9], &mut diag, &mut inv)
            .unwrap();
        assert_eq!(diag, vec![2.0, 4.0, 8.0, -1.0, 0.0]);
        assert_eq!(inv, vec![0.5, 0.25, 0.125, -1.0, f64::INFINITY]);
        assert_eq!(
            t.values(),
            &[0.5, 0.75, 1.25, 0.75, f64::INFINITY, f64::INFINITY]
        );
        assert_eq!(t.pattern(), split.pattern());
        assert!(shares_pattern(
            &t,
            &split
                .fill(&p.cast::<f32>(), Vec::new(), &mut [0.0; 5], &mut [0.0; 5])
                .unwrap()
        ));

        // A hole with columns on both sides of it keeps the whole row.
        let holed =
            CsrMatrix::try_from_parts(3, 3, vec![0, 1, 3, 4], vec![0, 0, 2, 2], vec![1.0; 4])
                .unwrap();
        let split_holed = JacobiSplit::of(&holed);
        assert_eq!(split_holed.pattern().row_ptr(), &[0, 0, 2, 2]);
        assert_eq!(split_holed.pattern().col_idx(), &[0, 2]);

        // Same shape and entry count, one column moved across a diagonal
        // (row 1: 0 1 4 -> 1 2 4), across nothing (row 0: 0 3 -> 0 4, not
        // the split's business), onto a missing diagonal (row 4), or one
        // entry moved between rows (lengths differ): the first, third and
        // fourth are refused, and the buffer comes back.
        let with_cols = |cols: Vec<usize>, row_ptr: Vec<usize>| {
            CsrMatrix::try_from_parts(5, 5, row_ptr, cols, p.values().to_vec()).unwrap()
        };
        let rp = p.row_ptr().to_vec();
        let slot_moved = with_cols(vec![0, 3, 1, 2, 4, 1, 2, 3, 0, 2], rp.clone());
        let off_diagonal_moved = with_cols(vec![0, 4, 0, 1, 4, 1, 2, 3, 0, 2], rp.clone());
        let diagonal_appeared = with_cols(vec![0, 3, 0, 1, 4, 1, 2, 3, 0, 4], rp);
        let row_lengths_moved =
            with_cols(vec![0, 3, 4, 0, 1, 1, 2, 3, 0, 2], vec![0, 3, 5, 7, 8, 10]);
        for (q, fits) in [
            (&slot_moved, false),
            (&off_diagonal_moved, true),
            (&diagonal_appeared, false),
            (&row_lengths_moved, false),
        ] {
            let got = split.fill(q, vec![1.0; 3], &mut diag, &mut inv);
            assert_eq!(got.is_ok(), fits);
            if let Err(buffer) = got {
                assert!(buffer.capacity() >= 3, "the caller's buffer comes back");
            }
        }
        // Another shape or entry count never gets as far as a row.
        assert!(split
            .fill(&tri3(), Vec::new(), &mut [0.0; 3], &mut [0.0; 3])
            .is_err());
    }

    #[test]
    fn density_and_scale() {
        let a = tri3();
        assert!((a.density() - 7.0 / 9.0).abs() < 1e-12);
        let b = a.scale(2.0);
        assert_eq!(b.get(0, 0), 4.0);
    }
}
