//! Structural analysis of coefficient matrices.
//!
//! Implements the checks the paper's **Matrix Structure unit** performs
//! (strict diagonal dominance, and symmetry — the paper's CSR↔CSC
//! comparison, answered without building the CSC matrix; Section IV-B),
//! plus the cheap spectral estimates (Gershgorin discs, power
//! iteration) used to reason about definiteness in tests and dataset
//! generators.

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::scalar::Scalar;

/// Coarse definiteness classification derived from cheap structural bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Definiteness {
    /// All Gershgorin discs lie strictly in the right half plane (for a
    /// symmetric matrix this proves positive definiteness).
    PositiveDefinite,
    /// All Gershgorin discs lie strictly in the left half plane.
    NegativeDefinite,
    /// Discs certify both positive and negative eigenvalues.
    Indefinite,
    /// The bounds are inconclusive.
    Unknown,
}

impl std::fmt::Display for Definiteness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Definiteness::PositiveDefinite => "positive definite",
            Definiteness::NegativeDefinite => "negative definite",
            Definiteness::Indefinite => "indefinite",
            Definiteness::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// Full structural report for a coefficient matrix.
///
/// Produced by [`analyze`]; consumed by the solver-selection logic in
/// `acamar-solvers` and the Matrix Structure unit in `acamar-core`.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureReport {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Number of stored entries.
    pub nnz: usize,
    /// `nnz / (nrows * ncols)`.
    pub density: f64,
    /// Numerically symmetric (CSR equals CSC, paper's test).
    pub symmetric: bool,
    /// Symmetric sparsity pattern (values may differ).
    pub pattern_symmetric: bool,
    /// Strictly diagonally dominant: `∀i, Σ_{j≠i} |a_ij| < |a_ii|` (Eq. 1).
    pub strictly_diagonally_dominant: bool,
    /// Weakly diagonally dominant (`≤` instead of `<`).
    pub weakly_diagonally_dominant: bool,
    /// Every diagonal entry stored and nonzero.
    pub nonzero_diagonal: bool,
    /// Every diagonal entry strictly positive.
    pub positive_diagonal: bool,
    /// Diagonal contains both positive and negative entries.
    pub mixed_sign_diagonal: bool,
    /// Definiteness classification from Gershgorin bounds (only meaningful
    /// when `symmetric`).
    pub gershgorin_definiteness: Definiteness,
    /// Half bandwidth: `max |i - j|` over stored entries.
    pub bandwidth: usize,
}

impl StructureReport {
    /// `true` when the matrix is symmetric and the Gershgorin bound proves
    /// positive definiteness (a *sufficient*, not necessary, condition for
    /// CG convergence — mirrors the paper's pragmatic symmetry-only check,
    /// which this strengthens when the bound happens to certify it).
    pub fn certified_spd(&self) -> bool {
        self.symmetric && self.gershgorin_definiteness == Definiteness::PositiveDefinite
    }
}

/// Paper-faithful symmetry test: convert CSR to CSC and compare the arrays
/// (Section IV-B: "If the CSC format matches the CSR format, the matrix A
/// is considered symmetric").
/// Kept as the reference: [`analyze`] and [`CsrMatrix::is_symmetric`]`(0.0)`
/// give the same answer without the conversion.
pub fn symmetric_via_csc<T: Scalar>(a: &CsrMatrix<T>) -> bool {
    if a.nrows() != a.ncols() {
        return false;
    }
    let csc = CscMatrix::from_csr(a);
    csc.col_ptr() == a.row_ptr() && csc.row_idx() == a.col_idx() && csc.values() == a.values()
}

/// Strict diagonal dominance per paper Eq. 1:
/// `∀i, Σ_{j≠i} |A_ij| < |A_ii|`.
pub fn strictly_diagonally_dominant<T: Scalar>(a: &CsrMatrix<T>) -> bool {
    diagonal_dominance_margin(a) > 0.0
}

/// Weak diagonal dominance: `∀i, Σ_{j≠i} |A_ij| ≤ |A_ii|`.
pub fn weakly_diagonally_dominant<T: Scalar>(a: &CsrMatrix<T>) -> bool {
    diagonal_dominance_margin(a) >= 0.0
}

/// The worst-case dominance margin `min_i (|a_ii| - Σ_{j≠i}|a_ij|)`,
/// in `f64`. Positive ⇒ strictly dominant; zero ⇒ weakly.
pub fn diagonal_dominance_margin<T: Scalar>(a: &CsrMatrix<T>) -> f64 {
    if a.nrows() != a.ncols() {
        return f64::NEG_INFINITY;
    }
    let mut worst = f64::INFINITY;
    for (i, cols, vals) in a.iter_rows() {
        let (diag, radius) = diagonal_and_radius(i, cols, vals);
        worst = worst.min(diag.to_f64().abs() - radius);
    }
    if a.nrows() == 0 {
        0.0
    } else {
        worst
    }
}

/// Row `i`'s diagonal entry (zero when not stored) and its Gershgorin
/// radius `Σ_{j≠i} |a_ij|`.
fn diagonal_and_radius<T: Scalar>(i: usize, cols: &[usize], vals: &[T]) -> (T, f64) {
    let mut diag = T::ZERO;
    let mut radius = 0.0f64;
    for (&c, &v) in cols.iter().zip(vals) {
        if c == i {
            diag = v;
        } else {
            radius += v.to_f64().abs();
        }
    }
    (diag, radius)
}

/// What the Gershgorin discs seen so far certify.
struct Discs {
    all_positive: bool,
    all_negative: bool,
    any_certain_positive: bool,
    any_certain_negative: bool,
}

impl Discs {
    fn new() -> Discs {
        Discs {
            all_positive: true,
            all_negative: true,
            any_certain_positive: false,
            any_certain_negative: false,
        }
    }

    /// Adds the disc `[diag - radius, diag + radius]`; a NaN bound certifies no sign.
    fn observe(&mut self, diag: f64, radius: f64) {
        let lo = diag - radius;
        let hi = diag + radius;
        self.all_positive &= lo > 0.0;
        self.all_negative &= hi < 0.0;
        if hi < 0.0 {
            self.any_certain_negative = true;
        }
        if lo > 0.0 {
            self.any_certain_positive = true;
        }
    }

    fn classify(&self) -> Definiteness {
        if self.all_positive {
            Definiteness::PositiveDefinite
        } else if self.all_negative {
            Definiteness::NegativeDefinite
        } else if self.any_certain_positive && self.any_certain_negative {
            Definiteness::Indefinite
        } else {
            Definiteness::Unknown
        }
    }
}

/// Gershgorin-disc definiteness classification.
///
/// For symmetric `A` all eigenvalues are real and lie in
/// `∪_i [a_ii - R_i, a_ii + R_i]` with `R_i = Σ_{j≠i}|a_ij|`.
pub fn gershgorin_definiteness<T: Scalar>(a: &CsrMatrix<T>) -> Definiteness {
    if a.nrows() != a.ncols() || a.nrows() == 0 {
        return Definiteness::Unknown;
    }
    let mut discs = Discs::new();
    for (i, cols, vals) in a.iter_rows() {
        let (diag, radius) = diagonal_and_radius(i, cols, vals);
        discs.observe(diag.to_f64(), radius);
    }
    discs.classify()
}

/// Estimates the spectral radius of `A` by power iteration.
///
/// Deterministic: starts from the all-ones vector. Returns `None` for
/// non-square or empty matrices, or if the iteration degenerates.
pub fn spectral_radius_estimate<T: Scalar>(a: &CsrMatrix<T>, iters: usize) -> Option<f64> {
    if a.nrows() != a.ncols() || a.nrows() == 0 {
        return None;
    }
    let n = a.nrows();
    let mut x: Vec<f64> = vec![1.0; n];
    let af: CsrMatrix<f64> = a.cast();
    let mut lambda = 0.0f64;
    let mut y = vec![0.0f64; n];
    for _ in 0..iters.max(1) {
        af.mul_vec_into(&x, &mut y).ok()?;
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if !norm.is_finite() || norm == 0.0 {
            return None;
        }
        lambda = norm
            / x.iter()
                .map(|v| v * v)
                .sum::<f64>()
                .sqrt()
                .max(f64::MIN_POSITIVE);
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
    }
    Some(lambda)
}

/// Runs every structural check and returns the combined report.
///
/// # Examples
///
/// ```
/// use acamar_sparse::{analysis, generate};
///
/// let a = generate::poisson2d::<f64>(8, 8);
/// let report = analysis::analyze(&a);
/// assert!(report.symmetric);
/// assert!(report.weakly_diagonally_dominant);
/// ```
pub fn analyze<T: Scalar>(a: &CsrMatrix<T>) -> StructureReport {
    let square = a.nrows() == a.ncols();
    // Rows past `ncols` of a tall matrix have no diagonal position.
    let diag_len = a.nrows().min(a.ncols());
    let mut positive_diagonal = diag_len > 0;
    let (mut has_pos, mut has_neg) = (false, false);
    let mut nonzero_diagonal = true;
    let mut margin = f64::INFINITY;
    let mut discs = Discs::new();
    let mut bandwidth = 0usize;
    // One sweep feeds every per-row quantity.
    for (i, cols, vals) in a.iter_rows() {
        let (diag, radius) = diagonal_and_radius(i, cols, vals);
        if i < diag_len {
            positive_diagonal &= diag > T::ZERO;
            has_pos |= diag > T::ZERO;
            has_neg |= diag < T::ZERO;
            nonzero_diagonal &= diag != T::ZERO;
        }
        margin = margin.min(diag.to_f64().abs() - radius);
        discs.observe(diag.to_f64(), radius);
        // Columns are sorted, so the row's farthest entry is at an end.
        if let (Some(&first), Some(&last)) = (cols.first(), cols.last()) {
            bandwidth = bandwidth.max(i.abs_diff(first)).max(i.abs_diff(last));
        }
    }
    if !square {
        margin = f64::NEG_INFINITY;
    } else if a.nrows() == 0 {
        margin = 0.0;
    }
    // The CSR == CSC question, without the CSC matrix: the arrays agree
    // exactly when every entry's mirror is stored and `==` it.
    let (pattern_symmetric, symmetric) = a.symmetry(|x, y| x == y);
    StructureReport {
        nrows: a.nrows(),
        ncols: a.ncols(),
        nnz: a.nnz(),
        density: a.density(),
        symmetric,
        pattern_symmetric,
        strictly_diagonally_dominant: margin > 0.0,
        weakly_diagonally_dominant: margin >= 0.0,
        nonzero_diagonal,
        positive_diagonal,
        mixed_sign_diagonal: has_pos && has_neg,
        gershgorin_definiteness: if square && a.nrows() > 0 {
            discs.classify()
        } else {
            Definiteness::Unknown
        },
        bandwidth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn csr(trips: &[(usize, usize, f64)], n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for &(r, c, v) in trips {
            coo.push(r, c, v).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn symmetry_via_csc_matches_direct_check() {
        let sym = csr(&[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 4.0)], 2);
        assert!(symmetric_via_csc(&sym));
        assert!(sym.is_symmetric(0.0));
        let asym = csr(&[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, 4.0)], 2);
        assert!(!symmetric_via_csc(&asym));
    }

    #[test]
    fn strict_dominance_detected() {
        let dd = csr(&[(0, 0, 3.0), (0, 1, -1.0), (1, 0, 1.0), (1, 1, 2.5)], 2);
        assert!(strictly_diagonally_dominant(&dd));
        let weak = csr(&[(0, 0, 1.0), (0, 1, -1.0), (1, 1, 2.0)], 2);
        assert!(!strictly_diagonally_dominant(&weak));
        assert!(weakly_diagonally_dominant(&weak));
    }

    #[test]
    fn dominance_margin_sign() {
        let dd = csr(&[(0, 0, 3.0), (0, 1, 1.0), (1, 1, 5.0)], 2);
        assert!(diagonal_dominance_margin(&dd) > 0.0);
        let not = csr(&[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 5.0)], 2);
        assert!(diagonal_dominance_margin(&not) < 0.0);
    }

    #[test]
    fn gershgorin_classifies_definiteness() {
        let pd = csr(&[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 4.0)], 2);
        assert_eq!(gershgorin_definiteness(&pd), Definiteness::PositiveDefinite);
        let nd = csr(&[(0, 0, -4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, -4.0)], 2);
        assert_eq!(gershgorin_definiteness(&nd), Definiteness::NegativeDefinite);
        let indef = csr(&[(0, 0, 5.0), (1, 1, -5.0)], 2);
        assert_eq!(gershgorin_definiteness(&indef), Definiteness::Indefinite);
    }

    #[test]
    fn a_nan_disc_certifies_no_definiteness() {
        let nan = f64::NAN;
        let lone = csr(&[(0, 0, nan)], 1);
        assert_eq!(gershgorin_definiteness(&lone), Definiteness::Unknown);
        assert_eq!(
            analyze(&lone).gershgorin_definiteness,
            Definiteness::Unknown
        );
        for sign in [1.0, -1.0] {
            let mirrored = csr(
                &[
                    (0, 0, 4.0 * sign),
                    (0, 1, nan),
                    (1, 0, nan),
                    (1, 1, 4.0 * sign),
                    (2, 2, 4.0 * sign),
                ],
                3,
            );
            assert_eq!(gershgorin_definiteness(&mirrored), Definiteness::Unknown);
            assert_eq!(
                analyze(&mirrored).gershgorin_definiteness,
                Definiteness::Unknown
            );
        }
        // A NaN disc beside two certain ones of opposite sign.
        let indef = csr(&[(0, 0, 5.0), (1, 1, nan), (2, 2, -5.0)], 3);
        assert_eq!(gershgorin_definiteness(&indef), Definiteness::Indefinite);
    }

    #[test]
    fn spectral_radius_of_diagonal_matrix() {
        let d = CsrMatrix::from_diagonal(&[1.0, -3.0, 2.0]);
        let rho = spectral_radius_estimate(&d, 100).unwrap();
        assert!((rho - 3.0).abs() < 1e-6, "rho = {rho}");
    }

    #[test]
    fn analyze_full_report() {
        let a = csr(
            &[
                (0, 0, 10.0),
                (0, 2, 1.0),
                (1, 1, -8.0),
                (2, 0, 1.0),
                (2, 2, 10.0),
            ],
            3,
        );
        let r = analyze(&a);
        assert_eq!(r.nnz, 5);
        assert!(r.symmetric);
        assert!(r.strictly_diagonally_dominant);
        assert!(r.nonzero_diagonal);
        assert!(!r.positive_diagonal);
        assert!(r.mixed_sign_diagonal);
        assert_eq!(r.gershgorin_definiteness, Definiteness::Indefinite);
        assert_eq!(r.bandwidth, 2);
        assert!(!r.certified_spd());
    }

    #[test]
    fn rectangular_matrices_are_never_symmetric_or_dominant() {
        let mut coo = CooMatrix::<f64>::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        let a = coo.to_csr();
        assert!(!symmetric_via_csc(&a));
        assert!(!strictly_diagonally_dominant(&a));
        assert_eq!(gershgorin_definiteness(&a), Definiteness::Unknown);
    }
}
