//! Sparse triangular solve (SpTRSV) and its level schedule.
//!
//! Forward/backward substitution over a sparse triangular factor is the
//! inner kernel of every incomplete-factorization preconditioner (DESIGN
//! §17). Unlike SpMV it carries a dependency chain: row `i` of a lower
//! triangle cannot start until every `x[j]` with `l_ij != 0, j < i` is
//! final. *Level scheduling* layers the row dependency DAG so that every
//! row of a level depends only on rows of strictly earlier levels; the
//! number of levels is the critical path of the solve.
//!
//! [`CompiledSptrsv`] mirrors the [`crate::compiled::CompiledSpmv`]
//! contract: it is **pattern-only** (no values captured), cheap to build
//! (one O(nnz) pass), and intended to be cached per pattern fingerprint
//! and shared across every matrix with the same structure — in particular
//! an IC(0) factor, whose pattern is by construction the triangle of the
//! matrix it was factored from.
//!
//! ## The schedule is a cost-model input, not an execution order
//!
//! The host executes substitution serially, rows in natural order
//! ([`CompiledSptrsv::solve`]): a row reads only entries that are final in
//! that order whatever the pattern, so the plan's levels cannot change the
//! answer. What the plan records — the triangle's entry count and the
//! width of every level — is what the fabric cycle model prices
//! (`tri_nnz + levels × PIPELINE_DEPTH`, DESIGN §17) and what the
//! benchmark's `sparse.sptrsv_*` rows report. Concurrency on the host
//! lives across solves (engine workers × service shards); a level-parallel
//! walk that spawned threads per level measured 186–494× slower than this
//! loop on poisson2d-40 (CHANGES.md, PR 15) and was removed.
//!
//! ## Determinism contract
//!
//! Within a row the accumulation walks the CSR entries left to right and
//! rows never share a partial sum, so
//! [`DeterminismPolicy::Deterministic`] is plain serial substitution,
//! bitwise reproducible. The `Fast` tier re-associates each row's
//! accumulation through [`Lanes4`] partial sums, trading bitwise
//! stability for within-row vectorization, mirroring the SpMV fast tier.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::simd::{DeterminismPolicy, Lanes4};

/// Which triangle of the matrix a plan solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Triangle {
    /// Forward substitution over the lower triangle (diagonal included).
    Lower,
    /// Backward substitution over the upper triangle (diagonal included).
    Upper,
}

impl Triangle {
    /// Human-readable label (`"lower"` / `"upper"`).
    pub fn label(self) -> &'static str {
        match self {
            Triangle::Lower => "lower",
            Triangle::Upper => "upper",
        }
    }
}

/// A compiled, pattern-only level schedule for sparse triangular solves.
///
/// Build once per sparsity pattern with [`CompiledSptrsv::compile_lower`]
/// or [`CompiledSptrsv::compile_upper`], then solve against any matrix
/// sharing that triangle's pattern — an incomplete factor with the
/// identical triangle, or the original matrix itself (its off-triangle
/// entries are ignored; like a factor's, its diagonal is read as
/// reciprocal pivots, see [`CompiledSptrsv::solve`]). A matrix of the
/// same size and a different pattern is still solved correctly; only the
/// recorded level statistics, and so the modeled cycle price, would
/// describe the wrong pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSptrsv {
    triangle: Triangle,
    nrows: usize,
    /// Number of structural entries inside the triangle, diagonal included.
    tri_nnz: usize,
    /// Rows in each topological level, first level (no dependencies) first.
    level_widths: Vec<u32>,
}

impl CompiledSptrsv {
    /// Compile a forward-substitution schedule from the lower triangle of
    /// `a`'s pattern.
    ///
    /// Entries above the diagonal are ignored, so a full symmetric matrix
    /// and its IC(0) `L` factor compile to the same plan.
    ///
    /// # Errors
    ///
    /// [`SparseError::NotSquare`] if `a` is not square, and
    /// [`SparseError::ZeroDiagonal`] if any row lacks a structural
    /// diagonal entry (the slot substitution reads the row's reciprocal
    /// pivot from).
    pub fn compile_lower<T: Scalar>(a: &CsrMatrix<T>) -> Result<Self, SparseError> {
        Self::compile(a, Triangle::Lower)
    }

    /// Compile a backward-substitution schedule from the upper triangle of
    /// `a`'s pattern. See [`CompiledSptrsv::compile_lower`].
    pub fn compile_upper<T: Scalar>(a: &CsrMatrix<T>) -> Result<Self, SparseError> {
        Self::compile(a, Triangle::Upper)
    }

    fn compile<T: Scalar>(a: &CsrMatrix<T>, triangle: Triangle) -> Result<Self, SparseError> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let n = a.nrows();
        // level[i] = 1 + max(level[j]) over this row's in-triangle
        // dependencies j; rows with no off-diagonal dependency sit at
        // level 0. Lower triangles resolve in ascending row order (every
        // dependency has a smaller index), upper in descending.
        let mut level = vec![0u32; n];
        let mut tri_nnz = 0usize;
        let rows: Box<dyn Iterator<Item = usize>> = match triangle {
            Triangle::Lower => Box::new(0..n),
            Triangle::Upper => Box::new((0..n).rev()),
        };
        for i in rows {
            let (cols, _) = a.row(i);
            let mut lvl = 0u32;
            let mut has_diag = false;
            for &c in cols {
                let in_triangle = match triangle {
                    Triangle::Lower => c <= i,
                    Triangle::Upper => c >= i,
                };
                if !in_triangle {
                    continue;
                }
                tri_nnz += 1;
                if c == i {
                    has_diag = true;
                } else {
                    lvl = lvl.max(level[c] + 1);
                }
            }
            if !has_diag {
                return Err(SparseError::ZeroDiagonal { row: i });
            }
            level[i] = lvl;
        }
        let nlevels = level.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
        let mut level_widths = vec![0u32; nlevels];
        for &l in &level {
            level_widths[l as usize] += 1;
        }
        Ok(Self {
            triangle,
            nrows: n,
            tri_nnz,
            level_widths,
        })
    }

    /// Which triangle this plan solves.
    pub fn triangle(&self) -> Triangle {
        self.triangle
    }

    /// Number of rows the plan was compiled for.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Structural entries inside the triangle, diagonal included.
    pub fn tri_nnz(&self) -> usize {
        self.tri_nnz
    }

    /// Number of topological levels (the critical-path length).
    pub fn level_count(&self) -> usize {
        self.level_widths.len()
    }

    /// Mean rows per level: the parallelism a level-synchronised pipeline
    /// would see on average.
    pub fn avg_level_width(&self) -> f64 {
        if self.level_count() == 0 {
            return 0.0;
        }
        self.nrows as f64 / self.level_count() as f64
    }

    /// Cheap provenance check: does `m` have the shape this plan was
    /// compiled for? Pattern equality is the caller's contract (plans are
    /// cached per pattern fingerprint); use
    /// [`CompiledSptrsv::verify_pattern`] for the O(nnz) audit.
    pub fn matches<T: Scalar>(&self, m: &CsrMatrix<T>) -> bool {
        m.nrows() == self.nrows && m.ncols() == self.nrows
    }

    /// O(nnz) audit that `m`'s triangle compiles to this plan: the same
    /// entry count and the same width at every level.
    pub fn verify_pattern<T: Scalar>(&self, m: &CsrMatrix<T>) -> bool {
        if !self.matches(m) {
            return false;
        }
        match Self::compile(m, self.triangle) {
            Ok(fresh) => fresh == *self,
            Err(_) => false,
        }
    }

    /// Solves `T x = b` by substitution, rows in natural order (ascending
    /// for a lower triangle, descending for an upper one), where `T` is
    /// `m`'s triangle with each diagonal entry *inverted*:
    /// `x_i = (b_i − Σ_{c≠i} m_ic x_c) · m_ii`.
    ///
    /// A triangular operand stores its **reciprocal pivot** `1 / t_ii` in
    /// the diagonal slot — the form an incomplete factor is filled in
    /// ([`crate::Ic0Schedule::fill`]) — so a row ends in a multiply and
    /// the divide stays off the row-to-row chain. A row with no stored
    /// diagonal reads it as 0, like any absent entry — an infinite pivot —
    /// so its unknown comes out 0.
    ///
    /// Entries of `m` outside the plan's triangle are skipped, so passing
    /// the full matrix solves against its triangle implicitly. Under
    /// [`DeterminismPolicy::Deterministic`] each row accumulates in CSR
    /// entry order (the serial reference, bitwise reproducible); under
    /// [`DeterminismPolicy::Fast`] each row's products are summed through
    /// four lanes, so results may differ in the last ulps. Allocation-free.
    ///
    /// # Errors
    ///
    /// [`SparseError::NotSquare`] if `m` is not square, and
    /// [`SparseError::DimensionMismatch`] if `m`, `b` or `x` disagree with
    /// the plan's row count.
    pub fn solve<T: Scalar>(
        &self,
        policy: DeterminismPolicy,
        m: &CsrMatrix<T>,
        b: &[T],
        x: &mut [T],
    ) -> Result<(), SparseError> {
        self.check_operands(m, b, x)?;
        if policy.is_fast() {
            self.substitute::<T, true>(m, b, x);
        } else {
            self.substitute::<T, false>(m, b, x);
        }
        Ok(())
    }

    fn check_operands<T: Scalar>(
        &self,
        m: &CsrMatrix<T>,
        b: &[T],
        x: &[T],
    ) -> Result<(), SparseError> {
        if m.nrows() != m.ncols() {
            return Err(SparseError::NotSquare {
                nrows: m.nrows(),
                ncols: m.ncols(),
            });
        }
        if m.nrows() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                expected: self.nrows,
                found: m.nrows(),
                what: "matrix rows",
            });
        }
        if b.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                expected: self.nrows,
                found: b.len(),
                what: "right-hand side length",
            });
        }
        if x.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                expected: self.nrows,
                found: x.len(),
                what: "solution length",
            });
        }
        Ok(())
    }

    fn substitute<T: Scalar, const FAST: bool>(&self, m: &CsrMatrix<T>, b: &[T], x: &mut [T]) {
        // Each arm names its triangle as a literal so the row kernels'
        // per-entry triangle test specialises to one comparison.
        match self.triangle {
            Triangle::Lower => {
                for i in 0..self.nrows {
                    x[i] = Self::row_solve::<T, FAST>(m, i, b[i], x, Triangle::Lower);
                }
            }
            Triangle::Upper => {
                for i in (0..self.nrows).rev() {
                    x[i] = Self::row_solve::<T, FAST>(m, i, b[i], x, Triangle::Upper);
                }
            }
        }
    }

    /// One row of substitution: `(b_i − Σ m_ic x_c) · m_ii` over the row's
    /// in-triangle entries `c ≠ i`, `m_ii` being the reciprocal pivot.
    ///
    /// A triangular operand — an incomplete factor — keeps its diagonal at
    /// the end of the row its triangle closes on (a lower row's last
    /// column is `i`, an upper row's first), and a sorted row that does is
    /// wholly in-triangle: one test per row finds it, and its other
    /// entries accumulate with no test per entry. Any other row (a full
    /// symmetric operand, a missing diagonal) tests each entry against the
    /// triangle and the diagonal. Both visit the same entries in the same
    /// order, so they agree bitwise on either tier.
    #[inline]
    fn row_solve<T: Scalar, const FAST: bool>(
        m: &CsrMatrix<T>,
        i: usize,
        bi: T,
        x: &[T],
        tri: Triangle,
    ) -> T {
        let (cols, vals) = m.row(i);
        let split = match tri {
            Triangle::Lower => cols.split_last().zip(vals.split_last()),
            Triangle::Upper => cols.split_first().zip(vals.split_first()),
        };
        if let Some(((&c, cols), (&diag, vals))) = split {
            if c == i {
                let others = cols.iter().zip(vals).map(|(&c, &v)| v * x[c]);
                return Self::subtract_all::<T, FAST>(bi, others) * diag;
            }
        }
        let mut diag = T::ZERO;
        let others = cols.iter().zip(vals).filter_map(|(&c, &v)| {
            let in_triangle = match tri {
                Triangle::Lower => c <= i,
                Triangle::Upper => c >= i,
            };
            if in_triangle && c == i {
                diag = v;
            }
            (in_triangle && c != i).then(|| v * x[c])
        });
        Self::subtract_all::<T, FAST>(bi, others) * diag
    }

    /// `bi` minus every product, in the tier's order: one scalar chain in
    /// arrival order, or (fast) four lanes filled in arrival order and
    /// reduced once — the SpMV fast tier's re-association contract.
    #[inline]
    fn subtract_all<T: Scalar, const FAST: bool>(bi: T, products: impl Iterator<Item = T>) -> T {
        if !FAST {
            return products.fold(bi, |acc, p| acc - p);
        }
        let mut lanes = Lanes4::zero();
        let mut buf = [T::ZERO; 4];
        let mut fill = 0usize;
        for p in products {
            buf[fill] = p;
            fill += 1;
            if fill == 4 {
                lanes = lanes.add(Lanes4::new(buf));
                buf = [T::ZERO; 4];
                fill = 0;
            }
        }
        if fill > 0 {
            lanes = lanes.add(Lanes4::new(buf));
        }
        bi - lanes.reduce()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::rng::DetRng;

    /// Random sparse lower-triangular matrix with safe pivots (2..3),
    /// stored as their reciprocals.
    fn random_lower(n: usize, seed: u64) -> CsrMatrix<f64> {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut coo = crate::CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..i {
                if rng.gen_bool(0.2) {
                    coo.push(i, j, rng.gen_f64() * 2.0 - 1.0).unwrap();
                }
            }
            coo.push(i, i, 1.0 / (2.0 + rng.gen_f64())).unwrap();
        }
        coo.to_csr()
    }

    /// `m` with each diagonal value `d` replaced by `1 / d`: the matrix a
    /// solve against `m` inverts, whose diagonal slots are read as
    /// reciprocal pivots.
    fn with_pivots(m: &CsrMatrix<f64>) -> CsrMatrix<f64> {
        let mut t = m.clone();
        let row_of: Vec<usize> = (0..m.nrows())
            .flat_map(|i| std::iter::repeat(i).take(m.row_nnz(i)))
            .collect();
        let entries = t.values_mut().iter_mut().zip(m.col_idx()).zip(&row_of);
        for ((v, &c), &i) in entries {
            if c == i {
                *v = 1.0 / *v;
            }
        }
        t
    }

    #[test]
    fn lower_solve_matches_dense_reference() {
        let l = random_lower(40, 7);
        let plan = CompiledSptrsv::compile_lower(&l).unwrap();
        let b: Vec<f64> = (0..40).map(|i| (i as f64).sin() + 2.0).collect();
        let mut x = vec![0.0; 40];
        plan.solve(DeterminismPolicy::Deterministic, &l, &b, &mut x)
            .unwrap();
        // L x should reproduce b, L's pivots the inverses of the slots.
        let mut back = vec![0.0; 40];
        with_pivots(&l).mul_vec_into(&x, &mut back).unwrap();
        for (bi, ri) in b.iter().zip(&back) {
            assert!((bi - ri).abs() < 1e-10, "{bi} vs {ri}");
        }
    }

    #[test]
    fn upper_solve_round_trips_through_transpose() {
        let l = random_lower(32, 11);
        let u = l.transpose();
        let plan = CompiledSptrsv::compile_upper(&u).unwrap();
        let b: Vec<f64> = (0..32).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut x = vec![0.0; 32];
        plan.solve(DeterminismPolicy::Deterministic, &u, &b, &mut x)
            .unwrap();
        let mut back = vec![0.0; 32];
        with_pivots(&u).mul_vec_into(&x, &mut back).unwrap();
        for (bi, ri) in b.iter().zip(&back) {
            assert!((bi - ri).abs() < 1e-10);
        }
    }

    #[test]
    fn full_matrix_solves_its_own_lower_triangle() {
        // Passing a full symmetric matrix ignores the upper entries — the
        // Gauss-Seidel/IC(0) sharing contract.
        let a = generate::poisson2d::<f64>(8, 8);
        let plan = CompiledSptrsv::compile_lower(&a).unwrap();
        let n = a.nrows();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        plan.solve(DeterminismPolicy::Deterministic, &a, &b, &mut x)
            .unwrap();
        // Verify against explicit tril(A) substitution, `a_ii` read as
        // the reciprocal pivot.
        for (i, &bi) in b.iter().enumerate() {
            let (cols, vals) = a.row(i);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c < i {
                    acc += v * x[c];
                } else if c == i {
                    acc += x[c] / v;
                }
            }
            assert!((acc - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn poisson_levels_match_grid_wavefronts() {
        // 5-point 2D Poisson lower triangle: level(i) is the Manhattan
        // wavefront index, so an nx-by-ny grid has nx + ny - 1 levels.
        let a = generate::poisson2d::<f64>(6, 9);
        let plan = CompiledSptrsv::compile_lower(&a).unwrap();
        assert_eq!(plan.level_count(), 6 + 9 - 1);
        assert_eq!(plan.nrows(), 54);
        assert!(plan.avg_level_width() > 1.0);
    }

    #[test]
    fn missing_diagonal_is_rejected() {
        let mut coo = crate::CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap(); // no (1, 1) entry
        coo.push(2, 2, 1.0).unwrap();
        let m = coo.to_csr();
        match CompiledSptrsv::compile_lower(&m) {
            Err(SparseError::ZeroDiagonal { row }) => assert_eq!(row, 1),
            other => panic!("expected ZeroDiagonal, got {other:?}"),
        }
    }

    #[test]
    fn fast_tier_stays_close_to_reference() {
        let l = random_lower(64, 23);
        let plan = CompiledSptrsv::compile_lower(&l).unwrap();
        let b: Vec<f64> = (0..64).map(|i| (i as f64 * 0.61).sin()).collect();
        let mut reference = vec![0.0; 64];
        plan.solve(DeterminismPolicy::Deterministic, &l, &b, &mut reference)
            .unwrap();
        let mut fast = vec![0.0; 64];
        plan.solve(DeterminismPolicy::Fast, &l, &b, &mut fast)
            .unwrap();
        for (r, f) in reference.iter().zip(&fast) {
            assert!((r - f).abs() <= 1e-9 * (1.0 + r.abs()));
        }
    }

    #[test]
    fn verify_pattern_audits_provenance() {
        let l = random_lower(24, 5);
        let plan = CompiledSptrsv::compile_lower(&l).unwrap();
        assert!(plan.verify_pattern(&l));
        let other = random_lower(24, 6);
        assert!(!plan.verify_pattern(&other) || other.nnz() == l.nnz());
        let smaller = random_lower(12, 5);
        assert!(!plan.matches(&smaller));
    }

    #[test]
    fn wrong_sized_square_operand_is_a_dimension_mismatch() {
        let plan = CompiledSptrsv::compile_lower(&random_lower(24, 5)).unwrap();
        let smaller = random_lower(12, 5);
        let (b, mut x) = (vec![1.0; 24], vec![0.0; 24]);
        for policy in DeterminismPolicy::ALL {
            match plan.solve(policy, &smaller, &b, &mut x) {
                Err(SparseError::DimensionMismatch {
                    expected: 24,
                    found: 12,
                    what: "matrix rows",
                }) => {}
                other => panic!("expected DimensionMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_square_operand_is_not_square() {
        let plan = CompiledSptrsv::compile_lower(&random_lower(24, 5)).unwrap();
        let wide = CsrMatrix::<f64>::try_from_parts(24, 30, vec![0; 25], vec![], vec![]).unwrap();
        let (b, mut x) = (vec![1.0; 24], vec![0.0; 24]);
        match plan.solve(DeterminismPolicy::Deterministic, &wide, &b, &mut x) {
            Err(SparseError::NotSquare {
                nrows: 24,
                ncols: 30,
            }) => {}
            other => panic!("expected NotSquare, got {other:?}"),
        }
    }
}
