//! Level-scheduled sparse triangular solve (SpTRSV).
//!
//! Forward/backward substitution over a sparse triangular factor is the
//! inner kernel of every incomplete-factorization preconditioner (DESIGN
//! §17). Unlike SpMV it carries a dependency chain: row `i` of a lower
//! triangle cannot start until every `x[j]` with `l_ij != 0, j < i` is
//! final. The classic way to expose parallelism anyway is *level
//! scheduling*: a topological layering of the row dependency DAG in which
//! every row of a level depends only on rows of strictly earlier levels,
//! so all rows within one level solve concurrently.
//!
//! [`CompiledSptrsv`] mirrors the [`crate::compiled::CompiledSpmv`]
//! contract: it is **pattern-only** (no values captured), cheap to build
//! (one O(nnz) pass), and intended to be cached per pattern fingerprint
//! and shared across every matrix with the same structure — in particular
//! an IC(0)/ILU(0) factor, whose pattern is by construction the triangle
//! of the matrix it was factored from.
//!
//! ## Determinism contract
//!
//! Within a row the accumulation walks the CSR entries left to right,
//! exactly like the serial reference, and rows never share a partial sum.
//! Level-scheduled execution under
//! [`DeterminismPolicy::Deterministic`](crate::DeterminismPolicy) is
//! therefore **bitwise identical** to serial forward substitution at any
//! worker count — the property `tests/properties.rs` locks down. The
//! `Fast` tier re-associates each row's accumulation through
//! [`Lanes4`] partial sums, trading bitwise
//! stability for within-row vectorization, mirroring the SpMV fast tier.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::simd::Lanes4;

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
/// or [`CompiledSptrsv::compile_upper`], then execute against any matrix
/// sharing that triangle's pattern — the original matrix itself (its
/// off-triangle entries are ignored) or an incomplete factor with the
/// identical triangle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSptrsv {
    triangle: Triangle,
    nrows: usize,
    /// Number of structural entries inside the triangle, diagonal included.
    tri_nnz: usize,
    /// Row indices grouped by level; rows within a level are ascending.
    order: Vec<u32>,
    /// CSR-style offsets into `order`: level `l` spans
    /// `order[level_ptr[l]..level_ptr[l + 1]]`.
    level_ptr: Vec<u32>,
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
    /// diagonal entry (substitution needs to divide by it).
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
        // Counting sort of rows by level keeps rows ascending within each
        // level, which downstream chunking relies on for reproducibility.
        let mut level_ptr = vec![0u32; nlevels + 1];
        for &l in &level {
            level_ptr[l as usize + 1] += 1;
        }
        for l in 0..nlevels {
            level_ptr[l + 1] += level_ptr[l];
        }
        let mut cursor: Vec<u32> = level_ptr[..nlevels].to_vec();
        let mut order = vec![0u32; n];
        for (i, &l) in level.iter().enumerate() {
            order[cursor[l as usize] as usize] = i as u32;
            cursor[l as usize] += 1;
        }
        Ok(Self {
            triangle,
            nrows: n,
            tri_nnz,
            order,
            level_ptr,
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
        self.level_ptr.len() - 1
    }

    /// Width (row count) of the widest level — the scratch size
    /// [`CompiledSptrsv::execute`] needs and the upper bound on usable
    /// parallelism.
    pub fn max_level_width(&self) -> usize {
        self.level_ptr
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Mean rows per level; `nrows / level_count` parallelism on average.
    pub fn avg_level_width(&self) -> f64 {
        if self.level_count() == 0 {
            return 0.0;
        }
        self.nrows as f64 / self.level_count() as f64
    }

    /// Cheap provenance check: does `m` have the shape this plan was
    /// compiled for? Pattern equality is the caller's contract (plans are
    /// cached per pattern fingerprint); use
    /// [`CompiledSptrsv::verify_pattern`] for the full O(nnz) audit.
    pub fn matches<T: Scalar>(&self, m: &CsrMatrix<T>) -> bool {
        m.nrows() == self.nrows && m.ncols() == self.nrows
    }

    /// Full O(nnz) audit that `m`'s triangle pattern is the one compiled.
    pub fn verify_pattern<T: Scalar>(&self, m: &CsrMatrix<T>) -> bool {
        if !self.matches(m) {
            return false;
        }
        match Self::compile(m, self.triangle) {
            Ok(fresh) => fresh == *self,
            Err(_) => false,
        }
    }

    /// Serial substitution in natural row order — the bitwise reference
    /// the level-scheduled paths are validated against.
    ///
    /// Entries of `m` outside the plan's triangle are skipped, so passing
    /// the full matrix solves against its triangle implicitly.
    ///
    /// # Errors
    ///
    /// [`SparseError::DimensionMismatch`] if `b`/`x` disagree with the
    /// plan's row count, [`SparseError::NotSquare`] if `m` does not match
    /// the compiled shape.
    pub fn solve_serial<T: Scalar>(
        &self,
        m: &CsrMatrix<T>,
        b: &[T],
        x: &mut [T],
    ) -> Result<(), SparseError> {
        self.check_operands(m, b, x)?;
        match self.triangle {
            Triangle::Lower => {
                for i in 0..self.nrows {
                    x[i] = Self::row_solve_deterministic(m, i, b[i], x, self.triangle);
                }
            }
            Triangle::Upper => {
                for i in (0..self.nrows).rev() {
                    x[i] = Self::row_solve_deterministic(m, i, b[i], x, self.triangle);
                }
            }
        }
        Ok(())
    }

    /// Level-scheduled deterministic solve.
    ///
    /// `scratch` must hold at least [`CompiledSptrsv::max_level_width`]
    /// elements; each level's results are computed into per-worker
    /// disjoint scratch chunks and scattered back serially, so the result
    /// is bitwise identical to [`CompiledSptrsv::solve_serial`] at any
    /// `workers >= 1`.
    ///
    /// # Errors
    ///
    /// As [`CompiledSptrsv::solve_serial`], plus
    /// [`SparseError::DimensionMismatch`] when `scratch` is too small.
    pub fn execute<T: Scalar>(
        &self,
        m: &CsrMatrix<T>,
        b: &[T],
        x: &mut [T],
        workers: usize,
        scratch: &mut [T],
    ) -> Result<(), SparseError> {
        self.execute_inner(m, b, x, workers, scratch, false)
    }

    /// Level-scheduled solve with `Lanes4` within-row accumulation (the
    /// `Fast` determinism tier). Re-associates each row's partial sums,
    /// so results may differ from the reference in the last ulps; still
    /// deterministic for a fixed build, input, and plan.
    ///
    /// # Errors
    ///
    /// As [`CompiledSptrsv::execute`].
    pub fn execute_fast<T: Scalar>(
        &self,
        m: &CsrMatrix<T>,
        b: &[T],
        x: &mut [T],
        workers: usize,
        scratch: &mut [T],
    ) -> Result<(), SparseError> {
        self.execute_inner(m, b, x, workers, scratch, true)
    }

    /// Convenience wrapper over [`CompiledSptrsv::execute`] that owns its
    /// scratch. Prefer `execute` with a pooled buffer in warm loops.
    ///
    /// # Errors
    ///
    /// As [`CompiledSptrsv::execute`].
    pub fn solve<T: Scalar>(
        &self,
        m: &CsrMatrix<T>,
        b: &[T],
        x: &mut [T],
        workers: usize,
    ) -> Result<(), SparseError> {
        let mut scratch = vec![T::ZERO; self.max_level_width()];
        self.execute(m, b, x, workers, &mut scratch)
    }

    fn check_operands<T: Scalar>(
        &self,
        m: &CsrMatrix<T>,
        b: &[T],
        x: &[T],
    ) -> Result<(), SparseError> {
        if !self.matches(m) {
            return Err(SparseError::NotSquare {
                nrows: m.nrows(),
                ncols: m.ncols(),
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

    fn execute_inner<T: Scalar>(
        &self,
        m: &CsrMatrix<T>,
        b: &[T],
        x: &mut [T],
        workers: usize,
        scratch: &mut [T],
        fast: bool,
    ) -> Result<(), SparseError> {
        self.check_operands(m, b, x)?;
        let width_needed = self.max_level_width();
        if scratch.len() < width_needed {
            return Err(SparseError::DimensionMismatch {
                expected: width_needed,
                found: scratch.len(),
                what: "sptrsv scratch length",
            });
        }
        let workers = workers.max(1);
        for l in 0..self.level_count() {
            let rows = &self.order[self.level_ptr[l] as usize..self.level_ptr[l + 1] as usize];
            let width = rows.len();
            if workers == 1 || width < 2 * workers {
                // Narrow level (or serial caller): solve in place — each
                // row only reads x entries from earlier levels.
                for &i in rows {
                    let i = i as usize;
                    x[i] = Self::row_solve(m, i, b[i], x, self.triangle, fast);
                }
                continue;
            }
            // Wide level: chunk the level's row list contiguously across
            // workers. Each worker reads `x` immutably (entries final
            // since earlier levels) and writes its disjoint scratch
            // chunk; the serial scatter below keeps all mutation of `x`
            // on this thread, so the whole scheme is safe Rust and
            // bitwise independent of the worker count.
            let scratch = &mut scratch[..width];
            let chunk = width.div_ceil(workers);
            let x_ro: &[T] = x;
            std::thread::scope(|scope| {
                let mut remaining = &mut scratch[..];
                let mut offset = 0usize;
                while offset < width {
                    let take = chunk.min(width - offset);
                    let (mine, rest) = remaining.split_at_mut(take);
                    remaining = rest;
                    let rows = &rows[offset..offset + take];
                    let triangle = self.triangle;
                    scope.spawn(move || {
                        for (slot, &i) in mine.iter_mut().zip(rows) {
                            let i = i as usize;
                            *slot = Self::row_solve(m, i, b[i], x_ro, triangle, fast);
                        }
                    });
                    offset += take;
                }
            });
            for (&i, &v) in rows.iter().zip(scratch.iter()) {
                x[i as usize] = v;
            }
        }
        Ok(())
    }

    #[inline]
    fn row_solve<T: Scalar>(
        m: &CsrMatrix<T>,
        i: usize,
        bi: T,
        x: &[T],
        tri: Triangle,
        fast: bool,
    ) -> T {
        if fast {
            Self::row_solve_fast(m, i, bi, x, tri)
        } else {
            Self::row_solve_deterministic(m, i, bi, x, tri)
        }
    }

    /// One row of substitution, CSR entry order, scalar accumulation —
    /// identical arithmetic in the serial reference and every
    /// deterministic level-scheduled chunk.
    #[inline]
    fn row_solve_deterministic<T: Scalar>(
        m: &CsrMatrix<T>,
        i: usize,
        bi: T,
        x: &[T],
        tri: Triangle,
    ) -> T {
        let (cols, vals) = m.row(i);
        let mut acc = bi;
        let mut diag = T::ZERO;
        for (&c, &v) in cols.iter().zip(vals) {
            let in_triangle = match tri {
                Triangle::Lower => c <= i,
                Triangle::Upper => c >= i,
            };
            if !in_triangle {
                continue;
            }
            if c == i {
                diag = v;
            } else {
                acc -= v * x[c];
            }
        }
        acc / diag
    }

    /// Fast-tier row substitution: gather the in-triangle off-diagonal
    /// products into four lanes, reduce once. Matches the SpMV fast
    /// tier's re-association contract.
    #[inline]
    fn row_solve_fast<T: Scalar>(m: &CsrMatrix<T>, i: usize, bi: T, x: &[T], tri: Triangle) -> T {
        let (cols, vals) = m.row(i);
        let mut lanes = Lanes4::zero();
        let mut buf = [T::ZERO; 4];
        let mut fill = 0usize;
        let mut diag = T::ZERO;
        for (&c, &v) in cols.iter().zip(vals) {
            let in_triangle = match tri {
                Triangle::Lower => c <= i,
                Triangle::Upper => c >= i,
            };
            if !in_triangle {
                continue;
            }
            if c == i {
                diag = v;
                continue;
            }
            buf[fill] = v * x[c];
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
        (bi - lanes.reduce()) / diag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::rng::DetRng;

    /// Random sparse unit-ish lower-triangular matrix with a safe diagonal.
    fn random_lower(n: usize, seed: u64) -> CsrMatrix<f64> {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut coo = crate::CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..i {
                if rng.gen_bool(0.2) {
                    coo.push(i, j, rng.gen_f64() * 2.0 - 1.0).unwrap();
                }
            }
            coo.push(i, i, 2.0 + rng.gen_f64()).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn lower_solve_matches_dense_reference() {
        let l = random_lower(40, 7);
        let plan = CompiledSptrsv::compile_lower(&l).unwrap();
        let b: Vec<f64> = (0..40).map(|i| (i as f64).sin() + 2.0).collect();
        let mut x = vec![0.0; 40];
        plan.solve_serial(&l, &b, &mut x).unwrap();
        // L x should reproduce b.
        let mut back = vec![0.0; 40];
        l.mul_vec_into(&x, &mut back).unwrap();
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
        plan.solve_serial(&u, &b, &mut x).unwrap();
        let mut back = vec![0.0; 32];
        u.mul_vec_into(&x, &mut back).unwrap();
        for (bi, ri) in b.iter().zip(&back) {
            assert!((bi - ri).abs() < 1e-10);
        }
    }

    #[test]
    fn level_scheduled_is_bitwise_identical_to_serial() {
        for seed in [1u64, 2, 3] {
            let l = random_lower(96, seed);
            let plan = CompiledSptrsv::compile_lower(&l).unwrap();
            let b: Vec<f64> = (0..96).map(|i| (i as f64 * 0.37).cos()).collect();
            let mut reference = vec![0.0; 96];
            plan.solve_serial(&l, &b, &mut reference).unwrap();
            for workers in [1usize, 2, 4, 8] {
                let mut x = vec![0.0; 96];
                plan.solve(&l, &b, &mut x, workers).unwrap();
                assert_eq!(
                    x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "workers={workers} seed={seed}"
                );
            }
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
        plan.solve_serial(&a, &b, &mut x).unwrap();
        // Verify against explicit tril(A) substitution.
        for (i, &bi) in b.iter().enumerate() {
            let (cols, vals) = a.row(i);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c <= i {
                    acc += v * x[c];
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
        assert!(plan.max_level_width() <= 6);
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
        plan.solve_serial(&l, &b, &mut reference).unwrap();
        let mut fast = vec![0.0; 64];
        let mut scratch = vec![0.0; plan.max_level_width()];
        plan.execute_fast(&l, &b, &mut fast, 4, &mut scratch)
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
    fn scratch_too_small_is_rejected() {
        let a = generate::poisson2d::<f64>(8, 8);
        let plan = CompiledSptrsv::compile_lower(&a).unwrap();
        let b = vec![1.0; 64];
        let mut x = vec![0.0; 64];
        let mut scratch = vec![0.0; 1];
        if plan.max_level_width() > 1 {
            assert!(matches!(
                plan.execute(&a, &b, &mut x, 4, &mut scratch),
                Err(SparseError::DimensionMismatch { .. })
            ));
        }
    }
}
