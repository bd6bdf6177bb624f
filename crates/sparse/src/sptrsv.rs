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
//! (two O(nnz) passes), and intended to be cached per pattern fingerprint
//! and shared across every matrix with the same structure — in particular
//! an IC(0) factor, whose pattern is by construction the triangle of the
//! matrix it was factored from.
//!
//! ## The schedule is the execution order
//!
//! The plan stores the triangle **level by level**: its rows sorted by
//! level, ties by row index, and each row's off-diagonal columns (natural
//! numbering, `u32`) in the row's stored order. A triangle's values are
//! laid out the same way once — a [`LevelOrdered`] operand, filled by
//! [`CompiledSptrsv::layout`] or straight by
//! [`crate::Ic0Schedule::fill`] — and [`CompiledSptrsv::solve`] walks the
//! rows in that order. Every row still does exactly the natural walk's
//! operations in its order, so the answer is bitwise the same; what
//! changes is that consecutive rows of a level are independent, so the
//! CPU overlaps their multiply → subtract → multiply chains instead of
//! waiting on each in turn. `b` and `x` stay in natural order.
//!
//! The same levels are what the fabric cycle model prices
//! (`tri_nnz + levels × PIPELINE_DEPTH`, DESIGN §7, §9) and what the
//! benchmark's `sparse.sptrsv_*` rows report. Concurrency across threads
//! lives across solves (engine workers × service shards); a level-parallel
//! walk that spawned threads per level measured 186–494× slower than a
//! one-thread loop on poisson2d-40 (CHANGES.md) and was removed.
//!
//! ## Determinism contract
//!
//! Within a row the accumulation walks the stored entries left to right
//! and rows never share a partial sum, so
//! [`DeterminismPolicy::Deterministic`] is plain serial substitution,
//! bitwise reproducible in any topological row order. The `Fast` tier
//! re-associates each row's accumulation through [`Lanes4`] partial sums,
//! trading bitwise stability for within-row vectorization, mirroring the
//! SpMV fast tier.

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

    /// Whether column `c` of row `i` is a dependency: inside the triangle
    /// and off the diagonal.
    #[inline]
    fn depends(self, i: usize, c: usize) -> bool {
        match self {
            Triangle::Lower => c < i,
            Triangle::Upper => c > i,
        }
    }
}

/// A compiled, pattern-only level schedule for sparse triangular solves.
///
/// Build once per sparsity pattern with [`CompiledSptrsv::compile_lower`]
/// or [`CompiledSptrsv::compile_upper`], lay out the values of any matrix
/// sharing that triangle's pattern with [`CompiledSptrsv::layout`] — an
/// incomplete factor with the identical triangle, or the original matrix
/// itself (its off-triangle entries are ignored; like a factor's, its
/// diagonal is read as reciprocal pivots, see [`CompiledSptrsv::solve`])
/// — and solve against the layout as often as needed. The plan is a pure
/// function of the triangle's pattern, so a full symmetric matrix and its
/// IC(0) factor compile to equal plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSptrsv {
    triangle: Triangle,
    nrows: usize,
    /// Number of structural entries inside the triangle, diagonal included.
    tri_nnz: usize,
    /// Rows in each topological level, first level (no dependencies) first.
    level_widths: Vec<u32>,
    /// The rows in level order: by level, ties by row index.
    order: Vec<u32>,
    /// Per level-ordered row, where its dependencies start in `cols`
    /// (`nrows + 1` offsets).
    offsets: Vec<u32>,
    /// Each level-ordered row's off-diagonal in-triangle columns, in the
    /// row's stored order, natural numbering.
    cols: Vec<u32>,
}

/// A triangle's values laid out in its plan's level order: each
/// level-ordered row's off-diagonal values in the row's stored order (the
/// plan's columns), then every row's diagonal slot — its reciprocal pivot
/// — in level order. The operand of [`CompiledSptrsv::solve`]; the
/// pattern it is read against is the plan's.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelOrdered<T> {
    nrows: usize,
    values: Vec<T>,
}

impl<T> LevelOrdered<T> {
    /// Wraps values already in `plan`'s layout (`plan.tri_nnz()` of them;
    /// see [`LevelOrdered`]).
    ///
    /// # Errors
    ///
    /// [`SparseError::DimensionMismatch`] if `values` is not
    /// `plan.tri_nnz()` long.
    pub fn from_values(plan: &CompiledSptrsv, values: Vec<T>) -> Result<Self, SparseError> {
        if values.len() != plan.tri_nnz {
            return Err(SparseError::DimensionMismatch {
                expected: plan.tri_nnz,
                found: values.len(),
                what: "operand entries",
            });
        }
        Ok(LevelOrdered {
            nrows: plan.nrows,
            values,
        })
    }

    /// Gives up the value buffer.
    pub fn into_values(self) -> Vec<T> {
        self.values
    }
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
    /// [`SparseError::NotSquare`] if `a` is not square,
    /// [`SparseError::ZeroDiagonal`] if any row lacks a structural
    /// diagonal entry (the slot substitution reads the row's reciprocal
    /// pivot from), and [`SparseError::IndexOutOfBounds`] for a pattern of
    /// 2³² − 1 entries or more (the plan keeps `u32` indices).
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
        if a.nnz() >= u32::MAX as usize {
            return Err(SparseError::IndexOutOfBounds {
                index: a.nnz(),
                bound: u32::MAX as usize,
                axis: "SpTRSV plan entry",
            });
        }
        let n = a.nrows();
        let depends = |i: usize| a.row(i).0.iter().filter(move |&&c| triangle.depends(i, c));
        // level[i] = 1 + max(level[j]) over this row's in-triangle
        // dependencies j; rows with no off-diagonal dependency sit at
        // level 0. Lower triangles resolve in ascending row order (every
        // dependency has a smaller index), upper in descending.
        let mut level = vec![0u32; n];
        let mut deps = vec![0u32; n];
        let mut resolve = |i: usize| {
            let (mut lvl, mut count, mut has_diag) = (0u32, 0u32, false);
            for &c in a.row(i).0 {
                if c == i {
                    has_diag = true;
                } else if triangle.depends(i, c) {
                    lvl = lvl.max(level[c] + 1);
                    count += 1;
                }
            }
            (level[i], deps[i]) = (lvl, count);
            if has_diag {
                Ok(())
            } else {
                Err(SparseError::ZeroDiagonal { row: i })
            }
        };
        match triangle {
            Triangle::Lower => (0..n).try_for_each(&mut resolve)?,
            Triangle::Upper => (0..n).rev().try_for_each(&mut resolve)?,
        }
        let (mut plan, position) = Self::with_levels(triangle, &level, &deps);
        // Rows read in storage order, each written to its span.
        for (i, &k) in position.iter().enumerate() {
            for (slot, &c) in plan.span(k as usize).zip(depends(i)) {
                plan.cols[slot] = c as u32;
            }
        }
        debug_assert!(
            plan.walks_by_level(&level),
            "SpTRSV order reads an unknown early"
        );
        Ok(plan)
    }

    /// The plan of a `triangle` whose row `i` sits at `level[i]` and has
    /// `deps[i]` dependencies: the rows in level order, ties by row index,
    /// and each one's span, with the dependency columns left for the
    /// caller to write ([`CompiledSptrsv::cols_mut`]); and beside it each
    /// row's position in the order.
    pub(crate) fn with_levels(triangle: Triangle, level: &[u32], deps: &[u32]) -> (Self, Vec<u32>) {
        let n = level.len();
        let nlevels = level.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
        let mut level_widths = vec![0u32; nlevels];
        for &l in level {
            level_widths[l as usize] += 1;
        }
        // Counting sort by level; ascending rows keep ties in row order.
        let mut next = level_widths.clone();
        let mut start = 0u32;
        for slot in &mut next {
            (*slot, start) = (start, start + *slot);
        }
        let mut position = vec![0u32; n];
        let mut order = vec![0u32; n];
        for (i, &l) in level.iter().enumerate() {
            let at = &mut next[l as usize];
            (position[i], order[*at as usize]) = (*at, i as u32);
            *at += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut end = 0u32;
        offsets.push(end);
        offsets.extend(order.iter().map(|&i| {
            end += deps[i as usize];
            end
        }));
        let plan = Self {
            triangle,
            nrows: n,
            tri_nnz: end as usize + n,
            level_widths,
            order,
            offsets,
            cols: vec![0; end as usize],
        };
        (plan, position)
    }

    /// Audit for debug builds, against each row's `level`: the order visits
    /// every row once, by level and then by row, and each row's
    /// dependencies sit at lower levels — so the walk reads only final
    /// unknowns.
    pub(crate) fn walks_by_level(&self, level: &[u32]) -> bool {
        let key = |k: usize| (level[self.order[k] as usize], self.order[k]);
        let sorted = (1..self.nrows).all(|k| key(k - 1) < key(k));
        let deps_first = (0..self.nrows).all(|k| {
            let row_level = level[self.order[k] as usize];
            self.cols[self.span(k)]
                .iter()
                .all(|&c| level[c as usize] < row_level)
        });
        sorted && deps_first
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

    /// Mean rows per level: the rows a level offers to overlap, on average.
    pub fn avg_level_width(&self) -> f64 {
        if self.level_count() == 0 {
            return 0.0;
        }
        self.nrows as f64 / self.level_count() as f64
    }

    /// The rows in the order [`CompiledSptrsv::solve`] visits them: by
    /// level, ties by row index.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Bytes the plan keeps alive: the level widths, the order, the row
    /// offsets and the dependency columns, four bytes each.
    pub fn retained_bytes(&self) -> usize {
        4 * (self.level_widths.len() + self.order.len() + self.offsets.len() + self.cols.len())
    }

    /// Level-ordered row `k`'s span in the dependency columns and in a
    /// [`LevelOrdered`] operand's off-diagonal values.
    #[inline]
    pub(crate) fn span(&self, k: usize) -> std::ops::Range<usize> {
        self.offsets[k] as usize..self.offsets[k + 1] as usize
    }

    /// Level-ordered row `k`'s slots in a [`LevelOrdered`] operand, in the
    /// order its entries are stored in natural CSR: a lower row closes on
    /// its diagonal, an upper row opens on it.
    pub(crate) fn row_slots(&self, k: usize) -> impl Iterator<Item = usize> {
        let diag = Some(self.pivots_at() + k);
        let (opens, closes) = match self.triangle {
            Triangle::Lower => (None, diag),
            Triangle::Upper => (diag, None),
        };
        opens.into_iter().chain(self.span(k)).chain(closes)
    }

    /// The dependency columns, level-ordered rows one after the other.
    pub(crate) fn cols(&self) -> &[u32] {
        &self.cols
    }

    /// The dependency columns, for a builder that fills the spans of
    /// [`CompiledSptrsv::with_levels`].
    pub(crate) fn cols_mut(&mut self) -> &mut [u32] {
        &mut self.cols
    }

    /// Where a [`LevelOrdered`] operand's diagonal slots start: after
    /// every off-diagonal value.
    pub(crate) fn pivots_at(&self) -> usize {
        self.cols.len()
    }

    /// Cheap provenance check: does `m` have the shape this plan was
    /// compiled for? Pattern equality is the caller's contract (plans are
    /// cached per pattern fingerprint); use
    /// [`CompiledSptrsv::verify_pattern`] for the O(nnz) audit.
    pub fn matches<T: Scalar>(&self, m: &CsrMatrix<T>) -> bool {
        m.nrows() == self.nrows && m.ncols() == self.nrows
    }

    /// O(nnz) audit that `m`'s triangle compiles to this plan.
    pub fn verify_pattern<T: Scalar>(&self, m: &CsrMatrix<T>) -> bool {
        self.matches(m) && Self::compile(m, self.triangle).is_ok_and(|p| p == *self)
    }

    /// Lays out the values of `m`'s triangle in this plan's level order:
    /// the operand [`CompiledSptrsv::solve`] reads. Entries outside the
    /// triangle are ignored; each diagonal entry is taken as the row's
    /// reciprocal pivot, as it stands.
    ///
    /// # Errors
    ///
    /// [`SparseError::NotSquare`] and [`SparseError::DimensionMismatch`]
    /// for another shape, [`SparseError::ZeroDiagonal`] for a row without
    /// a stored diagonal, and [`SparseError::InvalidStructure`] for a row
    /// whose in-triangle pattern is not the plan's.
    pub fn layout<T: Scalar>(&self, m: &CsrMatrix<T>) -> Result<LevelOrdered<T>, SparseError> {
        self.check_shape(m.nrows(), m.ncols(), "matrix rows")?;
        let mut values = vec![T::ZERO; self.tri_nnz];
        let (off, pivots) = values.split_at_mut(self.pivots_at());
        for (k, &i) in self.order.iter().enumerate() {
            let i = i as usize;
            let (cols, vals) = m.row(i);
            let span = self.span(k);
            let mut at = span.start;
            let mut diag = None;
            for (&c, &v) in cols.iter().zip(vals) {
                if c == i {
                    diag = Some(v);
                } else if self.triangle.depends(i, c) {
                    if at == span.end || self.cols[at] as usize != c {
                        return Err(Self::not_the_pattern(i));
                    }
                    off[at] = v;
                    at += 1;
                }
            }
            if at != span.end {
                return Err(Self::not_the_pattern(i));
            }
            pivots[k] = diag.ok_or(SparseError::ZeroDiagonal { row: i })?;
        }
        LevelOrdered::from_values(self, values)
    }

    fn not_the_pattern(row: usize) -> SparseError {
        SparseError::InvalidStructure(format!(
            "row {row}'s triangle is not the SpTRSV plan's pattern"
        ))
    }

    /// The operand back in natural CSR form: the triangle's rows in row
    /// order, each with its columns sorted and its reciprocal pivot in the
    /// diagonal slot — the matrix [`CompiledSptrsv::layout`] reads it from.
    ///
    /// # Errors
    ///
    /// [`SparseError::DimensionMismatch`] if `v` is not of this plan's
    /// shape and entry count.
    pub fn to_csr<T: Scalar>(&self, v: &LevelOrdered<T>) -> Result<CsrMatrix<T>, SparseError> {
        self.check_operand(v)?;
        let n = self.nrows;
        let mut position = vec![0usize; n];
        for (k, &i) in self.order.iter().enumerate() {
            position[i as usize] = k;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.tri_nnz);
        let mut values = Vec::with_capacity(self.tri_nnz);
        row_ptr.push(0);
        for (i, &k) in position.iter().enumerate() {
            for slot in self.row_slots(k) {
                // Past the dependency columns lie the diagonal slots.
                col_idx.push(self.cols.get(slot).map_or(i, |&c| c as usize));
                values.push(v.values[slot]);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::try_from_parts(n, n, row_ptr, col_idx, values)
    }

    /// Solves `T x = b` by substitution, rows in the plan's level order,
    /// where `T` is the triangle laid out in `m` with each diagonal entry
    /// *inverted*: `x_i = (b_i − Σ_{c≠i} t_ic x_c) · m_ii`.
    ///
    /// A triangular operand stores its **reciprocal pivot** `1 / t_ii` in
    /// the diagonal slot — the form an incomplete factor is filled in
    /// ([`crate::Ic0Schedule::fill`]) — so a row ends in a multiply and
    /// the divide stays off the dependency chain.
    ///
    /// Every row does the natural walk's operations in its order — its
    /// products in stored order, then the multiply by the reciprocal pivot
    /// — and reads only unknowns of earlier levels, which are final, so
    /// the level order changes no bit of the answer; it lets the rows of a
    /// level overlap. `b` and `x` are in natural order. Under
    /// [`DeterminismPolicy::Deterministic`] each row accumulates in stored
    /// order (the serial reference, bitwise reproducible); under
    /// [`DeterminismPolicy::Fast`] each row's products are summed through
    /// four lanes, so results may differ in the last ulps. Allocation-free.
    ///
    /// # Errors
    ///
    /// [`SparseError::DimensionMismatch`] if `m` is not of the plan's
    /// shape and entry count, or `b` or `x` disagree with its row count.
    pub fn solve<T: Scalar>(
        &self,
        policy: DeterminismPolicy,
        m: &LevelOrdered<T>,
        b: &[T],
        x: &mut [T],
    ) -> Result<(), SparseError> {
        self.check_operand(m)?;
        for (len, what) in [
            (b.len(), "right-hand side length"),
            (x.len(), "solution length"),
        ] {
            if len != self.nrows {
                return Err(SparseError::DimensionMismatch {
                    expected: self.nrows,
                    found: len,
                    what,
                });
            }
        }
        if policy.is_fast() {
            self.substitute::<T, true>(&m.values, b, x);
        } else {
            self.substitute::<T, false>(&m.values, b, x);
        }
        Ok(())
    }

    fn check_shape(
        &self,
        nrows: usize,
        ncols: usize,
        what: &'static str,
    ) -> Result<(), SparseError> {
        if nrows != ncols {
            return Err(SparseError::NotSquare { nrows, ncols });
        }
        if nrows != self.nrows {
            return Err(SparseError::DimensionMismatch {
                expected: self.nrows,
                found: nrows,
                what,
            });
        }
        Ok(())
    }

    fn check_operand<T>(&self, m: &LevelOrdered<T>) -> Result<(), SparseError> {
        self.check_shape(m.nrows, m.nrows, "operand rows")?;
        if m.values.len() != self.tri_nnz {
            return Err(SparseError::DimensionMismatch {
                expected: self.tri_nnz,
                found: m.values.len(),
                what: "operand entries",
            });
        }
        Ok(())
    }

    fn substitute<T: Scalar, const FAST: bool>(&self, values: &[T], b: &[T], x: &mut [T]) {
        let (off, pivots) = values.split_at(self.pivots_at());
        let rows = self.order.iter().zip(self.offsets.windows(2)).zip(pivots);
        for ((&i, span), &pivot) in rows {
            let (i, span) = (i as usize, span[0] as usize..span[1] as usize);
            let products = self.cols[span.clone()]
                .iter()
                .zip(&off[span])
                .map(|(&c, &v)| v * x[c as usize]);
            x[i] = subtract_all::<T, FAST>(b[i], products) * pivot;
        }
    }
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

    /// `plan`'s solve of `m`'s triangle, laid out for the occasion.
    fn solve(
        plan: &CompiledSptrsv,
        policy: DeterminismPolicy,
        m: &CsrMatrix<f64>,
        b: &[f64],
    ) -> Vec<f64> {
        let mut x = vec![f64::NAN; b.len()];
        plan.solve(policy, &plan.layout(m).unwrap(), b, &mut x)
            .unwrap();
        x
    }

    #[test]
    fn lower_solve_matches_dense_reference() {
        let l = random_lower(40, 7);
        let plan = CompiledSptrsv::compile_lower(&l).unwrap();
        let b: Vec<f64> = (0..40).map(|i| (i as f64).sin() + 2.0).collect();
        let x = solve(&plan, DeterminismPolicy::Deterministic, &l, &b);
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
        let x = solve(&plan, DeterminismPolicy::Deterministic, &u, &b);
        let mut back = vec![0.0; 32];
        with_pivots(&u).mul_vec_into(&x, &mut back).unwrap();
        for (bi, ri) in b.iter().zip(&back) {
            assert!((bi - ri).abs() < 1e-10);
        }
    }

    #[test]
    fn full_matrix_solves_its_own_lower_triangle() {
        // Laying out a full symmetric matrix ignores the upper entries —
        // the Gauss-Seidel/IC(0) sharing contract.
        let a = generate::poisson2d::<f64>(8, 8);
        let plan = CompiledSptrsv::compile_lower(&a).unwrap();
        let b = vec![1.0; a.nrows()];
        let x = solve(&plan, DeterminismPolicy::Deterministic, &a, &b);
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
        // wavefront index, so an nx-by-ny grid has nx + ny - 1 levels,
        // and the walk visits each wavefront's rows in row order.
        let (nx, ny) = (6, 9);
        let a = generate::poisson2d::<f64>(nx, ny);
        let plan = CompiledSptrsv::compile_lower(&a).unwrap();
        assert_eq!(plan.level_count(), nx + ny - 1);
        assert_eq!(plan.nrows(), 54);
        assert!(plan.avg_level_width() > 1.0);
        let wavefront = |i: u32| (i as usize % nx) + (i as usize / nx);
        for pair in plan.order().windows(2) {
            let (w0, w1) = (wavefront(pair[0]), wavefront(pair[1]));
            assert!(w0 < w1 || (w0 == w1 && pair[0] < pair[1]), "{pair:?}");
        }
        assert_eq!(plan.order()[..3], [0, 1, nx as u32]);
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
        // Laid out against the plan of the complete pattern, the same.
        let full = generate::poisson1d::<f64>(3);
        let plan = CompiledSptrsv::compile_lower(&full).unwrap();
        assert_eq!(
            plan.layout(&m).err(),
            Some(SparseError::ZeroDiagonal { row: 1 })
        );
    }

    #[test]
    fn fast_tier_stays_close_to_reference() {
        let l = random_lower(64, 23);
        let plan = CompiledSptrsv::compile_lower(&l).unwrap();
        let b: Vec<f64> = (0..64).map(|i| (i as f64 * 0.61).sin()).collect();
        let reference = solve(&plan, DeterminismPolicy::Deterministic, &l, &b);
        let fast = solve(&plan, DeterminismPolicy::Fast, &l, &b);
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
        assert!(!plan.verify_pattern(&other));
        assert!(matches!(
            plan.layout(&other),
            Err(SparseError::InvalidStructure(_))
        ));
        let smaller = random_lower(12, 5);
        assert!(!plan.matches(&smaller));
    }

    #[test]
    fn a_layout_maps_back_to_the_triangle_it_was_read_from() {
        let l = random_lower(30, 9);
        let u = l.transpose();
        for (m, plan) in [
            (&l, CompiledSptrsv::compile_lower(&l).unwrap()),
            (&u, CompiledSptrsv::compile_upper(&u).unwrap()),
        ] {
            assert_eq!(&plan.to_csr(&plan.layout(m).unwrap()).unwrap(), m);
        }
        // The full matrix maps back to its triangle only.
        let a = generate::poisson2d::<f64>(5, 4);
        let plan = CompiledSptrsv::compile_upper(&a).unwrap();
        let back = plan.to_csr(&plan.layout(&a).unwrap()).unwrap();
        assert_eq!(back.nnz(), plan.tri_nnz());
        for (i, cols, _) in back.iter_rows() {
            let upper: Vec<usize> = a.row(i).0.iter().copied().filter(|&c| c >= i).collect();
            assert_eq!(cols, upper, "row {i}");
        }
    }

    #[test]
    fn an_operand_of_another_shape_or_entry_count_is_a_dimension_mismatch() {
        let plan = CompiledSptrsv::compile_lower(&random_lower(24, 5)).unwrap();
        let small = CompiledSptrsv::compile_lower(&random_lower(12, 5)).unwrap();
        let smaller = small.layout(&random_lower(12, 5)).unwrap();
        let (b, mut x) = (vec![1.0; 24], vec![0.0; 24]);
        for policy in DeterminismPolicy::ALL {
            match plan.solve(policy, &smaller, &b, &mut x) {
                Err(SparseError::DimensionMismatch {
                    expected: 24,
                    found: 12,
                    what: "operand rows",
                }) => {}
                other => panic!("expected DimensionMismatch, got {other:?}"),
            }
        }
        match LevelOrdered::from_values(&plan, vec![0.0; plan.tri_nnz() + 1]) {
            Err(SparseError::DimensionMismatch {
                what: "operand entries",
                ..
            }) => {}
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
        match plan.layout(&random_lower(12, 5)) {
            Err(SparseError::DimensionMismatch {
                expected: 24,
                found: 12,
                what: "matrix rows",
            }) => {}
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn non_square_operand_is_not_square() {
        let plan = CompiledSptrsv::compile_lower(&random_lower(24, 5)).unwrap();
        let wide = CsrMatrix::<f64>::try_from_parts(24, 30, vec![0; 25], vec![], vec![]).unwrap();
        match plan.layout(&wide) {
            Err(SparseError::NotSquare {
                nrows: 24,
                ncols: 30,
            }) => {}
            other => panic!("expected NotSquare, got {other:?}"),
        }
    }

    #[test]
    fn a_plan_keeps_four_bytes_per_level_row_offset_and_dependency() {
        let a = generate::poisson2d::<f64>(7, 5);
        let plan = CompiledSptrsv::compile_lower(&a).unwrap();
        let (n, deps) = (a.nrows(), plan.tri_nnz() - a.nrows());
        assert_eq!(
            plan.retained_bytes(),
            4 * (plan.level_count() + n + (n + 1) + deps)
        );
    }
}
