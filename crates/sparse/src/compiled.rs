//! Compiled SpMV execution plans.
//!
//! The paper's Resource Decision loop (Fig. 3, Algorithm 4) exists to run
//! each row *set* at its optimal unroll factor via partial reconfiguration.
//! This module is the host-side twin: it consumes the per-band unroll
//! schedule chosen by the MSID machinery and *compiles* it into a
//! format-specialized execution plan, following the SELL-C-σ / OSKI
//! auto-tuning playbook.
//!
//! A [`CompiledSpmv`] tiles the rows into contiguous bands, each executed by
//! the kernel that best fits its shape:
//!
//! * [`BandKind::Diagonal`] — a stencil run: rows of identical NNZ
//!   `w <= 16` in which every row's columns are the previous row's plus
//!   one, so the band is `w` diagonals (always a whole uniform run).
//!   It stores only its first row's `w` columns; the kernel slices `x`
//!   into `w` contiguous windows once per band and then reads nothing but
//!   `values` and those windows — no slot stream, no gather.
//! * [`BandKind::Fixed`] — a run of rows with identical NNZ `w <= 16`:
//!   the zero-padding ELL slice. Column slots are packed `u32` in
//!   `EllMatrix`'s row-major slot layout, value offsets are arithmetic, and
//!   the inner loop is monomorphized on the width (fully unrolled) with four
//!   rows in flight as the lanes of a [`Lanes4`].
//! * [`BandKind::Ell`] — a low-variance band: an ELL slice whose padding
//!   fraction is bounded (the storage analog of the paper's Eq. 5
//!   underutilization). Slots are packed like `Fixed`, but each lane is
//!   bounded by its own row length so padding slots are *never* accumulated
//!   (adding `0.0` is not a bitwise no-op: `-0.0 + 0.0 == +0.0`).
//! * [`BandKind::Sorted`] — a ragged band of short rows (`width <= 16`)
//!   that fails the `Ell` padding test. Rows are stably counting-sorted by
//!   length inside windows of at most [`SORTED_WINDOW_ROWS`] rows (one
//!   window's values, slots and `y` stay L1-resident); each window stores
//!   that row order and the rows' `u32` column slots packed in it, and the
//!   kernel walks each run of equal length `L` through a body monomorphized
//!   on `L`, four rows in flight, scattering `y` — no trip count depends on
//!   a row's length, which is where a CSR walk over 1–6-entry rows spends
//!   its time (one or two mispredicted branches per row).
//! * [`BandKind::Unrolled`] — a ragged band with rows too wide for `Sorted`,
//!   run as a fixed-width unrolled CSR loop, monomorphized for
//!   U ∈ {1, 2, 4, 8, 16} taken from the MSID schedule's unroll factor.
//! * [`BandKind::DenseRow`] — heavy outlier rows: deep-unrolled gather, with
//!   a contiguous-column fast path that reads `x` as a slice.
//!
//! The plan is **pattern-only**: it never stores matrix values, so a plan
//! cached under a `PatternFingerprint` is safe to reuse for a matrix with
//! the same pattern but different values. Values are always read from the
//! live CSR through its own `row_ptr`.
//!
//! Every kernel preserves the per-row accumulation order of
//! [`CsrMatrix::mul_vec_into`] exactly — compilation reorders *storage* and
//! interleaves work *across* rows, never the summation order *within* a row
//! — so compiled results are bitwise-identical to the generic path.
//!
//! Execution is serial: [`CompiledSpmv::execute`] and
//! [`CompiledSpmv::execute_dot`] walk the bands in row order on the calling
//! thread. Concurrency lives across solves (engine workers × service
//! shards), not inside an SpMV — spawning threads per call measured 0.79×
//! serial on a 646k-entry matrix (CHANGES.md, PR 15). Bands write disjoint
//! row ranges and are independent of each other, which is what a persistent
//! worker team would start from if a workload ever argues for one.
//!
//! ## The `Fast` tier
//!
//! Both entry points take the job's [`DeterminismPolicy`]. `Diagonal`,
//! `Fixed`, `Ell` and `Sorted` bands run the *same* kernels on both tiers:
//! their lanes interleave rows, each lane is one row's serial chain, so
//! there is nothing to reassociate and the bytes are equal.
//! The tiers differ only where `Fast` breaks a row's serial FP-add
//! chain into partial sums reduced once at the end: long contiguous or
//! scattered rows of `Unrolled` bands, `DenseRow` outliers, and
//! the fused dot. `Fast` results therefore agree with `Deterministic`
//! ones only to a few ULP per element on those kinds; compilation itself
//! is policy-independent — the same plan object serves both tiers.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;
use crate::simd::{dot_fast, DeterminismPolicy, Lanes4};
use std::ops::Range;

/// Largest row width handled by the monomorphized [`BandKind::Fixed`] kernel.
const MAX_FIXED_WIDTH: usize = 16;

/// Minimum run length of identical-width rows promoted to a `Fixed` band.
pub const MIN_FIXED_RUN: usize = 8;

// A `Diagonal` band is a uniform run that is column-shifted end to end (a
// stencil's grid line), so `MIN_FIXED_RUN` is its minimum too: it trades
// one `Fixed` band for one `Diagonal` band and measured ahead at every
// length (5 wide, in cache: 0.71 vs 0.75 ns/nnz at 8 rows, 0.50 vs 0.56
// at 16, 0.34 vs 0.39 at 64). Its kernel has no scalar tail and needs one
// full 4-row group.
const _: () = assert!(MIN_FIXED_RUN >= 4);

/// Rows with at least this many entries are heavy outliers ([`BandKind::DenseRow`]).
const DENSE_ROW_MIN_NNZ: usize = 128;

/// Maximum slot width for an ELL band.
const ELL_MAX_WIDTH: usize = 32;

/// Maximum padding fraction tolerated for an ELL band (Eq. 5 analog).
const ELL_MAX_PADDING: f64 = 0.5;

/// Bands at or below this width count as *narrow* for ELL selection.
const ELL_NARROW_WIDTH: usize = 12;

/// Tighter padding bound for narrow ELL candidates. Short rows leave the
/// 4-lane kernel little common prefix to amortize its per-group setup, so
/// a ragged narrow band (epb3-shaped: width ~9, mean ~6) loses to the
/// packed-`u32` CSR walk it would otherwise displace — those bands
/// classify as `Sorted` instead.
const ELL_NARROW_MAX_PADDING: f64 = 0.2;

/// Rows per window of a [`BandKind::Sorted`] band: rows are sorted by
/// length inside a window, never across one, so the values, slots and `y`
/// a window touches (512 rows × 6 entries × 12 B + 4 KB) stay L1-resident
/// while `y` is scattered.
pub const SORTED_WINDOW_ROWS: usize = 512;

/// Widest row of a [`BandKind::Sorted`] band; a ragged band with a wider
/// row runs as `Unrolled`. Measured in one process, plans alternated batch
/// by batch, minimum ns/nnz, as no plan / `Unrolled` / cut 8 / cut 16:
/// dominant n=4000 rows 2–6 (`T`) 1.12 / 1.67 / 0.63 / 0.63; Table II `Eb`
/// (width ~11, mean 6) 0.60 / 0.72 / 0.72 / 0.59; `Th` (mean 7) 0.76 /
/// 0.65 / 0.64 / 0.55 — a cut at 8 leaves `Eb` and `Th` on the walk that
/// loses to no plan, so the classes are monomorphized to 16 like `Fixed`.
/// Bands with a longer row (`Wi`, `Mo`, dominant rows 1–40: mean 20–38)
/// stay `Unrolled{16}`, 0.55–0.64 against 0.67–0.93 without a plan.
pub const SORTED_MAX_WIDTH: usize = MAX_FIXED_WIDTH;

/// Unroll factors with monomorphized kernels, mirroring the paper's U set.
const UNROLL_FACTORS: [usize; 5] = [1, 2, 4, 8, 16];

/// A contiguous row range and the unroll factor the MSID schedule assigned
/// to it. The plan compiler never emits a band that crosses a hint boundary,
/// so schedule boundaries survive as band boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandHint {
    /// Rows covered by this schedule entry.
    pub rows: Range<usize>,
    /// Unroll factor chosen by the Resource Decision loop for these rows.
    pub unroll: usize,
}

/// The specialized kernel selected for a band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandKind {
    /// Every row has exactly `width` entries (`1 <= width <= 16`) and its
    /// columns are the previous row's plus one: `width` diagonals, stored
    /// as the first row's columns only and read as contiguous `x` windows.
    Diagonal {
        /// The number of diagonals (the uniform row width).
        width: usize,
    },
    /// Every row has exactly `width` entries (`width <= 16`): packed ELL
    /// slots with arithmetic offsets and a fully unrolled inner loop.
    Fixed {
        /// The uniform row width.
        width: usize,
    },
    /// Low-variance band: packed ELL slots of `width`, per-row lengths bound
    /// each lane so padding is never accumulated.
    Ell {
        /// The slot width (max row NNZ in the band).
        width: usize,
    },
    /// Ragged band of short rows (`width <= SORTED_MAX_WIDTH`): rows
    /// counting-sorted by length inside [`SORTED_WINDOW_ROWS`]-row windows,
    /// each run of equal length executed at a constant trip count.
    Sorted {
        /// The longest row in the band.
        width: usize,
    },
    /// Ragged band with wider rows: CSR walk with a `U`-wide unrolled
    /// inner loop.
    Unrolled {
        /// The unroll factor, one of 1, 2, 4, 8 and 16 (the paper's U set).
        unroll: usize,
    },
    /// Heavy outlier rows: deep-unrolled gather with a contiguous-column
    /// fast path.
    DenseRow,
}

/// One compiled band: a contiguous row range bound to a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Band {
    /// Rows covered by the band.
    pub rows: Range<usize>,
    /// The kernel that executes the band.
    pub kind: BandKind,
    /// Start of this band's slots in the shared slot-column array.
    slot_base: usize,
    /// Stored entries in the band.
    nnz: usize,
}

impl Band {
    /// Number of rows in the band.
    pub fn len(&self) -> usize {
        self.rows.end - self.rows.start
    }

    /// `true` if the band covers no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Stored entries in the band.
    pub fn nnz(&self) -> usize {
        self.nnz
    }
}

/// A compiled, pattern-only SpMV execution plan. See the module docs.
///
/// # Examples
///
/// ```
/// use acamar_sparse::{generate, CompiledSpmv, DeterminismPolicy};
///
/// let a = generate::poisson2d::<f64>(9, 9);
/// let plan = CompiledSpmv::compile_default(&a);
/// let x: Vec<f64> = (0..81).map(|i| (i % 7) as f64 - 3.0).collect();
/// let mut y = vec![0.0; 81];
/// plan.execute(DeterminismPolicy::Deterministic, &a, &x, &mut y)?;
/// assert_eq!(y, a.mul_vec(&x)?);
/// # Ok::<(), acamar_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSpmv {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    bands: Vec<Band>,
    /// Packed `u32` column slots for every band (half the index traffic of
    /// the CSR's `usize` columns — SpMV is stream-bound, so this is where
    /// most of the compiled win comes from). A `Diagonal` band stores its
    /// first row's `width` columns and nothing else. `Fixed` and `Ell` bands
    /// use `EllMatrix`'s row-major slot layout (`width` slots per row,
    /// padding slots repeat the row's last column and are never read —
    /// lanes are length-bounded). A `Sorted` band stores, per window, its
    /// `width + 1` length-class row counts, the window's row order (offsets
    /// from the window's first row, ascending length, stable) and the
    /// rows' columns packed in that order. The other kinds pack their
    /// columns CSR-contiguous with no padding. Empty when the matrix is too wide to pack
    /// (`ncols > u32::MAX`), in which case every band runs the generic
    /// fallback walk over the CSR's own columns.
    slot_cols: Vec<u32>,
    /// Whether `slot_cols` is populated (`ncols <= u32::MAX`).
    packed: bool,
}

/// Calls `$kernel::<T, W>` for the runtime `$width` of a uniform band
/// (`W` in `1..=MAX_FIXED_WIDTH`); a zero-width band just clears `$y`.
macro_rules! for_width {
    ($width:expr, $y:ident, $kernel:ident($($arg:expr),*)) => {
        match $width {
            0 => $y.fill(T::ZERO),
            1 => $kernel::<T, 1>($($arg),*),
            2 => $kernel::<T, 2>($($arg),*),
            3 => $kernel::<T, 3>($($arg),*),
            4 => $kernel::<T, 4>($($arg),*),
            5 => $kernel::<T, 5>($($arg),*),
            6 => $kernel::<T, 6>($($arg),*),
            7 => $kernel::<T, 7>($($arg),*),
            8 => $kernel::<T, 8>($($arg),*),
            9 => $kernel::<T, 9>($($arg),*),
            10 => $kernel::<T, 10>($($arg),*),
            11 => $kernel::<T, 11>($($arg),*),
            12 => $kernel::<T, 12>($($arg),*),
            13 => $kernel::<T, 13>($($arg),*),
            14 => $kernel::<T, 14>($($arg),*),
            15 => $kernel::<T, 15>($($arg),*),
            _ => $kernel::<T, 16>($($arg),*),
        }
    };
}

impl CompiledSpmv {
    /// Compiles a plan for `a` from the MSID schedule's band hints.
    ///
    /// `hints` must tile `0..a.nrows()` contiguously in ascending order
    /// (the contract `UnrollSchedule` already enforces). An empty hint
    /// slice on a non-empty matrix is rejected.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if the hints do not tile
    /// the matrix rows.
    pub fn compile<T: Scalar>(a: &CsrMatrix<T>, hints: &[BandHint]) -> Result<Self, SparseError> {
        let mut expected = 0usize;
        for h in hints {
            if h.rows.start != expected || h.rows.end < h.rows.start || h.rows.end > a.nrows() {
                return Err(SparseError::InvalidStructure(format!(
                    "band hint {:?} does not tile rows contiguously (expected start {expected}, nrows {})",
                    h.rows,
                    a.nrows()
                )));
            }
            expected = h.rows.end;
        }
        if expected != a.nrows() {
            return Err(SparseError::InvalidStructure(format!(
                "band hints cover rows 0..{expected} of {}",
                a.nrows()
            )));
        }
        // Columns pack into `u32` slots unless the matrix is too wide for
        // that (never the case for the paper's datasets), in which case
        // every band runs the generic fallback walk.
        let packed = a.ncols() <= u32::MAX as usize;
        let mut plan = CompiledSpmv {
            nrows: a.nrows(),
            ncols: a.ncols(),
            nnz: a.nnz(),
            bands: Vec::new(),
            slot_cols: Vec::with_capacity(if packed { a.nnz() } else { 0 }),
            packed,
        };
        for h in hints {
            plan.compile_hint(a, h);
        }
        // The `nnz` reserve is a guess: padded Ell bands and Sorted bands'
        // row orders outgrow it, and a Diagonal band uses `width` slots of
        // it, not `rows × width`.
        plan.slot_cols.shrink_to_fit();
        Ok(plan)
    }

    /// Compiles a plan with a single full-matrix hint at unroll 8 — the
    /// shape used when no MSID schedule is available.
    pub fn compile_default<T: Scalar>(a: &CsrMatrix<T>) -> Self {
        let hint = [BandHint {
            rows: 0..a.nrows(),
            unroll: 8,
        }];
        Self::compile(a, &hint).expect("single full hint always tiles")
    }

    /// Segments one schedule entry into specialized bands. Bands never
    /// cross hint boundaries: the MSID schedule segments rows by density,
    /// so hint edges track width changes and keep each band's slot width
    /// tight — merging across them was measured to *hurt* the ELL kernels
    /// by inflating per-band widths and padding.
    fn compile_hint<T: Scalar>(&mut self, a: &CsrMatrix<T>, hint: &BandHint) {
        let rp = a.row_ptr();
        let mut start = hint.rows.start;
        while start < hint.rows.end {
            let heavy = rp[start + 1] - rp[start] >= DENSE_ROW_MIN_NNZ;
            let mut end = start + 1;
            while end < hint.rows.end && (rp[end + 1] - rp[end] >= DENSE_ROW_MIN_NNZ) == heavy {
                end += 1;
            }
            if heavy {
                self.push_band(start..end, BandKind::DenseRow, a);
            } else {
                self.compile_light_segment(a, start..end, hint.unroll);
            }
            start = end;
        }
    }

    /// Segments a run of non-heavy rows: uniform runs become `Diagonal` and
    /// `Fixed` bands, the gaps become `Ell`, `Sorted`, or `Unrolled` bands.
    fn compile_light_segment<T: Scalar>(
        &mut self,
        a: &CsrMatrix<T>,
        rows: Range<usize>,
        unroll: usize,
    ) {
        let rp = a.row_ptr();
        let width = |r: usize| rp[r + 1] - rp[r];
        let mut pending = rows.start;
        let mut start = rows.start;
        while start < rows.end {
            let w = width(start);
            let mut end = start + 1;
            while end < rows.end && width(end) == w {
                end += 1;
            }
            if self.packed && w <= MAX_FIXED_WIDTH && end - start >= MIN_FIXED_RUN {
                if pending < start {
                    self.push_mixed_band(a, pending..start, unroll);
                }
                self.push_uniform_run(a, start..end, w);
                pending = end;
            }
            start = end;
        }
        if pending < rows.end {
            self.push_mixed_band(a, pending..rows.end, unroll);
        }
    }

    /// Records a uniform-width run: a `Diagonal` band when every row's
    /// columns are the previous row's plus one from the first row to the
    /// last, a `Fixed` band otherwise. On a pattern with no such structure
    /// the sweep stops at the second row's first column.
    fn push_uniform_run<T: Scalar>(&mut self, a: &CsrMatrix<T>, rows: Range<usize>, width: usize) {
        let rp = a.row_ptr();
        let run = &a.col_idx()[rp[rows.start]..rp[rows.end]];
        // A row's entry sits `width` entries after the previous row's.
        let shifted = width > 0 && run.iter().zip(&run[width..]).all(|(&p, &c)| c == p + 1);
        let kind = if shifted {
            BandKind::Diagonal { width }
        } else {
            BandKind::Fixed { width }
        };
        self.push_band(rows, kind, a);
    }

    /// Classifies a mixed-width segment as `Ell`, `Sorted`, or `Unrolled`.
    fn push_mixed_band<T: Scalar>(&mut self, a: &CsrMatrix<T>, rows: Range<usize>, unroll: usize) {
        let rp = a.row_ptr();
        let nnz = rp[rows.end] - rp[rows.start];
        let len = rows.end - rows.start;
        let max_w = rows.clone().map(|r| rp[r + 1] - rp[r]).max().unwrap_or(0);
        let slots = len * max_w;
        let padding = if slots == 0 {
            0.0
        } else {
            (slots - nnz) as f64 / slots as f64
        };
        let padding_limit = if max_w <= ELL_NARROW_WIDTH {
            ELL_NARROW_MAX_PADDING
        } else {
            ELL_MAX_PADDING
        };
        let kind = if self.packed && max_w <= ELL_MAX_WIDTH && padding <= padding_limit {
            BandKind::Ell { width: max_w }
        } else if self.packed && max_w <= SORTED_MAX_WIDTH {
            BandKind::Sorted { width: max_w }
        } else {
            BandKind::Unrolled {
                unroll: clamp_unroll(unroll),
            }
        };
        self.push_band(rows, kind, a);
    }

    /// Records a band, packing its `u32` slot columns: the first row only
    /// for `Diagonal`, ELL slot layout for `Fixed`/`Ell`, length-sorted
    /// windows for `Sorted`, CSR-contiguous for the other kinds (skipped
    /// entirely for an unpackable matrix, whose bands run the generic
    /// fallback). An empty row range is ignored.
    fn push_band<T: Scalar>(&mut self, rows: Range<usize>, kind: BandKind, a: &CsrMatrix<T>) {
        if rows.is_empty() {
            return;
        }
        let rp = a.row_ptr();
        let slot_base = self.slot_cols.len();
        match kind {
            BandKind::Diagonal { .. } => {
                let first = a.row(rows.start).0;
                self.slot_cols.extend(first.iter().map(|&c| c as u32));
            }
            BandKind::Fixed { width } | BandKind::Ell { width } => {
                self.slot_cols.reserve(rows.len() * width);
                for r in rows.clone() {
                    let (cols, _) = a.row(r);
                    for &c in cols {
                        self.slot_cols.push(c as u32);
                    }
                    // Pad to the slot width with the last real column (or 0
                    // for an empty row); padding slots are never read.
                    let pad = cols.last().copied().unwrap_or(0) as u32;
                    for _ in cols.len()..width {
                        self.slot_cols.push(pad);
                    }
                }
            }
            BandKind::Sorted { width } => {
                let mut start = rows.start;
                while start < rows.end {
                    let end = rows.end.min(start + SORTED_WINDOW_ROWS);
                    self.push_sorted_window(a, start..end, width);
                    start = end;
                }
            }
            _ if self.packed => {
                let cols = a.col_idx();
                self.slot_cols
                    .extend(cols[rp[rows.start]..rp[rows.end]].iter().map(|&c| c as u32));
            }
            _ => {}
        }
        self.bands.push(Band {
            nnz: rp[rows.end] - rp[rows.start],
            rows,
            kind,
            slot_base,
        });
    }

    /// Packs one window of a `Sorted` band: the `width + 1` length-class
    /// row counts, the rows' offsets in ascending length (a counting sort,
    /// so rows of one length keep their order), then each row's columns
    /// in that order.
    fn push_sorted_window<T: Scalar>(
        &mut self,
        a: &CsrMatrix<T>,
        rows: Range<usize>,
        width: usize,
    ) {
        let band_rp = &a.row_ptr()[rows.start..rows.end + 1];
        let cols = a.col_idx();
        let base = self.slot_cols.len();
        let nnz = band_rp[rows.len()] - band_rp[0];
        self.slot_cols
            .resize(base + width + 1 + rows.len() + nnz, 0);
        let (counts, rest) = self.slot_cols[base..].split_at_mut(width + 1);
        let (order, slots) = rest.split_at_mut(rows.len());
        for w in band_rp.windows(2) {
            counts[w[1] - w[0]] += 1;
        }
        // Where each length class starts in the order.
        let mut next = [0usize; SORTED_MAX_WIDTH + 1];
        for l in 0..width {
            next[l + 1] = next[l] + counts[l] as usize;
        }
        for (i, w) in band_rp.windows(2).enumerate() {
            let at = &mut next[w[1] - w[0]];
            order[*at] = i as u32;
            *at += 1;
        }
        let mut filled = 0usize;
        for &i in order.iter() {
            let row = &cols[band_rp[i as usize]..band_rp[i as usize + 1]];
            for (slot, &c) in slots[filled..filled + row.len()].iter_mut().zip(row) {
                *slot = c as u32;
            }
            filled += row.len();
        }
    }

    /// Number of rows the plan was compiled for.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns the plan was compiled for.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored entries the plan was compiled for.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The compiled bands, ascending and tiling `0..nrows`.
    pub fn bands(&self) -> &[Band] {
        &self.bands
    }

    /// The packed `u32` slot columns of band `band`: the first row's
    /// `width` columns for `Diagonal`, `rows × width` row-major slots for
    /// `Fixed`/`Ell`, counts + order + columns per window for `Sorted`, the
    /// band's CSR columns for the other kinds, and empty for a matrix too
    /// wide to pack.
    fn band_slots(&self, band: usize) -> &[u32] {
        let b = &self.bands[band];
        let len = match b.kind {
            BandKind::Diagonal { width } => width,
            BandKind::Fixed { width } | BandKind::Ell { width } => b.len() * width,
            BandKind::Sorted { width } => {
                b.len().div_ceil(SORTED_WINDOW_ROWS) * (width + 1) + b.len() + b.nnz
            }
            _ if self.packed => b.nnz,
            _ => 0,
        };
        &self.slot_cols[b.slot_base..b.slot_base + len]
    }

    /// Cheap provenance check: `true` if `a` has the shape this plan was
    /// compiled for. Callers that obtained the plan from a pattern cache
    /// assert (as `PlanCache` does) that a matching shape implies a
    /// matching pattern; [`Self::verify_pattern`] performs the deep check.
    pub fn matches<T: Scalar>(&self, a: &CsrMatrix<T>) -> bool {
        self.nrows == a.nrows() && self.ncols == a.ncols() && self.nnz == a.nnz()
    }

    /// Deep provenance check: `true` if every packed slot column and band
    /// boundary agrees with `a`'s pattern. O(nnz); meant for tests and
    /// debug assertions, not the hot path.
    pub fn verify_pattern<T: Scalar>(&self, a: &CsrMatrix<T>) -> bool {
        if !self.matches(a) {
            return false;
        }
        let mut expected = 0usize;
        for (b, band) in self.bands.iter().enumerate() {
            if band.rows.start != expected {
                return false;
            }
            expected = band.rows.end;
            let slots = self.band_slots(b);
            match band.kind {
                BandKind::Diagonal { width } => {
                    for (i, r) in band.rows.clone().enumerate() {
                        let cols = a.row(r).0;
                        if cols.len() != width
                            || cols.iter().zip(slots).any(|(&c, &s)| c != s as usize + i)
                        {
                            return false;
                        }
                    }
                }
                BandKind::Fixed { width } | BandKind::Ell { width } => {
                    let fixed = matches!(band.kind, BandKind::Fixed { .. });
                    for (i, r) in band.rows.clone().enumerate() {
                        let (cols, _) = a.row(r);
                        if cols.len() > width || (fixed && cols.len() != width) {
                            return false;
                        }
                        if cols
                            .iter()
                            .zip(&slots[i * width..])
                            .any(|(&c, &s)| c as u32 != s)
                        {
                            return false;
                        }
                    }
                }
                BandKind::Sorted { width } => {
                    let band_rp = &a.row_ptr()[band.rows.start..band.rows.end + 1];
                    if band_rp[band.len()] - band_rp[0] != band.nnz {
                        return false;
                    }
                    for (w0, counts, order, cols) in sorted_windows(width, band_rp, slots) {
                        if counts.iter().map(|&c| c as usize).sum::<usize>() != order.len() {
                            return false;
                        }
                        let lens = counts
                            .iter()
                            .enumerate()
                            .flat_map(|(len, &count)| std::iter::repeat(len).take(count as usize));
                        // Strictly ascending (length, row) pairs, every row
                        // in the window and as long as its class says: the
                        // order is the counting sort's permutation.
                        let mut prev = None;
                        let mut at = 0usize;
                        for (&r, len) in order.iter().zip(lens) {
                            if r as usize >= order.len() || prev >= Some((len, r)) {
                                return false;
                            }
                            prev = Some((len, r));
                            let row = a.row(band.rows.start + w0 + r as usize).0;
                            if row.len() != len
                                || row
                                    .iter()
                                    .zip(&cols[at..at + len])
                                    .any(|(&c, &s)| c as u32 != s)
                            {
                                return false;
                            }
                            at += len;
                        }
                    }
                }
                _ if self.packed => {
                    let rp = a.row_ptr();
                    let run = &a.col_idx()[rp[band.rows.start]..rp[band.rows.end]];
                    if run.len() != band.nnz || run.iter().zip(slots).any(|(&c, &s)| c as u32 != s)
                    {
                        return false;
                    }
                }
                _ => {}
            }
        }
        expected == self.nrows
    }

    /// Executes the plan: `y = A x`. Under
    /// [`DeterminismPolicy::Deterministic`] the result is bitwise-identical
    /// to [`CsrMatrix::mul_vec_into`]; under [`DeterminismPolicy::Fast`]
    /// per-row reductions are reassociated (see the module docs) and agree
    /// to a few ULP per element on well-conditioned inputs.
    /// Allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on wrong-length `x`/`y`
    /// and [`SparseError::InvalidStructure`] if `a`'s shape does not match
    /// the plan (see [`Self::matches`]).
    pub fn execute<T: Scalar>(
        &self,
        policy: DeterminismPolicy,
        a: &CsrMatrix<T>,
        x: &[T],
        y: &mut [T],
    ) -> Result<(), SparseError> {
        self.check(a, x, y)?;
        let all = 0..self.bands.len();
        if policy.is_fast() {
            self.run_span::<T, true>(all, a, x, y);
        } else {
            self.run_span::<T, false>(all, a, x, y);
        }
        Ok(())
    }

    /// Executes the plan fused with a dot product: computes `y = A x` and
    /// returns `y · z`. Under [`DeterminismPolicy::Deterministic`] both are
    /// bitwise-identical to the unfused pair (SpMV, then a row-ascending
    /// dot); under [`DeterminismPolicy::Fast`] both reductions are
    /// reassociated. Allocation-free.
    ///
    /// # Errors
    ///
    /// As [`Self::execute`], plus a mismatch error for `z`.
    pub fn execute_dot<T: Scalar>(
        &self,
        policy: DeterminismPolicy,
        a: &CsrMatrix<T>,
        x: &[T],
        y: &mut [T],
        z: &[T],
    ) -> Result<T, SparseError> {
        if policy.is_fast() {
            self.run_dot::<T, true>(a, x, y, z)
        } else {
            self.run_dot::<T, false>(a, x, y, z)
        }
    }

    /// The fused SpMV·dot behind both tiers: each band's rows are dotted
    /// with `z` while that slice of `y` is still hot.
    fn run_dot<T: Scalar, const FAST: bool>(
        &self,
        a: &CsrMatrix<T>,
        x: &[T],
        y: &mut [T],
        z: &[T],
    ) -> Result<T, SparseError> {
        self.check(a, x, y)?;
        if z.len() != self.nrows {
            return Err(SparseError::DimensionMismatch {
                expected: self.nrows,
                found: z.len(),
                what: "dot vector length",
            });
        }
        let mut acc = T::ZERO;
        for b in 0..self.bands.len() {
            let rows = self.bands[b].rows.clone();
            let (y, z) = (&mut y[rows.clone()], &z[rows]);
            self.run_span::<T, FAST>(b..b + 1, a, x, y);
            if FAST {
                acc += dot_fast(y, z);
            } else {
                // Row-ascending: bands ascend and tile the rows, so this
                // matches dot(y, z) after a full SpMV.
                for (yi, zi) in y.iter().zip(z) {
                    acc += *yi * *zi;
                }
            }
        }
        Ok(acc)
    }

    fn check<T: Scalar>(&self, a: &CsrMatrix<T>, x: &[T], y: &[T]) -> Result<(), SparseError> {
        if !self.matches(a) {
            return Err(SparseError::InvalidStructure(format!(
                "compiled plan ({}x{}, nnz {}) does not match matrix ({}x{}, nnz {})",
                self.nrows,
                self.ncols,
                self.nnz,
                a.nrows(),
                a.ncols(),
                a.nnz()
            )));
        }
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
        debug_assert!(self.verify_pattern(a), "compiled plan pattern mismatch");
        Ok(())
    }

    /// The band walk behind both tiers: runs the contiguous `bands` into
    /// `y_span`, which covers exactly their rows. `FAST` selects the
    /// reassociating kernels for `Unrolled` and `DenseRow`; `Diagonal`,
    /// `Fixed`, `Ell` and `Sorted` bands run the same kernel either way.
    /// The matrix is not checked against the plan here ([`Self::check`]
    /// does that once per call).
    fn run_span<T: Scalar, const FAST: bool>(
        &self,
        bands: Range<usize>,
        a: &CsrMatrix<T>,
        x: &[T],
        y_span: &mut [T],
    ) {
        // One bound check for the whole span: every packed slot is a CSR
        // column (`< ncols` by `CsrMatrix`'s structure validation; padding
        // repeats a real column), so after this assert the kernels'
        // unchecked `x` gathers ([`gather`]) cannot escape `x`.
        assert!(
            x.len() >= self.ncols,
            "x len {} shorter than matrix width {}",
            x.len(),
            self.ncols
        );
        let row0 = self.bands.get(bands.start).map_or(0, |b| b.rows.start);
        let rp = a.row_ptr();
        let vals = a.values();
        for b in bands {
            let band = &self.bands[b];
            let y = &mut y_span[band.rows.start - row0..band.rows.end - row0];
            let band_rp = &rp[band.rows.start..band.rows.end + 1];
            if !self.packed {
                // Matrix too wide for u32 slots: every band runs the
                // generic walk over the CSR's own columns, on both tiers.
                run_fallback(band_rp, a.col_idx(), vals, x, y);
                continue;
            }
            let slots = self.band_slots(b);
            match band.kind {
                BandKind::Diagonal { width } => {
                    for_width!(width, y, run_diagonal(band_rp[0], slots, vals, x, y))
                }
                BandKind::Fixed { width } => {
                    for_width!(width, y, run_fixed(band_rp[0], slots, vals, x, y))
                }
                BandKind::Ell { width } => run_ell(width, band_rp, slots, vals, x, y),
                BandKind::Sorted { width } => run_sorted(width, band_rp, slots, vals, x, y),
                // The unroll factor is irrelevant on the fast tier: each
                // CSR-walk row picks serial vs. lane gather by length.
                BandKind::Unrolled { .. } if FAST => run_rows_fast(band_rp, slots, vals, x, y),
                BandKind::Unrolled { unroll } => match unroll {
                    1 => run_unrolled::<T, 1>(band_rp, slots, vals, x, y),
                    2 => run_unrolled::<T, 2>(band_rp, slots, vals, x, y),
                    4 => run_unrolled::<T, 4>(band_rp, slots, vals, x, y),
                    8 => run_unrolled::<T, 8>(band_rp, slots, vals, x, y),
                    _ => run_unrolled::<T, 16>(band_rp, slots, vals, x, y),
                },
                BandKind::DenseRow if FAST => run_dense_row_fast(band_rp, slots, vals, x, y),
                BandKind::DenseRow => run_dense_row(band_rp, slots, vals, x, y),
            }
        }
    }
}

/// Rounds an MSID unroll factor down to the nearest monomorphized factor.
fn clamp_unroll(unroll: usize) -> usize {
    let mut best = UNROLL_FACTORS[0];
    for &u in &UNROLL_FACTORS {
        if u <= unroll {
            best = u;
        }
    }
    best
}

/// Audit check shared by every packed-slot kernel: in debug builds, walk
/// the band's slot columns once and confirm they all land inside `x`.
/// A slot that escaped `verify_pattern` (stale cache entry, corrupted
/// plan) must fail loudly here instead of silently gathering garbage —
/// the lane kernels read `x[slot]` unchecked.
#[inline]
fn debug_assert_slots_in_bounds<T>(slots: &[u32], x: &[T]) {
    debug_assert!(
        slots.iter().all(|&c| (c as usize) < x.len()),
        "stale packed slot column out of bounds (x len {})",
        x.len()
    );
}

/// Reads `x[c]` without a per-element bounds check — the gather
/// primitive of every packed-slot lane kernel on both tiers. This is
/// *checked, not assumed*: `run_span` asserts `x.len() >= ncols` once per
/// span, every packed slot is a CSR column `< ncols` by construction
/// (padding repeats a real column), and debug builds re-audit every band
/// via [`debug_assert_slots_in_bounds`].
#[inline(always)]
fn gather<T: Scalar>(x: &[T], c: u32) -> T {
    debug_assert!((c as usize) < x.len(), "packed slot escapes x");
    // SAFETY: `c < ncols <= x.len()` — asserted at span entry and
    // guaranteed for every slot at plan build; see the doc above.
    unsafe { *x.get_unchecked(c as usize) }
}

/// Stencil band of `W` diagonals: row `i`'s `k`-th column is
/// `first[k] + i`, so each diagonal reads one contiguous window of `x`,
/// sliced (and bounds-checked) once per band. Four rows run interleaved,
/// each accumulating its products in CSR entry order from zero — the
/// generic walk's chain exactly — and the loop touches only `vals` and
/// the windows: no slot stream, no gather, no `unsafe`. When the row
/// count is not a multiple of four the last group overlaps its
/// predecessor instead of leaving up to three rows to a scalar tail (a
/// fifth of a 10-row stencil line: 0.61 → 0.49 ns/nnz on poisson3d-12);
/// the overlapped rows are recomputed to the same bytes.
#[inline]
fn run_diagonal<T: Scalar, const W: usize>(
    val_base: usize,
    first: &[u32],
    vals: &[T],
    x: &[T],
    y: &mut [T],
) {
    let n = y.len();
    // `compile` promotes uniform runs only: `MIN_FIXED_RUN` rows or more.
    assert!(n >= 4, "Diagonal band of {n} rows");
    let first: &[u32; W] = first.try_into().expect("a Diagonal band stores W slots");
    let xs: [&[T]; W] = first.map(|c| &x[c as usize..c as usize + n]);
    let vals = &vals[val_base..val_base + n * W];
    let group = |r: usize, y: &mut [T]| {
        let v = &vals[r * W..(r + 4) * W];
        let mut acc = Lanes4::zero();
        for k in 0..W {
            acc = acc.mul_add(
                Lanes4::new([v[k], v[W + k], v[2 * W + k], v[3 * W + k]]),
                Lanes4::from_slice(&xs[k][r..r + 4]),
            );
        }
        y[r..r + 4].copy_from_slice(&acc.to_array());
    };
    let mut r = 0usize;
    while r + 4 <= n {
        group(r, y);
        r += 4;
    }
    if r < n {
        group(n - 4, y);
    }
}

/// Four rows of exactly `W` entries as the lanes of a [`Lanes4`]
/// multiply-accumulate: each lane is one row's serial chain in CSR entry
/// order, so per-row numerics are exactly the generic walk's. `W` is a
/// compile-time constant, so the loop fully unrolls over fixed-size
/// arrays; the `x` gathers go through the unchecked [`gather`].
#[inline(always)]
fn mac_rows4<T: Scalar, const W: usize>(v: [&[T; W]; 4], s: [&[u32; W]; 4], x: &[T]) -> [T; 4] {
    let mut acc = Lanes4::zero();
    for k in 0..W {
        acc = acc.mul_add(
            Lanes4::new([v[0][k], v[1][k], v[2][k], v[3][k]]),
            Lanes4::new([
                gather(x, s[0][k]),
                gather(x, s[1][k]),
                gather(x, s[2][k]),
                gather(x, s[3][k]),
            ]),
        );
    }
    acc.to_array()
}

/// One row of exactly `W` entries: the scalar tail of [`mac_rows4`].
#[inline(always)]
fn mac_row<T: Scalar, const W: usize>(v: &[T; W], s: &[u32; W], x: &[T]) -> T {
    let mut acc = T::ZERO;
    for k in 0..W {
        acc += v[k] * gather(x, s[k]);
    }
    acc
}

/// Uniform-width band: four rows in flight through [`mac_rows4`], slots
/// and values both at arithmetic offsets.
#[inline]
fn run_fixed<T: Scalar, const W: usize>(
    val_base: usize,
    slots: &[u32],
    vals: &[T],
    x: &[T],
    y: &mut [T],
) {
    debug_assert_slots_in_bounds(slots, x);
    let n = y.len();
    let slot_row = |r: usize| -> &[u32; W] { slots[r * W..(r + 1) * W].try_into().unwrap() };
    let val_row = |r: usize| -> &[T; W] {
        let o = val_base + r * W;
        vals[o..o + W].try_into().unwrap()
    };
    let mut r = 0usize;
    while r + 4 <= n {
        let acc = mac_rows4(
            [val_row(r), val_row(r + 1), val_row(r + 2), val_row(r + 3)],
            [
                slot_row(r),
                slot_row(r + 1),
                slot_row(r + 2),
                slot_row(r + 3),
            ],
            x,
        );
        y[r..r + 4].copy_from_slice(&acc);
        r += 4;
    }
    while r < n {
        y[r] = mac_row(val_row(r), slot_row(r), x);
        r += 1;
    }
}

/// Low-variance ELL band: four lanes run an unconditional common prefix
/// of `min(len0..len3)` slots as [`Lanes4`] multiply-accumulates, then
/// finish interleaved with per-lane length guards, so the accumulator
/// chains stay independent through the ragged region instead of draining
/// one tail loop per lane. Padding slots are never accumulated (adding
/// `0.0 * x` is not a bitwise no-op), and each lane is one row's serial
/// chain; `x` gathers go through the unchecked [`gather`].
#[inline]
fn run_ell<T: Scalar>(
    width: usize,
    band_rp: &[usize],
    slots: &[u32],
    vals: &[T],
    x: &[T],
    y: &mut [T],
) {
    debug_assert_slots_in_bounds(slots, x);
    let n = y.len();
    let row = |r: usize| (band_rp[r], band_rp[r + 1] - band_rp[r]);
    let lane = |r: usize, len: usize| &slots[r * width..r * width + len];
    let mut r = 0usize;
    while r + 4 <= n {
        let (o0, l0) = row(r);
        let (o1, l1) = row(r + 1);
        let (o2, l2) = row(r + 2);
        let (o3, l3) = row(r + 3);
        let (s0, s1, s2, s3) = (
            lane(r, l0),
            lane(r + 1, l1),
            lane(r + 2, l2),
            lane(r + 3, l3),
        );
        let (v0, v1, v2, v3) = (
            &vals[o0..o0 + l0],
            &vals[o1..o1 + l1],
            &vals[o2..o2 + l2],
            &vals[o3..o3 + l3],
        );
        let m = l0.min(l1).min(l2).min(l3);
        let mut acc = Lanes4::zero();
        for k in 0..m {
            acc = acc.mul_add(
                Lanes4::new([v0[k], v1[k], v2[k], v3[k]]),
                Lanes4::new([
                    gather(x, s0[k]),
                    gather(x, s1[k]),
                    gather(x, s2[k]),
                    gather(x, s3[k]),
                ]),
            );
        }
        let [mut a0, mut a1, mut a2, mut a3] = acc.to_array();
        let lmax = l0.max(l1).max(l2).max(l3);
        for k in m..lmax {
            if k < l0 {
                a0 += v0[k] * gather(x, s0[k]);
            }
            if k < l1 {
                a1 += v1[k] * gather(x, s1[k]);
            }
            if k < l2 {
                a2 += v2[k] * gather(x, s2[k]);
            }
            if k < l3 {
                a3 += v3[k] * gather(x, s3[k]);
            }
        }
        y[r] = a0;
        y[r + 1] = a1;
        y[r + 2] = a2;
        y[r + 3] = a3;
        r += 4;
    }
    while r < n {
        let (o, l) = row(r);
        let s = lane(r, l);
        let v = &vals[o..o + l];
        let mut acc = T::ZERO;
        for k in 0..l {
            acc += v[k] * gather(x, s[k]);
        }
        y[r] = acc;
        r += 1;
    }
}

/// Moderate band: CSR walk over packed `u32` slot columns with a `U`-wide
/// unrolled inner loop. One accumulator chain per row keeps the summation
/// order identical to the generic walk.
#[inline]
fn run_unrolled<T: Scalar, const U: usize>(
    band_rp: &[usize],
    slots: &[u32],
    vals: &[T],
    x: &[T],
    y: &mut [T],
) {
    debug_assert_slots_in_bounds(slots, x);
    let base = band_rp[0];
    for (r, yr) in y.iter_mut().enumerate() {
        let (o, e) = (band_rp[r], band_rp[r + 1]);
        let rc = &slots[o - base..e - base];
        let rv = &vals[o..e];
        let mut acc = T::ZERO;
        let mut k = 0usize;
        while k + U <= rc.len() {
            let ca: &[u32; U] = rc[k..k + U].try_into().unwrap();
            let va: &[T; U] = rv[k..k + U].try_into().unwrap();
            for j in 0..U {
                acc += va[j] * x[ca[j] as usize];
            }
            k += U;
        }
        for j in k..rc.len() {
            acc += rv[j] * x[rc[j] as usize];
        }
        *yr = acc;
    }
}

/// Splits a `Sorted` band's slots into its windows: each window's first
/// row (as an offset into the band), its `width + 1` length-class counts,
/// its row order and its packed columns. `band_rp` is the band's slice of
/// the CSR row pointers.
fn sorted_windows<'a>(
    width: usize,
    band_rp: &'a [usize],
    slots: &'a [u32],
) -> impl Iterator<Item = (usize, &'a [u32], &'a [u32], &'a [u32])> {
    let n = band_rp.len() - 1;
    let mut rest = slots;
    (0..n).step_by(SORTED_WINDOW_ROWS).map(move |w0| {
        let rows = (n - w0).min(SORTED_WINDOW_ROWS);
        let (counts, tail) = rest.split_at(width + 1);
        let (order, tail) = tail.split_at(rows);
        let (cols, tail) = tail.split_at(band_rp[w0 + rows] - band_rp[w0]);
        rest = tail;
        (w0, counts, order, cols)
    })
}

/// Length-sorted band: per window, each run of rows of equal length `L`
/// goes through [`run_sorted_class`] monomorphized on `L`, so the only
/// data-dependent trip count left is the run's row count — `width + 1`
/// loop exits per window instead of one or two mispredicted branches per
/// row. Rows are reached through the window's stored order with checked
/// indexing into the window's own slices of `row_ptr` and `y`: a
/// corrupted order panics, it never writes outside its window.
#[inline]
fn run_sorted<T: Scalar>(
    width: usize,
    band_rp: &[usize],
    slots: &[u32],
    vals: &[T],
    x: &[T],
    y: &mut [T],
) {
    for (w0, counts, order, cols) in sorted_windows(width, band_rp, slots) {
        debug_assert_slots_in_bounds(cols, x);
        let rp = &band_rp[w0..w0 + order.len()];
        let y = &mut y[w0..w0 + order.len()];
        let (mut row, mut col) = (0usize, 0usize);
        for (len, &count) in counts.iter().enumerate() {
            let count = count as usize;
            let rows = &order[row..row + count];
            let run = &cols[col..col + count * len];
            row += count;
            col += count * len;
            if len == 0 {
                for &r in rows {
                    y[r as usize] = T::ZERO;
                }
                continue;
            }
            for_width!(len, y, run_sorted_class(rows, run, rp, vals, x, y))
        }
    }
}

/// One run of a `Sorted` window: `rows` all hold exactly `W >= 1` entries
/// and `cols` packs their columns in the same order. Four rows in flight
/// as the lanes of a [`Lanes4`], like [`run_fixed`], with each row's
/// values read from the live CSR at `rp[row]` — each lane is one row's
/// serial chain in CSR entry order.
#[inline]
fn run_sorted_class<T: Scalar, const W: usize>(
    rows: &[u32],
    cols: &[u32],
    rp: &[usize],
    vals: &[T],
    x: &[T],
    y: &mut [T],
) {
    let val_row = |r: u32| -> &[T; W] {
        let o = rp[r as usize];
        vals[o..o + W].try_into().unwrap()
    };
    let mut groups = rows.chunks_exact(4);
    let mut group_cols = cols.chunks_exact(4 * W);
    for (g, s) in groups.by_ref().zip(group_cols.by_ref()) {
        let slot_row = |i: usize| -> &[u32; W] { s[i * W..(i + 1) * W].try_into().unwrap() };
        let acc = mac_rows4(
            [val_row(g[0]), val_row(g[1]), val_row(g[2]), val_row(g[3])],
            [slot_row(0), slot_row(1), slot_row(2), slot_row(3)],
            x,
        );
        for (&r, a) in g.iter().zip(acc) {
            y[r as usize] = a;
        }
    }
    let tail_cols = group_cols.remainder().chunks_exact(W);
    for (&r, s) in groups.remainder().iter().zip(tail_cols) {
        y[r as usize] = mac_row(val_row(r), s.try_into().unwrap(), x);
    }
}

/// Unpackable matrix (`ncols > u32::MAX`): the generic scalar CSR walk over
/// the matrix's own columns, verbatim.
#[inline]
fn run_fallback<T: Scalar>(band_rp: &[usize], cols: &[usize], vals: &[T], x: &[T], y: &mut [T]) {
    for (r, yr) in y.iter_mut().enumerate() {
        let (o, e) = (band_rp[r], band_rp[r + 1]);
        let mut acc = T::ZERO;
        for (&c, &v) in cols[o..e].iter().zip(&vals[o..e]) {
            acc += v * x[c];
        }
        *yr = acc;
    }
}

/// Heavy outlier rows: when the row's columns are one contiguous run
/// (sorted CSR makes this an O(1) check), stream `x` as a slice with no
/// gather; otherwise fall back to the 16-wide unrolled gather.
#[inline]
fn run_dense_row<T: Scalar>(band_rp: &[usize], slots: &[u32], vals: &[T], x: &[T], y: &mut [T]) {
    debug_assert_slots_in_bounds(slots, x);
    let base = band_rp[0];
    for (r, yr) in y.iter_mut().enumerate() {
        let (o, e) = (band_rp[r], band_rp[r + 1]);
        let len = e - o;
        let rc = &slots[o - base..e - base];
        if len > 0 && (rc[len - 1] - rc[0]) as usize == len - 1 {
            let xs = &x[rc[0] as usize..rc[0] as usize + len];
            let mut acc = T::ZERO;
            for (v, xv) in vals[o..e].iter().zip(xs) {
                acc += *v * *xv;
            }
            *yr = acc;
        } else {
            let rv = &vals[o..e];
            let mut acc = T::ZERO;
            let mut k = 0usize;
            while k + 16 <= rc.len() {
                let ca: &[u32; 16] = rc[k..k + 16].try_into().unwrap();
                let va: &[T; 16] = rv[k..k + 16].try_into().unwrap();
                for j in 0..16 {
                    acc += va[j] * x[ca[j] as usize];
                }
                k += 16;
            }
            for j in k..rc.len() {
                acc += rv[j] * x[rc[j] as usize];
            }
            *yr = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// Fast-tier kernels (`DeterminismPolicy::Fast`) for the kinds where one
// row's serial chain is worth breaking. Within-row reassociation is
// reserved for long contiguous runs and `DenseRow` outliers: on the short
// rows of the CSR-walk kinds the out-of-order window already overlaps the
// independent per-row chains, so a per-row lane reduce only adds cost.
// `Diagonal`/`Fixed`/`Ell` have no fast twin — their lanes are whole rows.
// ---------------------------------------------------------------------------

/// Scattered CSR-walk row length at which the fast tier switches from the
/// plain serial chain to the 16-slot-unrolled walk. Below it the unroll
/// bookkeeping costs more than it saves; at or above it the wider body
/// keeps the load ports fed.
const ROW_UNROLL_LEN: usize = 16;

/// One long row's gather dot with reassociated partial-sum lanes — the
/// fast tier's treatment for scattered [`BandKind::DenseRow`] outliers,
/// where a single row's serial chain is long enough that breaking it
/// (which the deterministic contract forbids) pays for the final reduce.
#[inline]
fn row_gather_fast<T: Scalar>(rc: &[u32], rv: &[T], x: &[T]) -> T {
    let len = rc.len();
    let mut acc0 = Lanes4::zero();
    let mut acc1 = Lanes4::zero();
    let mut k = 0usize;
    // Two independent lane chains (eight slots per step) so one chain's
    // multiply-accumulate latency hides behind the other on wide rows.
    while k + 8 <= len {
        let ca: &[u32; 8] = rc[k..k + 8].try_into().unwrap();
        let va: &[T; 8] = rv[k..k + 8].try_into().unwrap();
        acc0 = acc0.mul_add(
            Lanes4::new([va[0], va[1], va[2], va[3]]),
            Lanes4::new([
                gather(x, ca[0]),
                gather(x, ca[1]),
                gather(x, ca[2]),
                gather(x, ca[3]),
            ]),
        );
        acc1 = acc1.mul_add(
            Lanes4::new([va[4], va[5], va[6], va[7]]),
            Lanes4::new([
                gather(x, ca[4]),
                gather(x, ca[5]),
                gather(x, ca[6]),
                gather(x, ca[7]),
            ]),
        );
        k += 8;
    }
    while k + 4 <= len {
        let ca: &[u32; 4] = rc[k..k + 4].try_into().unwrap();
        let va: &[T; 4] = rv[k..k + 4].try_into().unwrap();
        acc0 = acc0.mul_add(
            Lanes4::new(*va),
            Lanes4::new([
                gather(x, ca[0]),
                gather(x, ca[1]),
                gather(x, ca[2]),
                gather(x, ca[3]),
            ]),
        );
        k += 4;
    }
    let mut tail = T::ZERO;
    for j in k..len {
        tail += rv[j] * gather(x, rc[j]);
    }
    acc0.add(acc1).reduce() + tail
}

/// `Unrolled` bands, fast tier: contiguous-column runs become a
/// [`dot_fast`] (long runs) or a serial slice walk (short ones); scattered
/// rows keep the serial per-row chain — plain below
/// [`ROW_UNROLL_LEN`] slots (the out-of-order window already overlaps
/// adjacent rows' independent chains there, so unroll machinery is pure
/// overhead), 16-slot-unrolled above it — with every `x` load through the
/// unchecked [`gather`].
#[inline]
fn run_rows_fast<T: Scalar>(band_rp: &[usize], slots: &[u32], vals: &[T], x: &[T], y: &mut [T]) {
    debug_assert_slots_in_bounds(slots, x);
    let base = band_rp[0];
    for (r, yr) in y.iter_mut().enumerate() {
        let (o, e) = (band_rp[r], band_rp[r + 1]);
        let len = e - o;
        let rc = &slots[o - base..e - base];
        let rv = &vals[o..e];
        if len > 0 && (rc[len - 1] - rc[0]) as usize == len - 1 {
            let xs = &x[rc[0] as usize..rc[0] as usize + len];
            *yr = if len >= ROW_UNROLL_LEN {
                dot_fast(rv, xs)
            } else {
                let mut acc = T::ZERO;
                for (v, xv) in rv.iter().zip(xs) {
                    acc += *v * *xv;
                }
                acc
            };
        } else if len < ROW_UNROLL_LEN {
            let mut acc = T::ZERO;
            for (&c, &v) in rc.iter().zip(rv) {
                acc += v * gather(x, c);
            }
            *yr = acc;
        } else {
            let mut acc = T::ZERO;
            let mut k = 0usize;
            while k + 16 <= len {
                let ca: &[u32; 16] = rc[k..k + 16].try_into().unwrap();
                let va: &[T; 16] = rv[k..k + 16].try_into().unwrap();
                for j in 0..16 {
                    acc += va[j] * gather(x, ca[j]);
                }
                k += 16;
            }
            for j in k..len {
                acc += rv[j] * gather(x, rc[j]);
            }
            *yr = acc;
        }
    }
}

/// Heavy outlier rows, fast tier: the contiguous-column fast path becomes
/// a lane-wise [`dot_fast`] over the `x` slice; scattered rows use the
/// 4-lane gather reduction.
#[inline]
fn run_dense_row_fast<T: Scalar>(
    band_rp: &[usize],
    slots: &[u32],
    vals: &[T],
    x: &[T],
    y: &mut [T],
) {
    debug_assert_slots_in_bounds(slots, x);
    let base = band_rp[0];
    for (r, yr) in y.iter_mut().enumerate() {
        let (o, e) = (band_rp[r], band_rp[r + 1]);
        let len = e - o;
        let rc = &slots[o - base..e - base];
        if len > 0 && (rc[len - 1] - rc[0]) as usize == len - 1 {
            let xs = &x[rc[0] as usize..rc[0] as usize + len];
            *yr = dot_fast(&vals[o..e], xs);
        } else {
            *yr = row_gather_fast(rc, &vals[o..e], x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{self, RowDistribution};
    use crate::CooMatrix;
    use DeterminismPolicy::{Deterministic, Fast};

    fn dense_x(ncols: usize) -> Vec<f64> {
        (0..ncols)
            .map(|i| ((i % 11) as f64 - 5.0) * 0.37 + if i % 3 == 0 { -0.0 } else { 0.25 })
            .collect()
    }

    fn assert_bitwise_equal(a: &CsrMatrix<f64>, plan: &CompiledSpmv) {
        let x = dense_x(a.ncols());
        let expected = a.mul_vec(&x).unwrap();
        let mut y = vec![f64::NAN; a.nrows()];
        plan.execute(Deterministic, a, &x, &mut y).unwrap();
        for (i, (got, want)) in y.iter().zip(&expected).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "row {i}: compiled {got} != generic {want}"
            );
        }
    }

    #[test]
    fn compiled_matches_generic_on_structured_matrices() {
        let mats: Vec<CsrMatrix<f64>> = vec![
            generate::poisson1d(64),
            generate::poisson2d(13, 17),
            generate::random_pattern(300, RowDistribution::Uniform { min: 1, max: 40 }, 7),
            generate::random_pattern(
                257,
                RowDistribution::Bimodal {
                    low: 3,
                    high: 150,
                    high_fraction: 0.04,
                },
                11,
            ),
        ];
        for a in &mats {
            let plan = CompiledSpmv::compile_default(a);
            assert!(plan.verify_pattern(a));
            assert_bitwise_equal(a, &plan);
        }
    }

    #[test]
    fn compiled_respects_schedule_hints_and_covers_all_kinds() {
        let a = generate::random_pattern::<f64>(
            400,
            RowDistribution::Bimodal {
                low: 5,
                high: 200,
                high_fraction: 0.03,
            },
            5,
        );
        let hints = vec![
            BandHint {
                rows: 0..100,
                unroll: 2,
            },
            BandHint {
                rows: 100..250,
                unroll: 8,
            },
            BandHint {
                rows: 250..400,
                unroll: 32,
            },
        ];
        let plan = CompiledSpmv::compile(&a, &hints).unwrap();
        // Bands tile the row space contiguously, in order, and never cross
        // a hint boundary; every Unrolled band carries the (clamped) unroll
        // factor of the hint that contains it.
        let mut next = 0usize;
        for band in plan.bands() {
            assert_eq!(band.rows.start, next);
            next = band.rows.end;
            let h = hints
                .iter()
                .find(|h| h.rows.contains(&band.rows.start))
                .unwrap();
            assert!(band.rows.end <= h.rows.end, "band crosses a hint edge");
            if let BandKind::Unrolled { unroll } = band.kind {
                assert_eq!(unroll, clamp_unroll(h.unroll));
            }
        }
        assert_eq!(next, a.nrows());
        assert!(plan.verify_pattern(&a));
        assert_bitwise_equal(&a, &plan);
    }

    #[test]
    fn uniform_matrix_compiles_to_fixed_bands() {
        let a = generate::random_pattern::<f64>(128, RowDistribution::Constant(6), 3);
        let plan = CompiledSpmv::compile_default(&a);
        assert!(plan
            .bands()
            .iter()
            .all(|b| b.kind == BandKind::Fixed { width: 7 }));
        assert_bitwise_equal(&a, &plan);
    }

    #[test]
    fn empty_and_zero_row_matrices_execute() {
        let empty = CooMatrix::<f64>::new(0, 0).to_csr();
        let plan = CompiledSpmv::compile(&empty, &[]).unwrap();
        let mut y: Vec<f64> = vec![];
        plan.execute(Deterministic, &empty, &[], &mut y).unwrap();

        let zeros = CooMatrix::<f64>::new(9, 4).to_csr();
        let plan = CompiledSpmv::compile_default(&zeros);
        let mut y = vec![f64::NAN; 9];
        plan.execute(Deterministic, &zeros, &[1.0; 4], &mut y)
            .unwrap();
        assert_eq!(y, vec![0.0; 9]);
    }

    #[test]
    fn padding_slots_are_never_accumulated() {
        // Accumulating a padding slot as `+ 0.0 * x[c]` is not a no-op:
        // with a non-finite x[c] it injects NaN (0.0 * inf). Rows the
        // pattern says don't touch the inf column must not see it.
        let mut coo = CooMatrix::<f64>::new(12, 6);
        for i in 0..12 {
            if i % 2 == 0 {
                // Even rows: {0..=4} — these legitimately see the inf.
                coo.push(i, 0, 1.0).unwrap();
            }
            // All rows: {1..=4}. Ragged lengths (4/5) force an Ell band
            // whose padding stays under the narrow-band budget.
            for c in 1..5 {
                coo.push(i, c, 1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let plan = CompiledSpmv::compile_default(&a);
        assert!(plan
            .bands()
            .iter()
            .any(|b| matches!(b.kind, BandKind::Ell { width: 5 })));
        let x = vec![f64::INFINITY, 1.0, 1.0, 1.0, 1.0, 1.0];
        let expected = a.mul_vec(&x).unwrap();
        let mut y = vec![0.0; 12];
        plan.execute(Deterministic, &a, &x, &mut y).unwrap();
        for (i, (got, want)) in y.iter().zip(&expected).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "row {i}");
        }
        // Odd rows never touch column 0, so they stay exactly 4.0.
        assert!(y.iter().skip(1).step_by(2).all(|&v| v == 4.0));
        assert!(y.iter().step_by(2).all(|&v| v == f64::INFINITY));
    }

    #[test]
    fn hint_tiling_is_validated() {
        let a = generate::poisson1d::<f64>(16);
        let gap = vec![
            BandHint {
                rows: 0..8,
                unroll: 4,
            },
            BandHint {
                rows: 10..16,
                unroll: 4,
            },
        ];
        assert!(CompiledSpmv::compile(&a, &gap).is_err());
        let short = vec![BandHint {
            rows: 0..8,
            unroll: 4,
        }];
        assert!(CompiledSpmv::compile(&a, &short).is_err());
        assert!(CompiledSpmv::compile(&a, &[]).is_err());
    }

    #[test]
    fn plan_shape_mismatch_is_rejected() {
        let a = generate::poisson1d::<f64>(16);
        let b = generate::poisson1d::<f64>(17);
        let plan = CompiledSpmv::compile_default(&a);
        assert!(!plan.matches(&b));
        let mut y = vec![0.0; 17];
        assert!(plan.execute(Deterministic, &b, &[1.0; 17], &mut y).is_err());
    }

    #[test]
    fn execute_dot_matches_unfused() {
        let a =
            generate::random_pattern::<f64>(200, RowDistribution::Uniform { min: 1, max: 20 }, 41);
        let plan = CompiledSpmv::compile_default(&a);
        let x = dense_x(a.ncols());
        let z: Vec<f64> = (0..a.nrows()).map(|i| (i as f64).sin()).collect();
        let mut y_ref = vec![0.0f64; a.nrows()];
        plan.execute(Deterministic, &a, &x, &mut y_ref).unwrap();
        let dot_ref: f64 = y_ref
            .iter()
            .zip(&z)
            .map(|(a, b)| a * b)
            .fold(0.0, |s, v| s + v);
        let mut y = vec![0.0f64; a.nrows()];
        let dot = plan.execute_dot(Deterministic, &a, &x, &mut y, &z).unwrap();
        assert_eq!(dot.to_bits(), dot_ref.to_bits());
        for (got, want) in y.iter().zip(&y_ref) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn fast_execution_matches_deterministic_within_ulp_on_all_kinds() {
        // Same matrix mix as the bitwise suite: covers Fixed, Ell,
        // Sorted, Unrolled, and DenseRow bands.
        let mats: Vec<CsrMatrix<f64>> = vec![
            generate::poisson1d(64),
            generate::poisson2d(13, 17),
            generate::random_pattern(300, RowDistribution::Uniform { min: 1, max: 40 }, 7),
            generate::random_pattern(
                257,
                RowDistribution::Bimodal {
                    low: 3,
                    high: 150,
                    high_fraction: 0.04,
                },
                11,
            ),
        ];
        for a in &mats {
            let plan = CompiledSpmv::compile_default(a);
            let x = dense_x(a.ncols());
            let mut det = vec![f64::NAN; a.nrows()];
            plan.execute(Deterministic, a, &x, &mut det).unwrap();
            let mut fast = vec![f64::NAN; a.nrows()];
            plan.execute(Fast, a, &x, &mut fast).unwrap();
            for (i, (f, d)) in fast.iter().zip(&det).enumerate() {
                // Reassociation error is relative to the magnitude of the
                // accumulated terms, not the (possibly cancelled) result:
                // bound by a few eps of Σ|v·x| for the row.
                let (cols, vals) = a.row(i);
                let mag: f64 = cols.iter().zip(vals).map(|(&c, &v)| (v * x[c]).abs()).sum();
                let tol = 4.0 * f64::EPSILON * mag;
                assert!(
                    (*f - *d).abs() <= tol,
                    "row {i}: fast {f} vs deterministic {d} (tol {tol})"
                );
            }
        }
    }

    #[test]
    fn tiers_agree_bitwise_on_diagonal_fixed_and_ell_plans() {
        // These kinds interleave whole rows across lanes — one kernel, no
        // reassociation — so a plan made only of them produces the same
        // bytes on both tiers; `Fast` differs only on the CSR-walk kinds,
        // `DenseRow`, and the fused dot.
        let mut ragged = CooMatrix::<f64>::new(40, 12);
        for i in 0..40 {
            for c in (i % 3)..(i % 3) + 5 + i % 2 {
                ragged.push(i, c, 0.5 + (i * 7 + c) as f64 * 0.01).unwrap();
            }
        }
        let mats: Vec<CsrMatrix<f64>> = vec![
            generate::random_pattern(128, RowDistribution::Constant(6), 3),
            generate::poisson2d(12, 40),
            generate::poisson3d(11, 5, 4),
            ragged.to_csr(),
        ];
        let mut seen = [false; 3];
        for a in &mats {
            let plan = CompiledSpmv::compile_default(a);
            for b in plan.bands() {
                match b.kind {
                    BandKind::Diagonal { .. } => seen[0] = true,
                    BandKind::Fixed { .. } => seen[1] = true,
                    BandKind::Ell { .. } => seen[2] = true,
                    other => panic!("unexpected band kind {other:?}"),
                }
            }
            let x = dense_x(a.ncols());
            let mut det = vec![0.0f64; a.nrows()];
            plan.execute(Deterministic, a, &x, &mut det).unwrap();
            let mut fast = vec![0.0f64; a.nrows()];
            plan.execute(Fast, a, &x, &mut fast).unwrap();
            for (f, d) in fast.iter().zip(&det) {
                assert_eq!(f.to_bits(), d.to_bits());
            }
            assert_bitwise_equal(a, &plan);
        }
        assert_eq!(seen, [true; 3], "every interleaved kind must be covered");
    }

    #[test]
    fn fast_execute_dot_stays_close_to_deterministic() {
        let a =
            generate::random_pattern::<f64>(200, RowDistribution::Uniform { min: 1, max: 20 }, 41);
        let plan = CompiledSpmv::compile_default(&a);
        let x = dense_x(a.ncols());
        let z: Vec<f64> = (0..a.nrows()).map(|i| (i as f64).sin()).collect();
        let mut y_det = vec![0.0f64; a.nrows()];
        let dot_det = plan
            .execute_dot(Deterministic, &a, &x, &mut y_det, &z)
            .unwrap();
        let mut y = vec![0.0f64; a.nrows()];
        let dot = plan.execute_dot(Fast, &a, &x, &mut y, &z).unwrap();
        for (i, (f, d)) in y.iter().zip(&y_det).enumerate() {
            let (cols, vals) = a.row(i);
            let mag: f64 = cols.iter().zip(vals).map(|(&c, &v)| (v * x[c]).abs()).sum();
            assert!((*f - *d).abs() <= 4.0 * f64::EPSILON * mag, "row {i}");
        }
        let tol = 1e-12 * (1.0 + dot_det.abs());
        assert!((dot - dot_det).abs() <= tol, "{dot} vs {dot_det}");
        // Shape errors do not depend on the tier.
        assert!(plan.execute_dot(Fast, &a, &x, &mut y, &z[1..]).is_err());
    }

    /// ROADMAP item 5's audit: every packed slot (padding included) is a
    /// column of the matrix, and a Diagonal band's windows
    /// `first[k] .. first[k] + rows` end inside `x` — the preconditions of
    /// the one unchecked gather and of the window slices.
    fn assert_slots_in_bounds(plan: &CompiledSpmv, ctx: &str) {
        let owned: usize = (0..plan.bands.len())
            .map(|b| plan.band_slots(b).len())
            .sum();
        assert_eq!(owned, plan.slot_cols.len(), "{ctx}: unowned slots");
        for (b, band) in plan.bands.iter().enumerate() {
            let reach = match band.kind {
                BandKind::Diagonal { .. } => band.len(),
                _ => 1,
            };
            for &slot in plan.band_slots(b) {
                assert!(
                    slot as usize + reach <= plan.ncols,
                    "{ctx}: band {b} ({:?}, {} rows) slot {slot} escapes {} columns",
                    band.kind,
                    band.len(),
                    plan.ncols
                );
            }
        }
    }

    #[test]
    fn every_slot_and_window_stays_in_bounds_for_compile_and_compile_default() {
        let mut systems: Vec<(String, CsrMatrix<f64>)> = vec![
            ("poisson2d".into(), generate::poisson2d(31, 9)),
            ("poisson3d".into(), generate::poisson3d(9, 6, 5)),
            ("tridiagonal".into(), generate::poisson1d(70)),
            (
                "banded".into(),
                generate::banded(90, &[(-20, 1.0), (0, 4.0), (1, 1.0), (33, 2.0)]),
            ),
        ];
        for case in 0..64u64 {
            let dist = match case % 4 {
                0 => RowDistribution::Constant(3 + (case % 5) as usize),
                1 => RowDistribution::Uniform {
                    min: 1,
                    max: 9 + (case % 8) as usize,
                },
                2 => RowDistribution::Bimodal {
                    low: 2,
                    high: 24 + (case % 16) as usize,
                    high_fraction: 0.1,
                },
                _ => RowDistribution::PowerLaw {
                    min: 1,
                    max: 60,
                    exponent: 1.8,
                },
            };
            let n = 96 + 13 * case as usize;
            systems.push((
                format!("seeded-{case}"),
                generate::random_pattern(n, dist, 0x51_07 + case),
            ));
        }
        for (name, a) in &systems {
            let n = a.nrows();
            let hints: Vec<BandHint> = [0..n / 4, n / 4..n / 2, n / 2..n]
                .into_iter()
                .zip([2, 8, 16])
                .map(|(rows, unroll)| BandHint { rows, unroll })
                .collect();
            let plan = CompiledSpmv::compile(a, &hints).unwrap();
            assert_slots_in_bounds(&plan, &format!("{name}: compile"));
            let default = CompiledSpmv::compile_default(a);
            assert_slots_in_bounds(&default, &format!("{name}: compile_default"));
        }
    }

    #[test]
    fn corrupted_slot_fails_pattern_verification() {
        // An out-of-bounds or shifted slot column (stale plan, cache
        // corruption) must be visible to the deep check both tiers run
        // under debug_assert — in a Diagonal band's `W` first-row slots as
        // much as in a packed-slot band's.
        let a = generate::poisson2d::<f64>(12, 3);
        let plan = CompiledSpmv::compile_default(&a);
        assert!(plan.verify_pattern(&a));
        for (b, band) in plan.bands().iter().enumerate() {
            let slots = plan.band_slots(b);
            // Slot 0 is always a real column (padding sits at row ends).
            let mut cases = vec![(0, a.ncols() as u32 + 7), (0, slots[0] + 1)];
            if let BandKind::Diagonal { width } = band.kind {
                assert_eq!(slots.len(), width);
                cases.push((width - 1, slots[width - 1] - 1));
            }
            for (at, bad) in cases {
                let mut stale = plan.clone();
                stale.slot_cols[band.slot_base + at] = bad;
                assert!(!stale.verify_pattern(&a), "band {b} slot {at} -> {bad}");
            }
        }
    }

    /// A ragged matrix whose default plan is one Sorted band: lengths
    /// 0..=6 in a period of seven, columns scattered.
    fn ragged(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::<f64>::new(n, 61);
        for r in 0..n {
            for k in 0..(r * 5 + r / 7) % 7 {
                coo.push(r, (r * 3 + k * 5) % 61, 1.0 + k as f64).unwrap();
            }
        }
        coo.to_csr()
    }

    /// Offsets into `slot_cols` of a Sorted band's first window: its
    /// counts, its order and its columns.
    fn first_window(plan: &CompiledSpmv, band: usize) -> (usize, usize, usize) {
        let b = &plan.bands[band];
        let BandKind::Sorted { width } = b.kind else {
            panic!("band {band} is {:?}", b.kind);
        };
        let counts = b.slot_base;
        let order = counts + width + 1;
        (counts, order, order + b.len().min(SORTED_WINDOW_ROWS))
    }

    #[test]
    fn corrupted_sorted_order_counts_or_slot_fails_pattern_verification() {
        let a = ragged(700);
        let plan = CompiledSpmv::compile_default(&a);
        assert!(plan.verify_pattern(&a));
        let (counts, order, cols) = first_window(&plan, 0);
        let stale = |edit: &dyn Fn(&mut Vec<u32>)| {
            let mut stale = plan.clone();
            edit(&mut stale.slot_cols);
            stale.verify_pattern(&a)
        };
        // Not a permutation: one row twice (its twin never runs), or an
        // entry outside the window.
        assert!(!stale(&|s| s[order + 1] = s[order]));
        assert!(!stale(&|s| s[order] = SORTED_WINDOW_ROWS as u32));
        // A permutation, but not in ascending length: the first row of the
        // shortest class traded with the last of the longest.
        assert!(!stale(&|s| s.swap(order, order + SORTED_WINDOW_ROWS - 1)));
        // Ascending length but unstable: two rows of one class traded.
        assert!(!stale(&|s| s.swap(order, order + 1)));
        // Class counts that move a row into its neighbour's class, or that
        // no longer cover the window.
        assert!(!stale(&|s| {
            s[counts + 1] += 1;
            s[counts + 2] -= 1;
        }));
        assert!(!stale(&|s| s[counts + 3] -= 1));
        // A shifted or out-of-range column slot, first and last of the band.
        assert!(!stale(&|s| s[cols] += 1));
        assert!(!stale(&|s| s[cols] = a.ncols() as u32 + 7));
        let last = plan.bands[0].slot_base + plan.band_slots(0).len() - 1;
        assert!(!stale(&|s| s[last] ^= 1));
    }

    #[test]
    fn corrupted_sorted_order_panics_and_never_writes_outside_its_band() {
        // Three hints, the middle one a Sorted band of 600 rows whose order
        // is corrupted to reach past its window, run without the entry
        // points' debug-build pattern check: the checked index into the
        // window's own slices stops it, and the rows of the bands around
        // it keep what they held.
        let a = ragged(1000);
        let hints: Vec<BandHint> = [0..200, 200..800, 800..1000]
            .into_iter()
            .map(|rows| BandHint { rows, unroll: 4 })
            .collect();
        let mut plan = CompiledSpmv::compile(&a, &hints).unwrap();
        let (_, order, _) = first_window(&plan, 1);
        for (at, bad) in [(order, 512), (order + 300, 700), (order + 511, u32::MAX)] {
            let mut stale = plan.clone();
            stale.slot_cols[at] = bad;
            let x = dense_x(a.ncols());
            let mut y = vec![f64::NAN; a.nrows()];
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Only the corrupted band: the others never run.
                stale.run_span::<f64, false>(1..2, &a, &x, &mut y[200..800]);
            }));
            assert!(run.is_err(), "order[{at}] = {bad} did not panic");
            assert!(y[..200].iter().chain(&y[800..]).all(|v| v.is_nan()));
        }
        // An in-window duplicate is not a panic — and still stays inside
        // the window it names.
        let first = plan.slot_cols[order];
        plan.slot_cols[order + 1] = first;
        let x = dense_x(a.ncols());
        let mut y = vec![f64::NAN; a.nrows()];
        plan.run_span::<f64, false>(1..2, &a, &x, &mut y[200..800]);
        assert!(y[..200].iter().chain(&y[800..]).all(|v| v.is_nan()));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pattern mismatch")]
    fn corrupted_slot_panics_before_execution_in_debug() {
        let a = generate::poisson1d::<f64>(32);
        let mut plan = CompiledSpmv::compile_default(&a);
        assert!(matches!(plan.bands()[1].kind, BandKind::Diagonal { .. }));
        let slot = plan.bands()[1].slot_base + 1;
        plan.slot_cols[slot] = a.ncols() as u32 + 7;
        let x = dense_x(a.ncols());
        let mut y = vec![0.0f64; a.nrows()];
        let _ = plan.execute(Deterministic, &a, &x, &mut y);
    }
}
