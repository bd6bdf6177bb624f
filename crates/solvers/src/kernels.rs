//! Compute kernels and the [`Kernels`] execution abstraction.
//!
//! Each solver in this crate is written once against the [`Kernels`] trait.
//! [`SoftwareKernels`] executes them directly (with FLOP accounting);
//! `acamar-fabric` provides an implementation that additionally models
//! FPGA cycles, resource utilization, and partial reconfiguration. This
//! mirrors the paper's split between the algorithms (Section II-B) and
//! their hardware execution (Section IV).

use crate::fused::{self, Serial};
use crate::ic0::Ic0;
use crate::workspace::WorkspaceHandle;
use acamar_sparse::simd::{self, FastDot};
use acamar_sparse::{
    BandHint, CompiledSpmv, CompiledSptrsv, CsrMatrix, DeterminismPolicy, Ic0Refusal, Ic0Schedule,
    JacobiSplit, LevelOrdered, Scalar, SparseError,
};
use acamar_telemetry::{Counter, EventKind, TelemetrySink};
use std::sync::{Arc, OnceLock};

/// Execution phase of a solver, reported to the kernel executor.
///
/// The paper's Initialize unit runs pre-loop operations on a *static*
/// (un-reconfigured) SpMV engine, while loop-phase SpMV runs on the Dynamic
/// SpMV Kernel (Section IV-B); hardware models use this distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Pre-loop operations (Algorithm 1 lines 1–7, Algorithm 2/3 line 2).
    Initialize,
    /// The iterative solver loop.
    Loop,
}

/// Operation counters accumulated by a kernel executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Floating-point operations inside SpMV calls (2 per stored entry).
    pub spmv_flops: u64,
    /// Floating-point operations in dense vector kernels.
    pub dense_flops: u64,
    /// Number of SpMV invocations.
    pub spmv_calls: u64,
    /// Stored entries processed across all SpMV calls.
    pub spmv_nnz_processed: u64,
    /// Number of dense kernel invocations (dot/axpy/etc.).
    pub dense_calls: u64,
}

impl OpCounts {
    /// Total floating-point operations.
    pub fn total_flops(&self) -> u64 {
        self.spmv_flops + self.dense_flops
    }

    /// Counts accumulated since `earlier` (which must be a prior snapshot
    /// of the same executor).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter of `earlier` exceeds `self`.
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            spmv_flops: self.spmv_flops - earlier.spmv_flops,
            dense_flops: self.dense_flops - earlier.dense_flops,
            spmv_calls: self.spmv_calls - earlier.spmv_calls,
            spmv_nnz_processed: self.spmv_nnz_processed - earlier.spmv_nnz_processed,
            dense_calls: self.dense_calls - earlier.dense_calls,
        }
    }

    /// Fraction of FLOPs spent in SpMV (0 when nothing ran).
    pub fn spmv_flop_share(&self) -> f64 {
        let t = self.total_flops();
        if t == 0 {
            0.0
        } else {
            self.spmv_flops as f64 / t as f64
        }
    }
}

/// One primitive dense-vector kernel call: the unit an executor counts
/// and the fabric model prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DenseOp {
    /// [`Kernels::dot`]: a multiply-add per element through the reduction
    /// tree.
    Dot,
    /// [`Kernels::axpy`]: a multiply-add per element.
    Axpy,
    /// [`Kernels::xpby`]: a multiply-add per element.
    Xpby,
    /// [`Kernels::scale`]: a multiply per element.
    Scale,
    /// [`Kernels::hadamard`]: a multiply per element.
    Hadamard,
    /// [`Kernels::copy`]: a buffer move, no arithmetic.
    Copy,
}

impl DenseOp {
    /// Floating-point operations the call performs per vector element.
    const fn flops_per_element(self) -> u64 {
        match self {
            DenseOp::Dot | DenseOp::Axpy | DenseOp::Xpby => 2,
            DenseOp::Scale | DenseOp::Hadamard => 1,
            DenseOp::Copy => 0,
        }
    }
}

/// The fused dense passes of [`Kernels`], each with the sequence of
/// primitive calls it stands for.
///
/// A fused pass is a host optimization — one sweep over vectors the
/// primitives would stream once per call — and never a change to what is
/// computed or billed. Its contract has three parts: the trait's default
/// method *runs* the unfused sequence (the oracle every override is tested
/// against, bit for bit); [`unfused`](FusedPass::unfused) *declares* it,
/// once, for [`SoftwareKernels`] to count from and the fabric executor to
/// price from, call by call in this order; and an override's arithmetic
/// performs, per element and per reduction, the same operations in the
/// same order.
///
/// Some passes also accumulate a dot product the solver needs *later* —
/// a **carried reduction**, returned as `Some` beside the pass's own
/// results and not part of its sequence. The solver hands it to
/// [`Kernels::dot_carried`] at the point the unfused algorithm computed
/// that dot, and it is counted and priced there: an iteration that breaks
/// before the point is not billed for a product it never asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusedPass {
    /// [`Kernels::jacobi_step`].
    JacobiStep,
    /// [`Kernels::waxpy`].
    Waxpy,
    /// [`Kernels::dot_pair`].
    DotPair,
    /// [`Kernels::cg_update`]; carries `r·r`.
    CgUpdate,
    /// [`Kernels::bicgstab_update`]; carries `r·r` and `r·r₀*`.
    BicgstabUpdate,
    /// [`Kernels::bicgstab_direction`].
    BicgstabDirection,
}

impl FusedPass {
    /// Every pass, in declaration order.
    pub const ALL: [FusedPass; 6] = [
        FusedPass::JacobiStep,
        FusedPass::Waxpy,
        FusedPass::DotPair,
        FusedPass::CgUpdate,
        FusedPass::BicgstabUpdate,
        FusedPass::BicgstabDirection,
    ];

    /// The primitive calls the pass replaces, in the order the unfused
    /// solver issued them.
    pub const fn unfused(self) -> &'static [DenseOp] {
        use DenseOp::{Axpy, Copy, Dot, Hadamard, Xpby};
        match self {
            FusedPass::JacobiStep => &[Copy, Axpy, Copy, Axpy, Hadamard, Dot],
            FusedPass::Waxpy => &[Copy, Axpy],
            FusedPass::DotPair => &[Dot, Dot],
            FusedPass::CgUpdate => &[Axpy, Axpy],
            FusedPass::BicgstabUpdate => &[Axpy, Axpy, Copy, Axpy],
            FusedPass::BicgstabDirection => &[Axpy, Xpby],
        }
    }
}

/// Pattern identity of a sparse operand: where its row pointers live, plus
/// its row and stored-entry counts.
///
/// Solvers pass the coefficient matrix *and* derived operands of the same
/// shape through [`Kernels::spmv`] — BiCG's `Aᵀ` even has `A`'s entry
/// count — so per-matrix artifacts (a compiled plan, memoised fabric cycle
/// prices) are tied to the operand they were built for by identity, in
/// O(1), instead of by shape. A matrix's index arrays are shared by
/// reference count (`CsrPattern`), so the identity names a *pattern*:
/// clones of a matrix, and every Jacobi operand filled from one
/// [`JacobiSplit`], carry the same identity — as they should, since a plan
/// and a cycle price depend on nothing but the pattern — while `Aᵀ`, built
/// into arrays of its own, never carries `A`'s, even when the two patterns
/// are equal. The identity is only meaningful while some matrix of the
/// pattern is alive, which holds within one solver attempt (every operand
/// outlives the loop that multiplies by it); holders drop their records
/// when an attempt starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperandId {
    row_ptr: usize,
    nrows: usize,
    nnz: usize,
}

impl OperandId {
    /// The identity of `a`'s pattern storage.
    pub fn of<T: Scalar>(a: &CsrMatrix<T>) -> Self {
        OperandId {
            row_ptr: a.row_ptr().as_ptr() as usize,
            nrows: a.nrows(),
            nnz: a.nnz(),
        }
    }
}

/// Pattern-only memo of everything about the operands solvers *derive*
/// from the coefficient matrix that does not depend on values. Two
/// halves, filled independently:
///
/// * Jacobi's `T = D⁻¹(L + U)`, whose pattern is the coefficient matrix's
///   minus the diagonal: the [`JacobiSplit`] (`T`'s index arrays and each
///   row's diagonal slot) and `T`'s [`CompiledSpmv`].
/// * IC(0)'s factors `L` and `Lᵀ`, whose patterns are the coefficient
///   matrix's lower triangle and its transpose: the [`Ic0Schedule`], which
///   holds the two substitution plans the factors are laid out in.
///
/// The memo carries the coefficient matrix's MSID band hints (`T` has the
/// same rows) and starts empty: nothing is built for a pattern no solver
/// derives an operand from. The first attempt that asks for its operand
/// through [`Kernels::derived_operand`] or [`Kernels::ic0_factors`] builds
/// that half — exactly once, however many workers race on a cold pattern —
/// and every later attempt on the pattern only fills values. The
/// substitution plans are published ([`DerivedPlan::sptrsv`]) by the first
/// factorization that succeeds on the pattern.
#[derive(Debug)]
pub struct DerivedPlan {
    hints: Vec<BandHint>,
    /// `Some(None)` records a pattern with a structurally missing
    /// diagonal: Jacobi breaks down on it, so nothing is kept.
    operand: OnceLock<Option<DerivedOperand>>,
    /// `Some(None)` records a pattern IC(0) cannot be scheduled on (a
    /// structurally missing diagonal).
    ic0: OnceLock<Option<Ic0Schedule>>,
    sptrsv: OnceLock<Arc<(CompiledSptrsv, CompiledSptrsv)>>,
}

#[derive(Debug)]
struct DerivedOperand {
    split: JacobiSplit,
    /// `None` records hints that do not tile the operand: such a pattern
    /// stays on the plan-less walk instead of recompiling per solve.
    plan: Option<Arc<CompiledSpmv>>,
}

impl DerivedPlan {
    /// An empty memo that will compile against `hints`.
    pub fn new(hints: Vec<BandHint>) -> Self {
        DerivedPlan {
            hints,
            operand: OnceLock::new(),
            ic0: OnceLock::new(),
            sptrsv: OnceLock::new(),
        }
    }

    /// The memoised plan, if an attempt has built it.
    pub fn get(&self) -> Option<&Arc<CompiledSpmv>> {
        self.built().and_then(|o| o.plan.as_ref())
    }

    /// The memoised split, if an attempt has built it.
    pub fn split(&self) -> Option<&JacobiSplit> {
        self.built().map(|o| &o.split)
    }

    /// The memoised IC(0) schedule, if a preconditioned attempt has built it.
    pub fn ic0_schedule(&self) -> Option<&Ic0Schedule> {
        self.ic0.get().and_then(Option::as_ref)
    }

    /// The memoised substitution plans (`L`'s, `Lᵀ`'s) — the schedule's —
    /// if an attempt has factored on the pattern.
    pub fn sptrsv(&self) -> Option<&Arc<(CompiledSptrsv, CompiledSptrsv)>> {
        self.sptrsv.get()
    }

    fn built(&self) -> Option<&DerivedOperand> {
        self.operand.get().and_then(Option::as_ref)
    }

    /// `T` for `a` with its plan: built with the memo by the first caller
    /// on the pattern, filled from the memo by every later one. A memo
    /// that does not fit `a` — a pattern without a full diagonal, or a
    /// split whose slots `a` contradicts — is left alone and `T` is built
    /// as if there were none, which is counted.
    fn operand_for<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        mut values: Vec<T>,
        diag: &mut [T],
        inv_diag: &mut [T],
        telemetry: &TelemetrySink,
    ) -> (CsrMatrix<T>, Option<Arc<CompiledSpmv>>) {
        let mut first = None;
        let memo = self.operand.get_or_init(|| {
            let split = JacobiSplit::of(a);
            if !split.has_full_diagonal() {
                return None;
            }
            telemetry.counter_add(Counter::DerivedPlansBuilt, 1);
            let t = fill_own_split(&split, a, std::mem::take(&mut values), diag, inv_diag);
            let plan = CompiledSpmv::compile(&t, &self.hints).ok().map(Arc::new);
            first = Some(t);
            Some(DerivedOperand { split, plan })
        });
        if let (Some(t), Some(memo)) = (first, memo) {
            return (t, memo.plan.clone());
        }
        let values = match memo {
            Some(memo) => match memo.split.fill(a, values, diag, inv_diag) {
                Ok(t) => return (t, memo.plan.clone()),
                Err(values) => values,
            },
            None => values,
        };
        telemetry.counter_add(Counter::DerivedSplitRebuilds, 1);
        (uncached_operand(a, values, diag, inv_diag), None)
    }

    /// IC(0) of `a` into the two buffers: the schedule is built by the
    /// first caller on the pattern and replayed by every one, and the
    /// first replay that succeeds publishes its substitution plans. A memo
    /// that does not fit `a` — a
    /// pattern that cannot be scheduled, or a schedule whose diagonal
    /// slots `a` contradicts — is left alone and `a` is factored as if
    /// there were none, which is counted.
    fn ic0_for<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        mut lower: Vec<T>,
        mut upper: Vec<T>,
        telemetry: &TelemetrySink,
    ) -> Result<Ic0<T>, (SparseError, [Vec<T>; 2])> {
        let memo = self.ic0.get_or_init(|| {
            let schedule = Ic0Schedule::of(a).ok()?;
            telemetry.counter_add(Counter::Ic0SchedulesBuilt, 1);
            Some(schedule)
        });
        if let Some(schedule) = memo {
            match Ic0::replay(schedule, a, lower, upper) {
                Ok(factors) => {
                    self.sptrsv.get_or_init(|| Arc::clone(schedule.plans()));
                    return Ok(factors);
                }
                Err((Ic0Refusal::Stale, buffers)) => [lower, upper] = buffers,
                Err(breakdown) => return Err(Ic0::<T>::breakdown(breakdown)),
            }
        }
        telemetry.counter_add(Counter::Ic0ScheduleRebuilds, 1);
        Ic0::factor_into(a, lower, upper)
    }
}

/// `T` for `a` with no memo to consult: split and fill, one after the other.
fn uncached_operand<T: Scalar>(
    a: &CsrMatrix<T>,
    values: Vec<T>,
    diag: &mut [T],
    inv_diag: &mut [T],
) -> CsrMatrix<T> {
    fill_own_split(&JacobiSplit::of(a), a, values, diag, inv_diag)
}

fn fill_own_split<T: Scalar>(
    split: &JacobiSplit,
    a: &CsrMatrix<T>,
    values: Vec<T>,
    diag: &mut [T],
    inv_diag: &mut [T],
) -> CsrMatrix<T> {
    split
        .fill(a, values, diag, inv_diag)
        .expect("a split fits the matrix it was built from")
}

/// Executor for the primitive operations of the iterative solvers.
///
/// The sparse kernel is [`spmv`](Kernels::spmv) — the operation the paper
/// identifies as dominating solver time (Fig. 1) and the sole target of
/// fine-grained reconfiguration. The dense kernels (dot products, vector
/// updates) are "implemented in their most optimized HLS design" and never
/// reconfigured (Section IV-B).
pub trait Kernels<T: Scalar> {
    /// `y = A x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != a.ncols()` or
    /// `y.len() != a.nrows()`; solver code always passes matching shapes.
    fn spmv(&mut self, a: &CsrMatrix<T>, x: &[T], y: &mut [T]);

    /// Returns `xᵀ y`.
    fn dot(&mut self, x: &[T], y: &[T]) -> T;

    /// `y += alpha * x`.
    fn axpy(&mut self, alpha: T, x: &[T], y: &mut [T]);

    /// `y = x + beta * y` (the `p` update of CG).
    fn xpby(&mut self, x: &[T], beta: T, y: &mut [T]);

    /// `x *= alpha`.
    fn scale(&mut self, alpha: T, x: &mut [T]);

    /// `dst = src` (no FLOPs; modeled as a buffer move).
    fn copy(&mut self, src: &[T], dst: &mut [T]);

    /// `y[i] = a[i] * x[i]` elementwise (diagonal scaling).
    fn hadamard(&mut self, a: &[T], x: &[T], y: &mut [T]);

    /// Returns `‖x‖₂`.
    fn norm2(&mut self, x: &[T]) -> T {
        self.dot(x, x).sqrt()
    }

    /// Borrows a zero-filled scratch buffer of length `n`.
    ///
    /// Not an arithmetic operation — never counted. The default allocates
    /// fresh; executors backed by a
    /// [`WorkspaceHandle`](crate::WorkspaceHandle) recycle buffers
    /// previously returned through
    /// [`release_buffer`](Kernels::release_buffer), which is what makes
    /// warm solves allocation-free.
    fn acquire_buffer(&mut self, n: usize) -> Vec<T> {
        vec![T::ZERO; n]
    }

    /// Hands a scratch buffer back to the executor for reuse.
    ///
    /// Dropping a buffer instead of releasing it is always correct; it
    /// just forfeits the reuse.
    fn release_buffer(&mut self, buf: Vec<T>) {
        drop(buf);
    }

    /// Fused `y = A x` then `yᵀ z` — one pass over the fresh `y`.
    ///
    /// Implementations must be bitwise identical to the unfused
    /// [`spmv`](Kernels::spmv) + [`dot`](Kernels::dot) sequence (same
    /// accumulation order) and must charge exactly the sum of the two
    /// operations' counts, which is what the default does. The dense
    /// fused passes below follow the same contract ([`FusedPass`]).
    fn spmv_dot(&mut self, a: &CsrMatrix<T>, x: &[T], y: &mut [T], z: &[T]) -> T {
        self.spmv(a, x, y);
        self.dot(y, z)
    }

    /// Returns `xᵀ y`, which a fused pass may already have accumulated:
    /// `carried` is what that pass handed back (see [`FusedPass`]), `None`
    /// when there was no such pass. Exactly one [`dot`](Kernels::dot) is
    /// counted and priced here either way; only the arithmetic is skipped.
    /// The default ignores `carried` and computes.
    ///
    /// # Panics
    ///
    /// Executors that trust `carried` recompute the product in debug
    /// builds and panic unless it has the same bits (any NaN for a NaN).
    fn dot_carried(&mut self, x: &[T], y: &[T], carried: Option<T>) -> T {
        let _ = carried;
        self.dot(x, y)
    }

    /// Fused `w = y + alpha x`: [`copy`](Kernels::copy)`(y, w)` then
    /// [`axpy`](Kernels::axpy)`(alpha, x, w)` ([`FusedPass::Waxpy`]).
    fn waxpy(&mut self, alpha: T, x: &[T], y: &[T], w: &mut [T]) {
        self.copy(y, w);
        self.axpy(alpha, x, w);
    }

    /// Fused `(xᵀx, xᵀy)`: [`dot`](Kernels::dot)`(x, x)` then `dot(x, y)`
    /// in one sweep ([`FusedPass::DotPair`]).
    fn dot_pair(&mut self, x: &[T], y: &[T]) -> (T, T) {
        let xx = self.dot(x, x);
        (xx, self.dot(x, y))
    }

    /// The CG update ([`FusedPass::CgUpdate`]): `x += alpha p` then
    /// `r -= alpha ap` — [`axpy`](Kernels::axpy)`(alpha, p, x)`,
    /// `axpy(-alpha, ap, r)` — carrying `rᵀr` of the new `r` for the
    /// [`dot_carried`](Kernels::dot_carried) that follows.
    fn cg_update(&mut self, alpha: T, p: &[T], ap: &[T], x: &mut [T], r: &mut [T]) -> Option<T> {
        self.axpy(alpha, p, x);
        self.axpy(-alpha, ap, r);
        None
    }

    /// The BiCG-STAB update ([`FusedPass::BicgstabUpdate`]):
    /// `x += alpha p + omega s` then `r = s − omega as_` —
    /// [`axpy`](Kernels::axpy)`(alpha, p, x)`, `axpy(omega, s, x)`,
    /// [`copy`](Kernels::copy)`(s, r)`, `axpy(-omega, as_, r)` — carrying
    /// `(rᵀr, rᵀr0s)` of the new `r` for the two
    /// [`dot_carried`](Kernels::dot_carried) that follow.
    #[allow(clippy::too_many_arguments)]
    fn bicgstab_update(
        &mut self,
        alpha: T,
        p: &[T],
        omega: T,
        s: &[T],
        as_: &[T],
        r0s: &[T],
        x: &mut [T],
        r: &mut [T],
    ) -> (Option<T>, Option<T>) {
        let _ = r0s;
        self.axpy(alpha, p, x);
        self.axpy(omega, s, x);
        self.copy(s, r);
        self.axpy(-omega, as_, r);
        (None, None)
    }

    /// The BiCG-STAB direction update ([`FusedPass::BicgstabDirection`]):
    /// `p = r + beta (p − omega ap)` — [`axpy`](Kernels::axpy)`(-omega,
    /// ap, p)` then [`xpby`](Kernels::xpby)`(r, beta, p)`.
    fn bicgstab_direction(&mut self, r: &[T], beta: T, omega: T, ap: &[T], p: &mut [T]) {
        self.axpy(-omega, ap, p);
        self.xpby(r, beta, p);
    }

    /// One forward SOR sweep over `a` with relaxation factor `omega`:
    /// `x[i] += omega * ((b[i] - Σ_{j≠i} a_ij x[j]) / a_ii - x[i])`,
    /// rows ascending, using the *current* `x` (Gauss-Seidel coupling).
    ///
    /// The sweep is a strict serial dependence chain, so both determinism
    /// tiers execute identical arithmetic; tiers differ only in the
    /// residual reductions around the sweep. The default runs the
    /// reference sweep without accounting; executors charge one
    /// SpMV-equivalent pass plus the dense relaxation update.
    fn sor_sweep(&mut self, a: &CsrMatrix<T>, diag: &[T], omega: T, b: &[T], x: &mut [T]) {
        sor_sweep_reference(a, diag, omega, b, x);
    }

    /// Sparse triangular solve `x = tri(m)⁻¹ b` against a compiled plan
    /// (see [`CompiledSptrsv`]) — the substitution kernel of the
    /// incomplete-factorization preconditioners. `m` is the triangle laid
    /// out in the plan's level order ([`LevelOrdered`]), its diagonal
    /// slots holding the *reciprocal* pivots, as [`crate::Ic0`]'s factors
    /// do, so every row ends in a multiply (`CompiledSptrsv::solve`).
    /// Substitution walks the rows level by level — the order the fabric
    /// executor prices — bitwise the natural-order walk; `b` and `x` are
    /// in natural order.
    ///
    /// The default runs the deterministic substitution and charges
    /// nothing; [`SoftwareKernels`] adds operation accounting and its
    /// determinism tier, and the fabric executor additionally models
    /// cycles and the SpTRSV fault seam.
    ///
    /// # Panics
    ///
    /// Implementations may panic if operand shapes disagree with the plan.
    fn sptrsv(&mut self, plan: &CompiledSptrsv, m: &LevelOrdered<T>, b: &[T], x: &mut [T]) {
        plan.solve(DeterminismPolicy::Deterministic, m, b, x)
            .expect("sptrsv shape mismatch");
    }

    /// Builds the solver's derived SpMV operand for `a`: Jacobi's
    /// iteration matrix `T = D⁻¹(L + U)`, with `diag[i] = a_ii` (zero
    /// where none is stored) and `inv_diag[i] = 1 / a_ii` written on the
    /// way — bit for bit [`CsrMatrix::split_jacobi`]. `T`'s pattern
    /// depends only on `a`'s, so executors holding a [`DerivedPlan`] memo
    /// keep everything but the values there: later calls on the pattern
    /// only fill, and `T`'s SpMVs run through its compiled plan — bitwise
    /// the generic walk — until the next solver starts. The default
    /// builds `T` from scratch. Hand `T` back through
    /// [`release_operand`](Kernels::release_operand) when done.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `diag` or `inv_diag` is not
    /// `a.nrows()` long.
    fn derived_operand(
        &mut self,
        a: &CsrMatrix<T>,
        diag: &mut [T],
        inv_diag: &mut [T],
    ) -> CsrMatrix<T> {
        uncached_operand(a, Vec::new(), diag, inv_diag)
    }

    /// Hands a [`derived_operand`](Kernels::derived_operand) back so its
    /// value buffer can serve the next one. Dropping the operand instead
    /// is always correct; it just forfeits the reuse.
    fn release_operand(&mut self, t: CsrMatrix<T>) {
        drop(t);
    }

    /// Factors `a` by IC(0) for a preconditioned solve — bit for bit
    /// [`Ic0::factor`]. The factors' patterns and the elimination schedule
    /// depend only on `a`'s pattern, so executors holding a
    /// [`DerivedPlan`] memo keep them there and later calls on the pattern
    /// only write values, into buffers the workspace keeps. The default
    /// factors from scratch. Hand the factors back through
    /// [`release_ic0_factors`](Kernels::release_ic0_factors) when done;
    /// nothing is held when this returns an error. Factoring is host
    /// set-up: no executor counts or charges it.
    ///
    /// # Errors
    ///
    /// As [`Ic0::factor`]: the factorization does not exist.
    fn ic0_factors(&mut self, a: &CsrMatrix<T>) -> Result<Ic0<T>, SparseError> {
        Ic0::factor(a)
    }

    /// Hands [`ic0_factors`](Kernels::ic0_factors) back so their value
    /// buffers can serve the next pair. Dropping the factors instead is
    /// always correct; it just forfeits the reuse.
    fn release_ic0_factors(&mut self, factors: Ic0<T>) {
        drop(factors);
    }

    /// Reports which preconditioner a preconditioned solve applies, once
    /// it is known: `ic0` is whether the incomplete factorization exists
    /// (Jacobi scaling otherwise) and `levels` the level count of the
    /// forward substitution plan in use (0 without one).
    ///
    /// Purely observational, like
    /// [`observe_residual`](Kernels::observe_residual); the default
    /// discards it.
    fn observe_preconditioner(&mut self, ic0: bool, levels: usize) {
        let _ = (ic0, levels);
    }

    /// Fused Jacobi update: `x_new = c − tx`, returning
    /// `‖diag ∘ (x_new − x)‖₂²` (*squared*) — the residual of the step
    /// just taken, by the identity `b − A x_new = D (x_new − x)` shifted
    /// one step — in one pass that never stores the difference.
    ///
    /// [`FusedPass::JacobiStep`]: bitwise and accounting parity with the
    /// unfused sequence [`copy`](Kernels::copy)`(c, x_new)`,
    /// [`axpy`](Kernels::axpy)`(-1, tx, x_new)`, `copy(x_new, diff)`,
    /// `axpy(-1, x, diff)`, [`hadamard`](Kernels::hadamard)`(diag, diff,
    /// r)`, [`dot`](Kernels::dot)`(r, r)`, which is what the default runs
    /// (on two borrowed scratch buffers).
    fn jacobi_step(&mut self, c: &[T], tx: &[T], x: &[T], diag: &[T], x_new: &mut [T]) -> T {
        let mut diff = self.acquire_buffer(x.len());
        let mut r = self.acquire_buffer(x.len());
        self.copy(c, x_new);
        self.axpy(-T::ONE, tx, x_new);
        self.copy(x_new, &mut diff);
        self.axpy(-T::ONE, x, &mut diff);
        self.hadamard(diag, &diff, &mut r);
        let normsq = self.dot(&r, &r);
        self.release_buffer(diff);
        self.release_buffer(r);
        normsq
    }

    /// Notifies the executor that the solver entered `phase`.
    fn set_phase(&mut self, phase: Phase) {
        let _ = phase;
    }

    /// Notifies the executor that loop iteration `iter` begins.
    fn begin_iteration(&mut self, iter: usize) {
        let _ = iter;
    }

    /// Reports the relative residual the solver's convergence monitor
    /// observed at loop iteration `iter`.
    ///
    /// Purely observational — implementations must not influence the
    /// solve. Executors carrying a telemetry sink forward the sample into
    /// the (stride-sampled) residual event stream; the default discards
    /// it, so uninstrumented executors pay nothing.
    fn observe_residual(&mut self, iter: usize, relative: f64) {
        let _ = (iter, relative);
    }

    /// Current accumulated operation counts.
    fn counts(&self) -> OpCounts;
}

/// Pure-software kernel executor with FLOP accounting.
///
/// # Examples
///
/// ```
/// use acamar_solvers::{Kernels, SoftwareKernels};
/// use acamar_sparse::CsrMatrix;
///
/// let a = CsrMatrix::<f64>::identity(3);
/// let mut k = SoftwareKernels::new();
/// let mut y = vec![0.0; 3];
/// k.spmv(&a, &[1.0, 2.0, 3.0], &mut y);
/// assert_eq!(y, vec![1.0, 2.0, 3.0]);
/// assert_eq!(Kernels::<f64>::counts(&k).spmv_calls, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SoftwareKernels {
    counts: OpCounts,
    workspace: Option<WorkspaceHandle>,
    plan: Option<Arc<CompiledSpmv>>,
    /// The operand the plan is bound to: the first one that passed
    /// [`CompiledSpmv::matches`] since the current solver started.
    plan_operand: Option<OperandId>,
    derived: Option<Arc<DerivedPlan>>,
    /// The second slot: the derived operand built for the current solver,
    /// with its plan from the memo.
    derived_slot: Option<(OperandId, Arc<CompiledSpmv>)>,
    telemetry: TelemetrySink,
    policy: DeterminismPolicy,
}

impl Default for SoftwareKernels {
    fn default() -> Self {
        SoftwareKernels {
            counts: OpCounts::default(),
            workspace: None,
            plan: None,
            plan_operand: None,
            derived: None,
            derived_slot: None,
            telemetry: TelemetrySink::disabled(),
            policy: DeterminismPolicy::Deterministic,
        }
    }
}

impl SoftwareKernels {
    /// Creates an executor with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Backs [`Kernels::acquire_buffer`] with a shared scratch-buffer
    /// workspace so repeated solves stop allocating.
    pub fn with_workspace(mut self, workspace: WorkspaceHandle) -> Self {
        self.workspace = Some(workspace);
        self
    }

    /// Installs a compiled SpMV execution plan (see
    /// [`CompiledSpmv`]). [`Kernels::spmv`] and [`Kernels::spmv_dot`] use
    /// the plan's format-specialized band kernels — bitwise identical to
    /// the generic CSR walk — for the operand the plan is bound to. Solvers
    /// pass derived matrices through the same executor: Jacobi's iteration
    /// matrix runs on its own plan once a memo is installed
    /// ([`Self::with_derived_plan`]); BiCG's `Aᵀ`, and any operand of an
    /// executor without the matching plan, takes the generic path. Either
    /// way the SpMV runs serially on the calling thread.
    ///
    /// The plan binds, by [`OperandId`], to the first operand of its shape
    /// multiplied after construction or after the last
    /// `set_phase(Phase::Initialize)` — the coefficient matrix in every
    /// solver of this crate, all of which open with `r = b − A x`.
    pub fn with_compiled_plan(mut self, plan: Arc<CompiledSpmv>) -> Self {
        self.plan = Some(plan);
        self.plan_operand = None;
        self
    }

    /// The installed compiled plan, if any.
    pub fn compiled_plan(&self) -> Option<&Arc<CompiledSpmv>> {
        self.plan.as_ref()
    }

    /// Installs the pattern's [`DerivedPlan`] memo: the operand a solver
    /// asks for through [`Kernels::derived_operand`] is filled from the
    /// memo's split and multiplied through the memo's plan (both built by
    /// the first attempt on the pattern), bound by [`OperandId`] like the
    /// coefficient matrix's.
    pub fn with_derived_plan(mut self, memo: Arc<DerivedPlan>) -> Self {
        self.derived = Some(memo);
        self.derived_slot = None;
        self
    }

    /// Selects the numeric determinism tier (see
    /// [`DeterminismPolicy`]). Under
    /// [`DeterminismPolicy::Fast`], the reduction kernels
    /// ([`Kernels::dot`], [`Kernels::norm2`], and the fused pairs) use
    /// reassociated four-lane partial sums, and plan-backed SpMV and
    /// [`Kernels::sptrsv`] reassociate within a row — results agree with
    /// the deterministic tier only to accuracy, never bitwise. The generic
    /// (plan-less) SpMV walk is policy-agnostic. Operation counts are
    /// charged identically on both tiers.
    pub fn with_policy(mut self, policy: DeterminismPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The executor's determinism tier.
    pub fn policy(&self) -> DeterminismPolicy {
        self.policy
    }

    /// Routes [`Kernels::observe_residual`] samples into `sink`'s residual
    /// event stream (subject to the sink's sampling stride). A disabled
    /// sink — the default — keeps the executor observation-free.
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        self.counts = OpCounts::default();
    }

    /// Current accumulated operation counts ([`Kernels::counts`] without
    /// naming a scalar type).
    pub fn counts(&self) -> OpCounts {
        self.counts
    }

    /// Unbinds both plans from their operands: the next operand of the
    /// coefficient plan's shape rebinds it, the next derived operand
    /// built rebinds the memo's. Called whenever a solver starts, since
    /// an [`OperandId`] says nothing once the matrix behind it may be gone.
    pub fn forget_operands(&mut self) {
        self.plan_operand = None;
        self.derived_slot = None;
    }

    /// Counts the dense primitive calls `ops`, each over `n` elements.
    fn count(&mut self, ops: &[DenseOp], n: usize) {
        self.counts.dense_calls += ops.len() as u64;
        for op in ops {
            self.counts.dense_flops += op.flops_per_element() * n as u64;
        }
    }

    /// `xᵀ y` in the tier's order, uncounted.
    fn dot_value<T: Scalar>(&self, x: &[T], y: &[T]) -> T {
        if self.policy.is_fast() {
            return simd::dot_fast(x, y);
        }
        x.iter().zip(y).fold(T::ZERO, |acc, (&a, &b)| acc + a * b)
    }

    /// The plan bound to `a`, if either slot is.
    ///
    /// [`CompiledSpmv::matches`] compares shape and entry count only, and
    /// `Aᵀ` has both in common with `A`, so a shape match alone would run
    /// `A`'s column slots over `Aᵀ`'s values. Binding by storage identity
    /// is O(1) per call and needs no second pattern check: whoever
    /// installed the plan vouched for `A`, and the derived operand was
    /// built from `A` against the memo's own split. An SpMV that finds neither
    /// slot bound to its operand is counted.
    fn plan_for<T: Scalar>(&mut self, a: &CsrMatrix<T>) -> Option<&CompiledSpmv> {
        let id = OperandId::of(a);
        if self.derived_slot.as_ref().is_some_and(|(t, _)| *t == id) {
            return self.derived_slot.as_ref().map(|(_, plan)| &**plan);
        }
        let bound = self.plan.as_deref().filter(|p| p.matches(a));
        if let Some(plan) = bound {
            if *self.plan_operand.get_or_insert(id) == id {
                return Some(plan);
            }
        }
        self.telemetry.counter_add(Counter::PlanlessSpmvs, 1);
        None
    }
}

/// The reference SOR sweep all executors share (see
/// [`Kernels::sor_sweep`]). Rows ascending, within-row accumulation in
/// CSR entry order — a fixed serial chain on every tier.
fn sor_sweep_reference<T: Scalar>(a: &CsrMatrix<T>, diag: &[T], omega: T, b: &[T], x: &mut [T]) {
    debug_assert_eq!(diag.len(), a.nrows());
    debug_assert_eq!(b.len(), a.nrows());
    debug_assert_eq!(x.len(), a.nrows());
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        let mut sigma = T::ZERO;
        for (&c, &v) in cols.iter().zip(vals) {
            if c != i {
                sigma += v * x[c];
            }
        }
        let gs = (b[i] - sigma) / diag[i];
        x[i] = x[i] + omega * (gs - x[i]);
    }
}

impl<T: Scalar> Kernels<T> for SoftwareKernels {
    fn spmv(&mut self, a: &CsrMatrix<T>, x: &[T], y: &mut [T]) {
        let policy = self.policy;
        match self.plan_for(a) {
            Some(plan) => plan.execute(policy, a, x, y),
            None => a.mul_vec_into(x, y),
        }
        .expect("spmv shape mismatch");
        self.counts.spmv_calls += 1;
        self.counts.spmv_nnz_processed += a.nnz() as u64;
        self.counts.spmv_flops += 2 * a.nnz() as u64;
    }

    fn dot(&mut self, x: &[T], y: &[T]) -> T {
        assert_eq!(x.len(), y.len(), "dot length mismatch");
        self.count(&[DenseOp::Dot], x.len());
        self.dot_value(x, y)
    }

    fn axpy(&mut self, alpha: T, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), y.len(), "axpy length mismatch");
        self.count(&[DenseOp::Axpy], x.len());
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    fn xpby(&mut self, x: &[T], beta: T, y: &mut [T]) {
        assert_eq!(x.len(), y.len(), "xpby length mismatch");
        self.count(&[DenseOp::Xpby], x.len());
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = xi + beta * *yi;
        }
    }

    fn scale(&mut self, alpha: T, x: &mut [T]) {
        self.count(&[DenseOp::Scale], x.len());
        for xi in x.iter_mut() {
            *xi *= alpha;
        }
    }

    fn copy(&mut self, src: &[T], dst: &mut [T]) {
        assert_eq!(src.len(), dst.len(), "copy length mismatch");
        self.count(&[DenseOp::Copy], src.len());
        dst.copy_from_slice(src);
    }

    fn hadamard(&mut self, a: &[T], x: &[T], y: &mut [T]) {
        assert_eq!(a.len(), x.len(), "hadamard length mismatch");
        assert_eq!(a.len(), y.len(), "hadamard length mismatch");
        self.count(&[DenseOp::Hadamard], a.len());
        for ((yi, &ai), &xi) in y.iter_mut().zip(a).zip(x) {
            *yi = ai * xi;
        }
    }

    fn acquire_buffer(&mut self, n: usize) -> Vec<T> {
        match &self.workspace {
            Some(ws) => ws.take(n),
            None => vec![T::ZERO; n],
        }
    }

    fn sor_sweep(&mut self, a: &CsrMatrix<T>, diag: &[T], omega: T, b: &[T], x: &mut [T]) {
        // One pass over every stored entry (an SpMV-equivalent) plus the
        // dense relaxation update: divide, subtract, scale, add per row.
        self.counts.spmv_calls += 1;
        self.counts.spmv_nnz_processed += a.nnz() as u64;
        self.counts.spmv_flops += 2 * a.nnz() as u64;
        self.counts.dense_calls += 1;
        self.counts.dense_flops += 4 * a.nrows() as u64;
        self.telemetry.counter_add(Counter::SorSweeps, 1);
        sor_sweep_reference(a, diag, omega, b, x);
    }

    fn sptrsv(&mut self, plan: &CompiledSptrsv, m: &LevelOrdered<T>, b: &[T], x: &mut [T]) {
        // Charged to the sparse bucket: one mul+sub per off-diagonal
        // entry plus the reciprocal-pivot multiply, ~2 FLOPs per stored
        // entry — the same rate as SpMV over the triangle.
        self.counts.spmv_calls += 1;
        self.counts.spmv_nnz_processed += plan.tri_nnz() as u64;
        self.counts.spmv_flops += 2 * plan.tri_nnz() as u64;
        self.telemetry.counter_add(Counter::SptrsvApplies, 1);
        plan.solve(self.policy, m, b, x)
            .expect("sptrsv shape mismatch");
    }

    fn derived_operand(
        &mut self,
        a: &CsrMatrix<T>,
        diag: &mut [T],
        inv_diag: &mut [T],
    ) -> CsrMatrix<T> {
        let values = match &self.workspace {
            Some(ws) => ws.take_operand_values(a.nnz().saturating_sub(a.nrows())),
            None => Vec::new(),
        };
        let (t, plan) = match &self.derived {
            Some(memo) => memo.operand_for(a, values, diag, inv_diag, &self.telemetry),
            None => (uncached_operand(a, values, diag, inv_diag), None),
        };
        self.derived_slot = plan
            .filter(|p| p.matches(&t))
            .map(|p| (OperandId::of(&t), p));
        t
    }

    fn release_operand(&mut self, t: CsrMatrix<T>) {
        if let Some(ws) = &self.workspace {
            ws.give_operand_values(t.into_values());
        }
    }

    fn ic0_factors(&mut self, a: &CsrMatrix<T>) -> Result<Ic0<T>, SparseError> {
        // The triangle's entry count when the pattern is symmetric; `fill`
        // resizes when it is not.
        let tri = (a.nnz() + a.nrows()) / 2;
        let [lower, upper] = match &self.workspace {
            Some(ws) => [ws.take_operand_values(tri), ws.take_operand_values(tri)],
            None => [Vec::new(), Vec::new()],
        };
        let factored = match &self.derived {
            Some(memo) => memo.ic0_for(a, lower, upper, &self.telemetry),
            None => Ic0::factor_into(a, lower, upper),
        };
        factored.map_err(|(e, buffers)| {
            if let Some(ws) = &self.workspace {
                for values in buffers {
                    ws.give_operand_values(values);
                }
            }
            e
        })
    }

    fn release_ic0_factors(&mut self, factors: Ic0<T>) {
        if let Some(ws) = &self.workspace {
            for values in factors.into_values() {
                ws.give_operand_values(values);
            }
        }
    }

    fn observe_preconditioner(&mut self, ic0: bool, levels: usize) {
        self.telemetry.emit(EventKind::PreconditionerSelected {
            ic0,
            levels: levels as u32,
        });
    }

    fn set_phase(&mut self, phase: Phase) {
        if phase == Phase::Initialize {
            // A solver is starting: its first same-shape operand rebinds
            // the plan, and it builds its own derived operand.
            self.forget_operands();
        }
    }

    fn release_buffer(&mut self, buf: Vec<T>) {
        if let Some(ws) = &self.workspace {
            ws.give(buf);
        }
    }

    fn spmv_dot(&mut self, a: &CsrMatrix<T>, x: &[T], y: &mut [T], z: &[T]) -> T {
        assert_eq!(x.len(), a.ncols(), "spmv shape mismatch");
        assert_eq!(y.len(), a.nrows(), "spmv shape mismatch");
        assert_eq!(y.len(), z.len(), "dot length mismatch");
        self.counts.spmv_calls += 1;
        self.counts.spmv_nnz_processed += a.nnz() as u64;
        self.counts.spmv_flops += 2 * a.nnz() as u64;
        self.count(&[DenseOp::Dot], y.len());
        let policy = self.policy;
        if let Some(plan) = self.plan_for(a) {
            // Band kernels then a per-band dot: row-ascending (the same
            // floating-point order as spmv followed by dot) when
            // deterministic, lane-wise when fast.
            return plan
                .execute_dot(policy, a, x, y, z)
                .expect("spmv shape mismatch");
        }
        // Rows ascending, accumulation ascending: the same floating-point
        // order as spmv followed by dot, so the result is bitwise equal.
        let mut acc = T::ZERO;
        for (i, (yi, &zi)) in y.iter_mut().zip(z).enumerate() {
            let (cols, vals) = a.row(i);
            let mut row = T::ZERO;
            for (&c, &v) in cols.iter().zip(vals) {
                row += v * x[c];
            }
            *yi = row;
            acc += row * zi;
        }
        acc
    }

    fn dot_carried(&mut self, x: &[T], y: &[T], carried: Option<T>) -> T {
        assert_eq!(x.len(), y.len(), "dot length mismatch");
        self.count(&[DenseOp::Dot], x.len());
        let Some(carried) = carried else {
            return self.dot_value(x, y);
        };
        self.telemetry.counter_add(Counter::CarriedDots, 1);
        if cfg!(debug_assertions) {
            let computed = self.dot_value(x, y);
            assert!(
                computed.to_f64().to_bits() == carried.to_f64().to_bits()
                    || (computed.is_nan() && carried.is_nan()),
                "carried reduction {carried} is not the dot product {computed}"
            );
        }
        carried
    }

    fn jacobi_step(&mut self, c: &[T], tx: &[T], x: &[T], diag: &[T], x_new: &mut [T]) -> T {
        self.count(FusedPass::JacobiStep.unfused(), x_new.len());
        if self.policy.is_fast() {
            fused::jacobi_step::<T, FastDot<T>>(c, tx, x, diag, x_new)
        } else {
            fused::jacobi_step::<T, Serial<T>>(c, tx, x, diag, x_new)
        }
    }

    fn waxpy(&mut self, alpha: T, x: &[T], y: &[T], w: &mut [T]) {
        self.count(FusedPass::Waxpy.unfused(), w.len());
        fused::waxpy(alpha, x, y, w);
    }

    fn dot_pair(&mut self, x: &[T], y: &[T]) -> (T, T) {
        self.count(FusedPass::DotPair.unfused(), x.len());
        if self.policy.is_fast() {
            // Two sweeps: one `dot_fast` keeps four chains in flight, and
            // two side by side want more vector registers than there are
            // (8.9 µs fused against 6.0 at 14 400 elements).
            (simd::dot_fast(x, x), simd::dot_fast(x, y))
        } else {
            fused::dot_pair(x, y)
        }
    }

    fn cg_update(&mut self, alpha: T, p: &[T], ap: &[T], x: &mut [T], r: &mut [T]) -> Option<T> {
        self.count(FusedPass::CgUpdate.unfused(), r.len());
        Some(if self.policy.is_fast() {
            fused::cg_update::<T, FastDot<T>>(alpha, p, ap, x, r)
        } else {
            fused::cg_update::<T, Serial<T>>(alpha, p, ap, x, r)
        })
    }

    fn bicgstab_update(
        &mut self,
        alpha: T,
        p: &[T],
        omega: T,
        s: &[T],
        as_: &[T],
        r0s: &[T],
        x: &mut [T],
        r: &mut [T],
    ) -> (Option<T>, Option<T>) {
        self.count(FusedPass::BicgstabUpdate.unfused(), r.len());
        let (rr, rho) = if self.policy.is_fast() {
            fused::bicgstab_update::<T, FastDot<T>>(alpha, p, omega, s, as_, r0s, x, r)
        } else {
            fused::bicgstab_update::<T, Serial<T>>(alpha, p, omega, s, as_, r0s, x, r)
        };
        (Some(rr), Some(rho))
    }

    fn bicgstab_direction(&mut self, r: &[T], beta: T, omega: T, ap: &[T], p: &mut [T]) {
        self.count(FusedPass::BicgstabDirection.unfused(), p.len());
        fused::bicgstab_direction(r, beta, omega, ap, p);
    }

    fn observe_residual(&mut self, iter: usize, relative: f64) {
        self.telemetry.observe_residual(iter, relative);
    }

    fn counts(&self) -> OpCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_sparse::generate;

    #[test]
    fn spmv_counts_nnz_and_flops() {
        let a = generate::poisson1d::<f64>(10); // nnz = 28
        let mut k = SoftwareKernels::new();
        let x = vec![1.0; 10];
        let mut y = vec![0.0; 10];
        Kernels::<f64>::spmv(&mut k, &a, &x, &mut y);
        let c: OpCounts = Kernels::<f64>::counts(&k);
        assert_eq!(c.spmv_calls, 1);
        assert_eq!(c.spmv_nnz_processed, 28);
        assert_eq!(c.spmv_flops, 56);
        assert_eq!(c.spmv_flop_share(), 1.0);
    }

    #[test]
    fn dense_kernels_compute_correctly() {
        let mut k = SoftwareKernels::new();
        let x = vec![1.0_f64, 2.0, 3.0];
        let mut y = vec![1.0_f64, 1.0, 1.0];
        assert_eq!(k.dot(&x, &y), 6.0);
        k.axpy(2.0, &x, &mut y); // y = [3,5,7]
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
        k.xpby(&x, 2.0, &mut y); // y = x + 2y = [7,12,17]
        assert_eq!(y, vec![7.0, 12.0, 17.0]);
        k.scale(0.5, &mut y);
        assert_eq!(y, vec![3.5, 6.0, 8.5]);
        let mut z = vec![0.0; 3];
        k.copy(&y, &mut z);
        assert_eq!(z, y);
        let mut h = vec![0.0; 3];
        k.hadamard(&x, &z, &mut h);
        assert_eq!(h, vec![3.5, 12.0, 25.5]);
        assert_eq!(Kernels::<f64>::norm2(&mut k, &[3.0, 4.0]), 5.0);
        let c: OpCounts = Kernels::<f64>::counts(&k);
        assert!(c.dense_calls >= 7);
        assert!(c.total_flops() > 0);
        assert!(c.spmv_flop_share() < 1e-12);
    }

    #[test]
    fn reset_clears_counters() {
        let mut k = SoftwareKernels::new();
        let _ = k.dot(&[1.0_f64], &[1.0_f64]);
        k.reset();
        assert_eq!(Kernels::<f64>::counts(&k), OpCounts::default());
    }

    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn dot_panics_on_shape_mismatch() {
        let mut k = SoftwareKernels::new();
        let _ = k.dot(&[1.0_f64, 2.0], &[1.0_f64]);
    }

    #[test]
    fn a_carried_dot_is_counted_like_a_computed_one_and_returned_as_given() {
        let x = vec![1.0_f64, 2.0, 3.0];
        let mut computed = SoftwareKernels::new();
        let d = computed.dot_carried(&x, &x, None);
        assert_eq!(d, 14.0);
        let mut carried = SoftwareKernels::new();
        assert_eq!(carried.dot_carried(&x, &x, Some(14.0)), 14.0);
        assert_eq!(computed.counts(), carried.counts());
        assert_eq!(carried.counts().dense_calls, 1);
        // A NaN product carried as a NaN is the same answer.
        let nan = vec![f64::NAN, 1.0];
        assert!(carried.dot_carried(&nan, &nan, Some(f64::NAN)).is_nan());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not the dot product")]
    fn a_wrong_carried_dot_panics_in_debug_builds() {
        let x = vec![1.0_f64, 2.0, 3.0];
        let _ = SoftwareKernels::new().dot_carried(&x, &x, Some(14.000000000000002));
    }

    #[test]
    fn compiled_plan_spmv_is_bitwise_identical_and_falls_back() {
        use acamar_sparse::generate::RowDistribution;
        let a =
            generate::random_pattern::<f64>(600, RowDistribution::Uniform { min: 1, max: 24 }, 17);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.29).sin()).collect();
        let z: Vec<f64> = (0..a.nrows()).map(|i| 1.0 / (i as f64 + 3.0)).collect();

        let mut generic = SoftwareKernels::new();
        let mut y_ref = vec![0.0; a.nrows()];
        generic.spmv(&a, &x, &mut y_ref);
        let d_ref = generic.dot(&y_ref, &z);

        let plan = Arc::new(CompiledSpmv::compile_default(&a));
        let mut k = SoftwareKernels::new().with_compiled_plan(plan.clone());
        let mut y = vec![f64::NAN; a.nrows()];
        k.spmv(&a, &x, &mut y);
        assert_eq!(y, y_ref);
        let mut y2 = vec![f64::NAN; a.nrows()];
        let d = k.spmv_dot(&a, &x, &mut y2, &z);
        assert_eq!(d.to_bits(), d_ref.to_bits());
        assert_eq!(y2, y_ref);

        // A matrix of a different shape falls back to the generic walk.
        let b = generate::poisson1d::<f64>(32);
        let xb = vec![1.0; 32];
        let mut yb = vec![0.0; 32];
        k.spmv(&b, &xb, &mut yb);
        assert_eq!(yb, b.mul_vec(&xb).unwrap());

        // Counts are charged identically on plan and generic paths.
        let mut plain = SoftwareKernels::new();
        let mut yp = vec![0.0; a.nrows()];
        plain.spmv(&a, &x, &mut yp);
        let mut yq = vec![0.0; a.nrows()];
        let _ = plain.spmv_dot(&a, &x, &mut yq, &z);
        let mut planned = SoftwareKernels::new().with_compiled_plan(plan);
        let mut yr = vec![0.0; a.nrows()];
        planned.spmv(&a, &x, &mut yr);
        let mut ys = vec![0.0; a.nrows()];
        let _ = planned.spmv_dot(&a, &x, &mut ys, &z);
        assert_eq!(
            Kernels::<f64>::counts(&plain),
            Kernels::<f64>::counts(&planned)
        );
    }

    #[test]
    fn fast_policy_matches_deterministic_accurately_with_identical_counts() {
        use acamar_sparse::generate::RowDistribution;
        let a =
            generate::random_pattern::<f64>(400, RowDistribution::Uniform { min: 1, max: 24 }, 23);
        let plan = Arc::new(CompiledSpmv::compile_default(&a));
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.19).sin()).collect();
        let z: Vec<f64> = (0..a.nrows()).map(|i| 1.0 / (i as f64 + 2.0)).collect();

        let mut det = SoftwareKernels::new().with_compiled_plan(plan.clone());
        assert!(!det.policy().is_fast());
        let mut fast = SoftwareKernels::new()
            .with_compiled_plan(plan)
            .with_policy(DeterminismPolicy::Fast);
        assert!(fast.policy().is_fast());

        let mut y_det = vec![0.0; a.nrows()];
        let d_det = det.spmv_dot(&a, &x, &mut y_det, &z);
        let mut y_fast = vec![0.0; a.nrows()];
        let d_fast = fast.spmv_dot(&a, &x, &mut y_fast, &z);
        assert!((d_fast - d_det).abs() <= 1e-12 * (1.0 + d_det.abs()));
        for (f, d) in y_fast.iter().zip(&y_det) {
            assert!((f - d).abs() <= 1e-12 * (1.0 + d.abs()));
        }

        let dd = det.dot(&x, &x);
        let df = fast.dot(&x, &x);
        assert!((df - dd).abs() <= 1e-12 * (1.0 + dd.abs()));

        let (mut xa, mut ra) = (x.clone(), y_det.clone());
        let na = det.cg_update(-0.375, &z, &z, &mut xa, &mut ra).unwrap();
        let (mut xb, mut rb) = (x.clone(), y_det.clone());
        let nb = fast.cg_update(-0.375, &z, &z, &mut xb, &mut rb).unwrap();
        // The vector updates themselves are element-wise on both tiers.
        assert_eq!((xa, ra), (xb, rb));
        assert!((nb - na).abs() <= 1e-12 * (1.0 + na.abs()));

        // Both tiers charge the same operation counts.
        assert_eq!(Kernels::<f64>::counts(&det), Kernels::<f64>::counts(&fast));
    }

    #[test]
    fn sptrsv_borrows_no_buffer_on_either_tier_and_charges_the_same() {
        use crate::workspace::WorkspaceHandle;
        let a = generate::poisson2d::<f64>(12, 9);
        let plan = CompiledSptrsv::compile_lower(&a).unwrap();
        let laid = plan.layout(&a).unwrap();
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut solutions = Vec::new();
        for policy in DeterminismPolicy::ALL {
            let ws = WorkspaceHandle::new();
            let mut k = SoftwareKernels::new()
                .with_workspace(ws.clone())
                .with_policy(policy);
            let mut x = vec![0.0; a.nrows()];
            k.sptrsv(&plan, &laid, &b, &mut x);
            k.sptrsv(&plan, &laid, &b, &mut x);
            assert_eq!(ws.stats(), (0, 0), "{policy}: workspace takes");
            let c = k.counts();
            assert_eq!(c.spmv_calls, 2);
            assert_eq!(c.spmv_nnz_processed, 2 * plan.tri_nnz() as u64);
            solutions.push(x);
        }
        for (d, f) in solutions[0].iter().zip(&solutions[1]) {
            assert!((d - f).abs() <= 1e-12 * (1.0 + d.abs()));
        }
    }

    #[test]
    fn workspace_backed_buffers_are_recycled_and_zeroed() {
        use crate::workspace::WorkspaceHandle;
        let ws = WorkspaceHandle::new();
        let mut k = SoftwareKernels::new().with_workspace(ws.clone());
        let mut buf: Vec<f64> = k.acquire_buffer(16);
        assert_eq!(buf, vec![0.0; 16]);
        buf.fill(9.0);
        Kernels::<f64>::release_buffer(&mut k, buf);
        let again: Vec<f64> = k.acquire_buffer(16);
        assert_eq!(again, vec![0.0; 16], "recycled buffers come back zeroed");
        assert_eq!(ws.stats(), (1, 1));
    }
}
