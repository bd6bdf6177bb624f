//! [`FabricKernels`]: the hardware-modeling kernel executor.
//!
//! Runs the solver algorithms numerically on an inner
//! [`SoftwareKernels`] — so results are bit-identical to it on both
//! determinism tiers, by construction — while charging cycles, MAC-slot
//! utilization, reconfiguration time, and area to a behavioral model of
//! the paper's accelerator datapath.

use crate::cost::{
    dense_vector_unit, spmv_engine, DENSE_VECTOR_WIDTH, PIPELINE_DEPTH, REDUCTION_LATENCY,
};
use crate::cycle_table::{CycleTable, SegmentPrice};
use crate::reconfig::{ReconfigController, RegionKind};
use crate::spec::{FabricSpec, ResourceVector};
use crate::spmv::SpmvExecution;
use crate::trace::{ExecutionTrace, TraceEvent};
use acamar_faultline::{FaultContext, FaultInjector};
use acamar_solvers::{
    DenseOp, DerivedPlan, FusedPass, Ic0, Kernels, OpCounts, Phase, SoftwareKernels,
    WorkspaceHandle,
};
use acamar_sparse::{
    BandHint, CompiledSpmv, CompiledSptrsv, CsrMatrix, DeterminismPolicy, LevelOrdered, Scalar,
    SparseError,
};
use acamar_telemetry::{Counter, EventKind, TelemetrySink};
use std::ops::Range;
use std::sync::Arc;

/// Fixed cycle overhead per dense kernel invocation (argument setup,
/// pipeline ramp for short vector loops).
const DENSE_OVERHEAD: u64 = 8;

/// Cycles the dense vector unit spends streaming `n` elements, with the
/// reduction tree's latency on top for a dot product.
fn dense_cycles(n: usize, reduction: bool) -> u64 {
    let stream = (n as u64).div_ceil(DENSE_VECTOR_WIDTH as u64) + DENSE_OVERHEAD;
    if reduction {
        stream + REDUCTION_LATENCY
    } else {
        stream
    }
}

/// One contiguous row range executed at a fixed unroll factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Rows covered by this entry.
    pub rows: Range<usize>,
    /// MAC lanes configured while streaming those rows.
    pub unroll: usize,
}

/// Per-set unroll-factor plan for the Dynamic SpMV Kernel.
///
/// Produced by Acamar's Fine-Grained Reconfiguration unit (or
/// [`UnrollSchedule::uniform`] for a static baseline) and consumed by
/// [`FabricKernels`]: each loop-phase SpMV walks the entries in order,
/// reconfiguring the nested DFX region whenever the unroll factor changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnrollSchedule {
    entries: Vec<ScheduleEntry>,
}

impl UnrollSchedule {
    /// A single-entry schedule covering `nrows` rows at `unroll` — the
    /// static baseline configuration (`SpMV_URB`).
    ///
    /// # Panics
    ///
    /// Panics if `unroll == 0`.
    pub fn uniform(nrows: usize, unroll: usize) -> Self {
        assert!(unroll > 0, "unroll factor must be positive");
        UnrollSchedule {
            entries: vec![ScheduleEntry {
                rows: 0..nrows,
                unroll,
            }],
        }
    }

    /// Builds a schedule from entries, validating contiguous coverage of
    /// `0..nrows` and positive unroll factors.
    ///
    /// # Panics
    ///
    /// Panics if entries do not tile `0..nrows` contiguously or any unroll
    /// factor is zero.
    pub fn from_entries(nrows: usize, entries: Vec<ScheduleEntry>) -> Self {
        let mut next = 0usize;
        for e in &entries {
            assert_eq!(e.rows.start, next, "schedule entries must be contiguous");
            assert!(e.rows.end >= e.rows.start, "bad entry range");
            assert!(e.unroll > 0, "unroll factor must be positive");
            next = e.rows.end;
        }
        assert_eq!(next, nrows, "schedule must cover all rows");
        UnrollSchedule { entries }
    }

    /// The schedule entries in row order.
    pub fn entries(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// Number of unroll-factor *changes* while walking the schedule once
    /// (the per-pass reconfiguration count, assuming the engine already
    /// holds the first entry's configuration).
    pub fn changes_per_pass(&self) -> usize {
        self.entries
            .windows(2)
            .filter(|w| w[0].unroll != w[1].unroll)
            .count()
    }

    /// Largest unroll factor in the schedule (sizes the DFX region).
    pub fn max_unroll(&self) -> usize {
        self.entries.iter().map(|e| e.unroll).max().unwrap_or(1)
    }

    /// Number of leading entries that lie within an operand of `nrows`
    /// rows — all of them for the matrix the schedule was built for.
    pub(crate) fn walkable(&self, nrows: usize) -> usize {
        self.entries.partition_point(|e| e.rows.end <= nrows)
    }

    /// The schedule as band hints for [`CompiledSpmv::compile`]: the host
    /// plan compiler specializes each entry's rows without ever crossing an
    /// entry boundary, so the MSID set structure survives into the compiled
    /// plan's band boundaries.
    pub fn band_hints(&self) -> Vec<BandHint> {
        self.entries
            .iter()
            .map(|e| BandHint {
                rows: e.rows.clone(),
                unroll: e.unroll,
            })
            .collect()
    }
}

/// Cycle totals by activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Cycles in the SpMV engine (issue + row overhead + pipeline fill).
    pub spmv: u64,
    /// Cycles in the dense vector units.
    pub dense: u64,
    /// Cycles streaming partial bitstreams through ICAP.
    pub reconfig: u64,
}

impl CycleBreakdown {
    /// All cycles.
    pub fn total(&self) -> u64 {
        self.spmv + self.dense + self.reconfig
    }

    /// Sums two breakdowns (e.g. runs merged across engine workers).
    pub fn merge(&self, other: &CycleBreakdown) -> CycleBreakdown {
        CycleBreakdown {
            spmv: self.spmv + other.spmv,
            dense: self.dense + other.dense,
            reconfig: self.reconfig + other.reconfig,
        }
    }

    /// Compute-only cycles (excluding reconfiguration).
    pub fn compute(&self) -> u64 {
        self.spmv + self.dense
    }

    /// Fraction of compute cycles spent in SpMV (the paper's Fig. 1).
    pub fn spmv_share(&self) -> f64 {
        if self.compute() == 0 {
            0.0
        } else {
            self.spmv as f64 / self.compute() as f64
        }
    }
}

/// Statistics extracted from a finished [`FabricKernels`] run.
#[derive(Debug, Clone)]
pub struct FabricRunStats {
    /// Cycle totals.
    pub cycles: CycleBreakdown,
    /// Aggregate loop-phase SpMV execution (drives Eq. 5 utilization).
    pub spmv: SpmvExecution,
    /// Aggregate initialize-phase SpMV execution (static engine).
    pub init_spmv: SpmvExecution,
    /// Peak-capacity FLOPs of the engaged units over compute cycles
    /// (denominator of achieved-throughput, Fig. 9).
    pub capacity_flops: f64,
    /// Useful FLOPs executed.
    pub useful_flops: u64,
    /// SpMV-kernel reconfiguration events.
    pub spmv_reconfig_events: usize,
    /// Time-weighted area of the instantiated logic, mm² (dense units +
    /// whichever SpMV engine was loaded, weighted by compute cycles).
    pub avg_area_mm2: f64,
    /// Peak instantiated area, mm².
    pub peak_area_mm2: f64,
    /// Whether the initialize phase used its static SpMV engine.
    pub used_init_spmv: bool,
    /// ICAP swaps of the nested SpMV region that aborted mid-stream
    /// (only nonzero under fault injection).
    pub reconfig_aborts: usize,
    /// Loop-phase SpMV cycles run on a larger engine than the schedule
    /// planned, after an abort degraded the kernel to its static
    /// max-unroll configuration — the area-efficiency price of surviving
    /// a reconfiguration failure.
    pub lost_area_cycles: u64,
    /// Whether a reconfiguration failure pinned the Dynamic SpMV Kernel
    /// to its static max-unroll fallback for the rest of the run.
    pub degraded_to_static: bool,
}

impl FabricRunStats {
    /// Achieved fraction of peak throughput over compute cycles, in
    /// `[0, 1]` (Fig. 9).
    pub fn achieved_throughput(&self) -> f64 {
        if self.capacity_flops == 0.0 {
            0.0
        } else {
            (self.useful_flops as f64 / self.capacity_flops).min(1.0)
        }
    }

    /// The identity for [`FabricRunStats::merge`]: a run that did nothing.
    pub fn empty() -> FabricRunStats {
        FabricRunStats {
            cycles: CycleBreakdown::default(),
            spmv: SpmvExecution::default(),
            init_spmv: SpmvExecution::default(),
            capacity_flops: 0.0,
            useful_flops: 0,
            spmv_reconfig_events: 0,
            avg_area_mm2: 0.0,
            peak_area_mm2: 0.0,
            used_init_spmv: false,
            reconfig_aborts: 0,
            lost_area_cycles: 0,
            degraded_to_static: false,
        }
    }

    /// Merges statistics from two independent runs — e.g. per-thread
    /// aggregates in the batch engine, or repeated solves on one device.
    ///
    /// Additive fields (cycles, FLOPs, SpMV aggregates, reconfiguration
    /// events) sum; `avg_area_mm2` recombines weighted by each side's
    /// compute cycles (so the merged value is still a time-weighted
    /// average); `peak_area_mm2` takes the max.
    pub fn merge(&self, other: &FabricRunStats) -> FabricRunStats {
        let (ca, cb) = (self.cycles.compute() as f64, other.cycles.compute() as f64);
        let avg_area = if ca + cb == 0.0 {
            self.avg_area_mm2.max(other.avg_area_mm2)
        } else {
            (self.avg_area_mm2 * ca + other.avg_area_mm2 * cb) / (ca + cb)
        };
        FabricRunStats {
            cycles: self.cycles.merge(&other.cycles),
            spmv: self.spmv.merge(&other.spmv),
            init_spmv: self.init_spmv.merge(&other.init_spmv),
            capacity_flops: self.capacity_flops + other.capacity_flops,
            useful_flops: self.useful_flops + other.useful_flops,
            spmv_reconfig_events: self.spmv_reconfig_events + other.spmv_reconfig_events,
            avg_area_mm2: avg_area,
            peak_area_mm2: self.peak_area_mm2.max(other.peak_area_mm2),
            used_init_spmv: self.used_init_spmv || other.used_init_spmv,
            reconfig_aborts: self.reconfig_aborts + other.reconfig_aborts,
            lost_area_cycles: self.lost_area_cycles + other.lost_area_cycles,
            degraded_to_static: self.degraded_to_static || other.degraded_to_static,
        }
    }
}

/// Hardware-modeling kernel executor for one solve on the fabric.
///
/// An accounting wrapper: every arithmetic operation is executed by an
/// inner [`SoftwareKernels`] (plan dispatch, determinism tier, fused
/// kernels, workspace, and [`OpCounts`] all live there, once), and this
/// type charges what the operation costs on the modeled datapath —
/// cycles, MAC-slot capacity, area, reconfiguration — applies injected
/// faults, and emits the execution trace and telemetry.
///
/// # Examples
///
/// ```
/// use acamar_fabric::{FabricKernels, FabricSpec, UnrollSchedule};
/// use acamar_solvers::{conjugate_gradient, ConvergenceCriteria};
/// use acamar_sparse::generate;
///
/// let a = generate::poisson2d::<f32>(8, 8);
/// let schedule = UnrollSchedule::uniform(a.nrows(), 4);
/// let mut hw = FabricKernels::new(FabricSpec::alveo_u55c(), schedule, 4);
/// let report = conjugate_gradient(&a, &vec![1.0; 64], None,
///     &ConvergenceCriteria::paper(), &mut hw)?;
/// assert!(report.converged());
/// let stats = hw.finish();
/// assert!(stats.cycles.spmv_share() > 0.3); // SpMV dominates (Fig. 1)
/// # Ok::<(), acamar_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FabricKernels {
    /// Host arithmetic and operation counts. Purely a host concern: the
    /// compiled plan, the workspace, and the determinism tier it carries
    /// change how fast (and, under `Fast`, in which summation order) the
    /// numbers are produced, never what the fabric is charged.
    inner: SoftwareKernels,
    spec: FabricSpec,
    schedule: UnrollSchedule,
    init_unroll: usize,
    phase: Phase,
    /// Unroll factor currently loaded in the nested DFX region.
    current_unroll: Option<usize>,
    cycles: CycleBreakdown,
    reconfig: ReconfigController,
    /// SpMV prices of the current attempt's operands (see [`CycleTable`]).
    table: CycleTable,
    spmv_agg: SpmvExecution,
    init_spmv_agg: SpmvExecution,
    capacity_flops: f64,
    /// Σ engine-area x spmv-cycles, for time-weighted area.
    area_cycle_product: f64,
    peak_engine_area: f64,
    used_init_spmv: bool,
    overlap_reconfig: bool,
    last_segment_cycles: u64,
    trace: Option<ExecutionTrace>,
    /// Fault-injection seam; `None` (the default) leaves every hook inert.
    fault: Option<FaultContext>,
    /// Solver-attempt counter (bumped by [`FabricKernels::begin_attempt`])
    /// keying per-attempt fault decisions.
    attempt: u64,
    /// Raw draw of the stuck SpMV datapath bit afflicting the current
    /// attempt, if one was injected.
    stuck_raw: Option<u64>,
    /// Set once an ICAP abort pinned the nested region to max-unroll.
    degraded: bool,
    /// Loop-phase cycles run on an oversized engine while degraded.
    lost_area_cycles: u64,
    /// Ordinal of the next scheduled nested-region swap (fault site key).
    swap_site: u64,
    /// Structured telemetry sink. Disabled by default; every emission site
    /// is a single branch when no recorder is installed, so the hot solve
    /// loop is unchanged (numerics, cycles, and allocations alike).
    telemetry: TelemetrySink,
}

impl FabricKernels {
    /// Creates an executor with the given loop-phase `schedule` and a
    /// static initialize-phase engine of `init_unroll` lanes.
    ///
    /// The nested DFX region is assumed pre-loaded with the schedule's
    /// first configuration (the host writes it together with the solver
    /// bitstream), so the first pass pays `changes_per_pass()` events.
    ///
    /// # Panics
    ///
    /// Panics if `init_unroll == 0`.
    pub fn new(spec: FabricSpec, schedule: UnrollSchedule, init_unroll: usize) -> Self {
        assert!(init_unroll > 0, "init unroll must be positive");
        let first = schedule.entries().first().map(|e| e.unroll);
        let reconfig = ReconfigController::new(spec.clone());
        FabricKernels {
            inner: SoftwareKernels::new(),
            spec,
            schedule,
            init_unroll,
            phase: Phase::Initialize,
            current_unroll: first,
            cycles: CycleBreakdown::default(),
            reconfig,
            table: CycleTable::default(),
            spmv_agg: SpmvExecution::default(),
            init_spmv_agg: SpmvExecution::default(),
            capacity_flops: 0.0,
            area_cycle_product: 0.0,
            peak_engine_area: 0.0,
            used_init_spmv: false,
            overlap_reconfig: false,
            last_segment_cycles: 0,
            trace: None,
            fault: None,
            attempt: 0,
            stuck_raw: None,
            degraded: false,
            lost_area_cycles: 0,
            swap_site: 0,
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Selects the determinism tier for host arithmetic (see
    /// [`DeterminismPolicy`] and [`SoftwareKernels::with_policy`]).
    /// `Deterministic` (the default) keeps every reduction in serial CSR
    /// order — the bitwise replay contract; `Fast` uses the 4-lane
    /// reassociated kernels. Cycle and FLOP charges are identical on both
    /// tiers (the model bills the same fabric work either way — only host
    /// summation order changes), and so is the stuck-bit fault-flip
    /// ordering: fault replay corrupts the same element of `y` before any
    /// fused reduction reads it.
    pub fn with_policy(mut self, policy: DeterminismPolicy) -> Self {
        self.inner = self.inner.with_policy(policy);
        self
    }

    /// The active determinism tier.
    pub fn policy(&self) -> DeterminismPolicy {
        self.inner.policy()
    }

    /// Installs a shared host-side workspace so solver scratch vectors are
    /// recycled across solves instead of heap-allocated each time. Purely a
    /// host optimization: cycle and FLOP accounting are unchanged (host
    /// buffer traffic is not fabric work).
    pub fn with_workspace(mut self, workspace: WorkspaceHandle) -> Self {
        self.inner = self.inner.with_workspace(workspace);
        self
    }

    /// Installs a compiled host SpMV execution plan (normally the one the
    /// analysis phase compiled from this solve's MSID schedule, shared via
    /// the plan cache). Host arithmetic for the coefficient matrix runs
    /// through the plan's format-specialized band kernels — bitwise
    /// identical to the generic walk (see
    /// [`SoftwareKernels::with_compiled_plan`]) — while cycle modeling,
    /// fault injection, and all accounting are untouched.
    pub fn with_compiled_plan(mut self, plan: Arc<CompiledSpmv>) -> Self {
        self.inner = self.inner.with_compiled_plan(plan);
        self
    }

    /// Installs the pattern's derived-operand memo (see
    /// [`SoftwareKernels::with_derived_plan`]): Jacobi's iteration matrix
    /// is filled from the memo's split and its host arithmetic runs
    /// through its own compiled plan. Nothing new is charged — the cycle
    /// table already prices that operand apart from the coefficient
    /// matrix.
    pub fn with_derived_plan(mut self, memo: Arc<DerivedPlan>) -> Self {
        self.inner = self.inner.with_derived_plan(memo);
        self
    }

    /// Installs a fault-injection context: subsequent solver attempts may
    /// suffer stuck SpMV datapath bits and ICAP reconfiguration aborts,
    /// per the context's plan. Without this call every hook is inert and
    /// execution is bit-identical to a harness-free build.
    pub fn with_fault_context(mut self, ctx: FaultContext) -> Self {
        self.fault = Some(ctx);
        self
    }

    /// Whether an ICAP abort has degraded the Dynamic SpMV Kernel to its
    /// static max-unroll fallback for the rest of this run.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Enables a cycle-stamped execution trace holding up to
    /// `max_events` records (see [`ExecutionTrace`]).
    pub fn with_trace(mut self, max_events: usize) -> Self {
        self.trace = Some(ExecutionTrace::with_capacity(max_events));
        self
    }

    /// The execution trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&ExecutionTrace> {
        self.trace.as_ref()
    }

    /// Routes structured telemetry (reconfiguration events, per-set SpMV
    /// segments, phase/iteration marks, sampled residuals) into `sink`.
    ///
    /// Every telemetry [`EventKind::Reconfig`] on the SpMV region
    /// corresponds one-to-one with an ICAP swap counted by
    /// [`FabricRunStats::spmv_reconfig_events`], and every
    /// [`EventKind::ReconfigAbort`] with [`FabricRunStats::reconfig_aborts`],
    /// so a drained trace reconstructs the run's reconfiguration ledger
    /// exactly. Observational only: numerics, cycle charges, and fault
    /// replay are unchanged with any sink installed.
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.inner = self.inner.with_telemetry(sink.clone());
        self.telemetry = sink;
        self
    }

    fn record(&mut self, e: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.record(e);
        }
    }

    /// Enables double-buffered (overlapped) partial reconfiguration: the
    /// bitstream for the next set streams through ICAP *while* the current
    /// set computes, so only the portion of the ICAP time exceeding the
    /// previous segment's compute stalls the pipeline. An extension beyond
    /// the paper's design (which serializes reconfiguration), useful for
    /// the `ablation_overlap` experiment.
    pub fn with_overlap(mut self, enabled: bool) -> Self {
        self.overlap_reconfig = enabled;
        self
    }

    /// Replaces the loop-phase schedule and
    /// [begins a new attempt](FabricKernels::begin_attempt) on it.
    pub fn set_schedule(&mut self, schedule: UnrollSchedule) {
        self.schedule = schedule;
        self.begin_attempt();
    }

    /// Marks the start of a new solver attempt on the current schedule
    /// (the Solver Modifier restarting with a different solver on the same
    /// matrix). The region rewrite that accompanies the solver swap
    /// reloads the schedule's first configuration — or, once degraded,
    /// re-pins the largest engine — and clears the previous attempt's
    /// stuck datapath bit; a new one is rolled per attempt. Operand
    /// identities do not outlive an attempt, so the cycle table starts
    /// empty.
    pub fn begin_attempt(&mut self) {
        self.attempt += 1;
        if self.degraded {
            // Stay static: re-pin to the schedule's largest engine with
            // one full-region recovery swap if the size changes.
            let max = self.schedule.max_unroll();
            if self.current_unroll != Some(max) {
                let cycles = self
                    .reconfig
                    .reconfigure(RegionKind::SpmvKernel, &spmv_engine(max));
                self.load_engine(max, 0, cycles, false);
            }
        } else {
            self.current_unroll = self.schedule.entries().first().map(|e| e.unroll);
        }
        self.stuck_raw = self
            .fault
            .as_ref()
            .and_then(|c| c.injector().stuck_flip(c.job(), c.site(self.attempt)));
        self.forget_operands();
    }

    /// Drops everything keyed by operand identity — the cycle table and
    /// the inner executor's plan binding — because the matrices behind
    /// the identities may be gone.
    fn forget_operands(&mut self) {
        self.table.clear();
        self.inner.forget_operands();
    }

    /// Charges a reconfiguration of the *outer* solver region holding
    /// `module` (Acamar's Solver Decision loop).
    pub fn charge_solver_reconfig(&mut self, module: &ResourceVector) {
        let cycles = self.reconfig.reconfigure(RegionKind::Solver, module);
        self.cycles.reconfig += cycles;
        self.telemetry.emit(EventKind::Reconfig {
            region: acamar_telemetry::Region::Solver,
            unroll: 0,
            set: 0,
        });
        self.telemetry.counter_add(Counter::SolverReconfigs, 1);
    }

    /// The device specification.
    pub fn spec(&self) -> &FabricSpec {
        &self.spec
    }

    /// The reconfiguration totals.
    pub fn reconfig_controller(&self) -> &ReconfigController {
        &self.reconfig
    }

    /// Current cycle totals (also available from [`FabricKernels::finish`]).
    pub fn cycles(&self) -> CycleBreakdown {
        self.cycles
    }

    /// Finalizes the run and returns its statistics.
    pub fn finish(self) -> FabricRunStats {
        let dense_area = self.spec.area_mm2(&dense_vector_unit());
        let control_area = self.spec.area_mm2(&crate::cost::solver_control_unit());
        let init_area = if self.used_init_spmv {
            self.spec.area_mm2(&spmv_engine(self.init_unroll))
        } else {
            0.0
        };
        let compute_cycles = self.cycles.compute().max(1) as f64;
        // Dense + control units are resident for the whole run; the
        // dynamic engine contributes its time-weighted area; cycles where
        // no engine ran (pure dense work) re-use the last loaded engine,
        // approximated by weighting only spmv cycles.
        let avg_engine_area = self.area_cycle_product / compute_cycles;
        // The engine sitting (idle or busy) in the DFX region between
        // SpMV calls: the last loaded configuration, or the first
        // scheduled.
        let idle_engine_area = self
            .current_unroll
            .map_or(0.0, |u| self.spec.area_mm2(&spmv_engine(u)));
        let resident = dense_area + control_area + init_area;
        FabricRunStats {
            cycles: self.cycles,
            spmv: self.spmv_agg,
            init_spmv: self.init_spmv_agg,
            capacity_flops: self.capacity_flops,
            useful_flops: self.inner.counts().total_flops(),
            spmv_reconfig_events: self.reconfig.count(RegionKind::SpmvKernel),
            avg_area_mm2: resident + avg_engine_area.max(idle_engine_area),
            peak_area_mm2: resident + self.peak_engine_area.max(idle_engine_area),
            used_init_spmv: self.used_init_spmv,
            reconfig_aborts: self.reconfig.abort_count(),
            lost_area_cycles: self.lost_area_cycles,
            degraded_to_static: self.degraded,
        }
    }

    /// The part of an ICAP stream of `cycles` that stalls the pipeline:
    /// all of it, or with overlapped reconfiguration what the previous
    /// segment's compute did not hide.
    fn stall(&self, cycles: u64) -> u64 {
        if self.overlap_reconfig {
            cycles.saturating_sub(self.last_segment_cycles)
        } else {
            cycles
        }
    }

    /// Completes a swap of the nested region to `unroll` (already counted
    /// by the controller) that stalled the pipeline for `stall` cycles.
    fn load_engine(&mut self, unroll: usize, set: usize, stall: u64, traced: bool) {
        if traced {
            self.record(TraceEvent::Reconfig {
                region: RegionKind::SpmvKernel,
                cycle: self.cycles.total(),
                duration: stall,
            });
        }
        self.telemetry.emit(EventKind::Reconfig {
            region: acamar_telemetry::Region::SpmvKernel,
            unroll: unroll.min(u8::MAX as usize) as u8,
            set: set as u32,
        });
        self.telemetry.counter_add(Counter::SpmvReconfigs, 1);
        self.cycles.reconfig += stall;
        self.current_unroll = Some(unroll);
    }

    /// Handles an injected ICAP abort of a swap that streamed `wasted`
    /// cycles: charges the wasted stream, performs one reliable
    /// full-region recovery swap to the schedule's max unroll, and pins
    /// the region there for the rest of the run.
    fn abort_and_degrade(&mut self, wasted: u64) {
        self.reconfig.record_abort(RegionKind::SpmvKernel, wasted);
        let stall = self.stall(wasted);
        self.record(TraceEvent::Reconfig {
            region: RegionKind::SpmvKernel,
            cycle: self.cycles.total(),
            duration: stall,
        });
        self.telemetry.emit(EventKind::ReconfigAbort {
            region: acamar_telemetry::Region::SpmvKernel,
        });
        self.telemetry.counter_add(Counter::ReconfigAborts, 1);
        self.cycles.reconfig += stall;
        let max = self.schedule.max_unroll();
        if self.current_unroll != Some(max) {
            let cycles = self
                .reconfig
                .reconfigure(RegionKind::SpmvKernel, &spmv_engine(max));
            self.load_engine(max, 0, cycles, true);
        }
        self.degraded = true;
    }

    /// Charges a dense-vector-unit pass over `n` elements.
    fn charge_dense(&mut self, n: usize, reduction: bool) {
        let cyc = dense_cycles(n, reduction);
        self.cycles.dense += cyc;
        self.capacity_flops += cyc as f64 * 2.0 * DENSE_VECTOR_WIDTH as f64;
    }

    /// Charges a buffer move of `n` elements: the dense unit's cycles, none
    /// of its MAC capacity.
    fn charge_move(&mut self, n: usize) {
        self.cycles.dense += dense_cycles(n, false);
    }

    /// Charges the dense primitive calls `ops`, each over `n` elements, one
    /// after the other — a fused pass is priced as the sequence it stands
    /// for ([`FusedPass::unfused`]): fusion saves host memory passes, not
    /// fabric work.
    fn charge(&mut self, ops: &[DenseOp], n: usize) {
        for op in ops {
            match op {
                DenseOp::Copy => self.charge_move(n),
                DenseOp::Dot => self.charge_dense(n, true),
                DenseOp::Axpy | DenseOp::Xpby | DenseOp::Scale | DenseOp::Hadamard => {
                    self.charge_dense(n, false)
                }
            }
        }
    }

    /// Charges a pass of `cyc` cycles through a serial sparse pipeline
    /// (one stored entry per cycle: the SOR sweep, a triangular solve).
    fn charge_serial_sparse(&mut self, cyc: u64) {
        self.cycles.spmv += cyc;
        self.capacity_flops += cyc as f64 * 2.0;
    }

    fn run_engine(&mut self, price: &SegmentPrice) {
        let exec = &price.exec;
        self.cycles.spmv += exec.cycles;
        // Peak capacity counts *issued* MAC slots (2 FLOPs each), matching
        // the paper's Eq. 5 utilization view: row-transition and memory
        // stall cycles are latency, not wasted compute slots.
        self.capacity_flops += exec.slots_issued as f64 * 2.0;
        self.area_cycle_product += price.engine_area * exec.cycles as f64;
        self.peak_engine_area = self.peak_engine_area.max(price.engine_area);
        match self.phase {
            Phase::Initialize => self.init_spmv_agg = self.init_spmv_agg.merge(exec),
            Phase::Loop => self.spmv_agg = self.spmv_agg.merge(exec),
        }
    }

    /// Charges one SpMV by `a`, replaying the operand's [`CycleTable`]
    /// prices (filled by the row walk on its first SpMV of the attempt).
    /// Debug builds re-derive every replayed price by the walk.
    fn charge_spmv<T: Scalar>(&mut self, a: &CsrMatrix<T>) {
        self.cycles.spmv += PIPELINE_DEPTH;
        let op = self.table.operand(a);
        if self.phase == Phase::Initialize {
            // Static un-reconfigured engine (paper §IV-B, Initialize
            // unit): one pass at the fixed init unroll factor.
            self.used_init_spmv = true;
            let price = self.table.init(op, a, self.init_unroll, &self.spec);
            debug_assert_eq!(
                price,
                SegmentPrice::of(a, 0..a.nrows(), self.init_unroll, &self.spec),
                "stale init-phase price"
            );
            self.run_engine(&price);
            return;
        }
        // Dynamic SpMV Kernel: walk the schedule, reconfiguring the nested
        // region on unroll changes. A swap may suffer an injected ICAP
        // abort, after which the region is pinned to max unroll and the
        // walk stops reconfiguring. Schedules are built for A; entries
        // beyond a shorter operand's rows are skipped.
        for idx in 0..self.schedule.walkable(a.nrows()) {
            let entry = &self.schedule.entries()[idx];
            let (rows, unroll) = (entry.rows.clone(), entry.unroll);
            let mut price =
                self.table
                    .segment(op, a, &self.schedule, self.degraded, idx, &self.spec);
            if !self.degraded && self.current_unroll != Some(unroll) {
                let site = self.swap_site;
                self.swap_site += 1;
                let aborts = self
                    .fault
                    .as_ref()
                    .is_some_and(|c| c.injector().reconfig_aborts(c.job(), c.site(site)));
                if aborts {
                    self.abort_and_degrade(price.swap_cycles);
                    price = self
                        .table
                        .segment(op, a, &self.schedule, true, idx, &self.spec);
                } else {
                    self.reconfig
                        .charge(RegionKind::SpmvKernel, price.swap_cycles);
                    let stall = self.stall(price.swap_cycles);
                    self.load_engine(unroll, idx, stall, true);
                }
            }
            let engaged = if self.degraded {
                self.current_unroll.unwrap_or(unroll)
            } else {
                unroll
            };
            debug_assert_eq!(
                price,
                SegmentPrice::of(a, rows.clone(), engaged, &self.spec),
                "stale price for schedule entry {idx}"
            );
            let at = self.cycles.total();
            self.run_engine(&price);
            self.last_segment_cycles = price.exec.cycles;
            if engaged != unroll {
                self.lost_area_cycles += self.last_segment_cycles;
            }
            self.telemetry.emit(EventKind::SpmvSegment {
                set: idx as u32,
                rows: rows.len().min(u32::MAX as usize) as u32,
                unroll: engaged.min(u8::MAX as usize) as u8,
                cycles: self.last_segment_cycles,
            });
            self.telemetry.counter_add(Counter::SpmvSegments, 1);
            self.record(TraceEvent::SpmvSegment {
                rows,
                unroll: engaged,
                cycle: at,
                duration: self.last_segment_cycles,
            });
        }
    }

    /// The stuck datapath bit, if one afflicts this attempt's loop-phase
    /// sparse kernels (the initialize phase runs on the static engine).
    fn stuck_bit(&self) -> Option<u64> {
        match self.phase {
            Phase::Initialize => None,
            Phase::Loop => self.stuck_raw,
        }
    }
}

impl<T: Scalar> Kernels<T> for FabricKernels {
    fn spmv(&mut self, a: &CsrMatrix<T>, x: &[T], y: &mut [T]) {
        self.inner.spmv(a, x, y);
        self.charge_spmv(a);
        if let Some(raw) = self.stuck_bit() {
            FaultInjector::apply_flip(raw, y);
        }
    }

    fn dot(&mut self, x: &[T], y: &[T]) -> T {
        self.charge(&[DenseOp::Dot], x.len());
        self.inner.dot(x, y)
    }

    fn dot_carried(&mut self, x: &[T], y: &[T], carried: Option<T>) -> T {
        // The reduction tree runs where the algorithm asks for the product,
        // whichever host pass happened to accumulate it.
        self.charge(&[DenseOp::Dot], x.len());
        self.inner.dot_carried(x, y, carried)
    }

    fn spmv_dot(&mut self, a: &CsrMatrix<T>, x: &[T], y: &mut [T], z: &[T]) -> T {
        // Fusion saves a host memory pass, not fabric work: the dense unit
        // still streams `y` through its reduction tree, so the charge is
        // exactly the unfused SpMV + dot pair.
        let dot = match self.stuck_bit() {
            // A stuck bit corrupts `y` as it leaves the engine, before the
            // reduction reads it: run the pair unfused around the flip.
            Some(raw) => {
                self.inner.spmv(a, x, y);
                FaultInjector::apply_flip(raw, y);
                self.inner.dot(y, z)
            }
            None => self.inner.spmv_dot(a, x, y, z),
        };
        self.charge_spmv(a);
        self.charge(&[DenseOp::Dot], y.len());
        dot
    }

    fn acquire_buffer(&mut self, n: usize) -> Vec<T> {
        self.inner.acquire_buffer(n)
    }

    fn release_buffer(&mut self, buf: Vec<T>) {
        self.inner.release_buffer(buf);
    }

    fn axpy(&mut self, alpha: T, x: &[T], y: &mut [T]) {
        self.charge(&[DenseOp::Axpy], x.len());
        self.inner.axpy(alpha, x, y);
    }

    fn xpby(&mut self, x: &[T], beta: T, y: &mut [T]) {
        self.charge(&[DenseOp::Xpby], x.len());
        self.inner.xpby(x, beta, y);
    }

    fn scale(&mut self, alpha: T, x: &mut [T]) {
        self.charge(&[DenseOp::Scale], x.len());
        self.inner.scale(alpha, x);
    }

    fn copy(&mut self, src: &[T], dst: &mut [T]) {
        self.charge(&[DenseOp::Copy], src.len());
        self.inner.copy(src, dst);
    }

    fn hadamard(&mut self, a: &[T], x: &[T], y: &mut [T]) {
        self.charge(&[DenseOp::Hadamard], a.len());
        self.inner.hadamard(a, x, y);
    }

    fn sor_sweep(&mut self, a: &CsrMatrix<T>, diag: &[T], omega: T, b: &[T], x: &mut [T]) {
        // The sweep streams every stored entry once, but each row's update
        // feeds the next row's accumulation — a serial dependence chain
        // the unrolled SpMV engine cannot pipeline across. Charged as one
        // entry per cycle plus a single pipeline fill, on top of the dense
        // relaxation update (divide, subtract, scale, add per row).
        self.charge_serial_sparse(a.nnz() as u64 + PIPELINE_DEPTH);
        self.charge_dense(a.nrows(), false);
        self.inner.sor_sweep(a, diag, omega, b, x);
    }

    fn sptrsv(&mut self, plan: &CompiledSptrsv, m: &LevelOrdered<T>, b: &[T], x: &mut [T]) {
        // Substitution streams the triangle once like an SpMV pass, but
        // every topological level must drain before the next may issue, so
        // each level pays a pipeline refill. Narrow schedules (many
        // levels) therefore cost proportionally more. The host walks the
        // same levels in order, one row after another.
        self.charge_serial_sparse(
            plan.tri_nnz() as u64 + plan.level_count() as u64 * PIPELINE_DEPTH,
        );
        self.inner.sptrsv(plan, m, b, x);
        // The SpTRSV fault seam: a stuck-at line in the substitution
        // datapath corrupts the freshly produced vector exactly like the
        // SpMV seam corrupts `y` (same per-attempt stuck-raw roll).
        if let Some(raw) = self.stuck_bit() {
            FaultInjector::apply_flip(raw, x);
        }
    }

    fn derived_operand(
        &mut self,
        a: &CsrMatrix<T>,
        diag: &mut [T],
        inv_diag: &mut [T],
    ) -> CsrMatrix<T> {
        // Forming T is host set-up: nothing is charged for it.
        self.inner.derived_operand(a, diag, inv_diag)
    }

    fn release_operand(&mut self, t: CsrMatrix<T>) {
        self.inner.release_operand(t);
    }

    fn ic0_factors(&mut self, a: &CsrMatrix<T>) -> Result<Ic0<T>, SparseError> {
        // Factoring is host set-up too: the fabric is charged for the
        // substitutions, through the plans' triangles and levels.
        self.inner.ic0_factors(a)
    }

    fn release_ic0_factors(&mut self, factors: Ic0<T>) {
        self.inner.release_ic0_factors(factors);
    }

    fn observe_preconditioner(&mut self, ic0: bool, levels: usize) {
        Kernels::<T>::observe_preconditioner(&mut self.inner, ic0, levels);
    }

    fn jacobi_step(&mut self, c: &[T], tx: &[T], x: &[T], diag: &[T], x_new: &mut [T]) -> T {
        self.charge(FusedPass::JacobiStep.unfused(), x_new.len());
        self.inner.jacobi_step(c, tx, x, diag, x_new)
    }

    fn waxpy(&mut self, alpha: T, x: &[T], y: &[T], w: &mut [T]) {
        self.charge(FusedPass::Waxpy.unfused(), w.len());
        self.inner.waxpy(alpha, x, y, w);
    }

    fn dot_pair(&mut self, x: &[T], y: &[T]) -> (T, T) {
        self.charge(FusedPass::DotPair.unfused(), x.len());
        self.inner.dot_pair(x, y)
    }

    fn cg_update(&mut self, alpha: T, p: &[T], ap: &[T], x: &mut [T], r: &mut [T]) -> Option<T> {
        self.charge(FusedPass::CgUpdate.unfused(), r.len());
        self.inner.cg_update(alpha, p, ap, x, r)
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
        self.charge(FusedPass::BicgstabUpdate.unfused(), r.len());
        self.inner
            .bicgstab_update(alpha, p, omega, s, as_, r0s, x, r)
    }

    fn bicgstab_direction(&mut self, r: &[T], beta: T, omega: T, ap: &[T], p: &mut [T]) {
        self.charge(FusedPass::BicgstabDirection.unfused(), p.len());
        self.inner.bicgstab_direction(r, beta, omega, ap, p);
    }

    fn set_phase(&mut self, phase: Phase) {
        let at = self.cycles.total();
        self.record(TraceEvent::PhaseStart { phase, cycle: at });
        self.telemetry.emit(EventKind::PhaseStart {
            phase: match phase {
                Phase::Initialize => 0,
                Phase::Loop => 1,
            },
        });
        self.phase = phase;
        if phase == Phase::Initialize {
            // A solver is starting: whatever it multiplies by is new.
            self.forget_operands();
        }
    }

    fn begin_iteration(&mut self, iter: usize) {
        let at = self.cycles.total();
        self.record(TraceEvent::IterationStart {
            iteration: iter,
            cycle: at,
        });
        self.telemetry.emit(EventKind::IterationStart {
            iteration: iter.min(u32::MAX as usize) as u32,
        });
    }

    fn observe_residual(&mut self, iter: usize, relative: f64) {
        self.telemetry.observe_residual(iter, relative);
    }

    fn counts(&self) -> OpCounts {
        self.inner.counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_solvers::{bicgstab, conjugate_gradient, jacobi, ConvergenceCriteria};
    use acamar_sparse::generate::{self, RowDistribution};

    fn spec() -> FabricSpec {
        FabricSpec::alveo_u55c()
    }

    #[test]
    fn uniform_schedule_has_no_changes() {
        let s = UnrollSchedule::uniform(100, 8);
        assert_eq!(s.changes_per_pass(), 0);
        assert_eq!(s.max_unroll(), 8);
    }

    #[test]
    fn schedule_counts_changes() {
        let s = UnrollSchedule::from_entries(
            12,
            vec![
                ScheduleEntry {
                    rows: 0..4,
                    unroll: 4,
                },
                ScheduleEntry {
                    rows: 4..8,
                    unroll: 4,
                },
                ScheduleEntry {
                    rows: 8..12,
                    unroll: 8,
                },
            ],
        );
        assert_eq!(s.changes_per_pass(), 1);
        assert_eq!(s.max_unroll(), 8);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn schedule_rejects_gaps() {
        let _ = UnrollSchedule::from_entries(
            8,
            vec![
                ScheduleEntry {
                    rows: 0..3,
                    unroll: 2,
                },
                ScheduleEntry {
                    rows: 4..8,
                    unroll: 2,
                },
            ],
        );
    }

    #[test]
    fn solver_numerics_match_software_kernels() {
        let a = generate::poisson2d::<f32>(8, 8);
        let b = vec![1.0_f32; 64];
        let crit = ConvergenceCriteria::paper();
        let mut hw = FabricKernels::new(spec(), UnrollSchedule::uniform(64, 4), 4);
        let hw_rep = conjugate_gradient(&a, &b, None, &crit, &mut hw).unwrap();
        let mut sw = acamar_solvers::SoftwareKernels::new();
        let sw_rep = conjugate_gradient(&a, &b, None, &crit, &mut sw).unwrap();
        assert_eq!(hw_rep.iterations, sw_rep.iterations);
        assert_eq!(hw_rep.solution, sw_rep.solution);
        assert_eq!(hw_rep.counts.spmv_calls, sw_rep.counts.spmv_calls);
    }

    #[test]
    fn workspace_buffers_are_recycled_across_fabric_solves() {
        let a = generate::poisson2d::<f32>(8, 8);
        let b = vec![1.0_f32; 64];
        let crit = ConvergenceCriteria::paper();
        let ws = WorkspaceHandle::new();

        let mut k1 = FabricKernels::new(spec(), UnrollSchedule::uniform(64, 4), 4)
            .with_workspace(ws.clone());
        let rep1 = conjugate_gradient(&a, &b, None, &crit, &mut k1).unwrap();
        let (_, fresh_after_cold) = ws.stats();

        let mut k2 = FabricKernels::new(spec(), UnrollSchedule::uniform(64, 4), 4)
            .with_workspace(ws.clone());
        let rep2 = conjugate_gradient(&a, &b, None, &crit, &mut k2).unwrap();
        let (reuses, fresh_after_warm) = ws.stats();

        assert_eq!(rep1.solution, rep2.solution);
        assert!(reuses > 0, "warm solve should recycle pooled buffers");
        // The warm solve allocates at most one fresh buffer (the solution
        // vector escapes the pool, so its replacement is fresh).
        assert!(
            fresh_after_warm - fresh_after_cold <= 1,
            "warm solve allocated {} fresh buffers",
            fresh_after_warm - fresh_after_cold
        );
    }

    #[test]
    fn spmv_dominates_cycles_on_sparse_problems() {
        // Fig. 1: SpMV is the most expensive kernel.
        let a =
            generate::random_pattern::<f32>(512, RowDistribution::Uniform { min: 8, max: 32 }, 11);
        let dd = {
            // make it Jacobi-friendly
            generate::diagonally_dominant::<f32>(
                512,
                RowDistribution::Uniform { min: 8, max: 32 },
                1.5,
                11,
            )
        };
        let _ = a;
        let b = vec![1.0_f32; 512];
        let mut hw = FabricKernels::new(spec(), UnrollSchedule::uniform(512, 2), 2);
        let rep = jacobi(&dd, &b, None, &ConvergenceCriteria::paper(), &mut hw).unwrap();
        assert!(rep.converged());
        let stats = hw.finish();
        assert!(
            stats.cycles.spmv_share() > 0.5,
            "spmv share {}",
            stats.cycles.spmv_share()
        );
    }

    #[test]
    fn loop_phase_reconfigures_on_unroll_changes() {
        let a =
            generate::random_pattern::<f32>(64, RowDistribution::Uniform { min: 2, max: 10 }, 5);
        let schedule = UnrollSchedule::from_entries(
            64,
            vec![
                ScheduleEntry {
                    rows: 0..32,
                    unroll: 2,
                },
                ScheduleEntry {
                    rows: 32..64,
                    unroll: 8,
                },
            ],
        );
        let mut hw = FabricKernels::new(spec(), schedule, 4);
        let x = vec![1.0_f32; 64];
        let mut y = vec![0.0_f32; 64];
        Kernels::<f32>::set_phase(&mut hw, Phase::Loop);
        Kernels::<f32>::spmv(&mut hw, &a, &x, &mut y);
        // first pass: engine pre-loaded with unroll 2, one change to 8
        assert_eq!(hw.reconfig_controller().count(RegionKind::SpmvKernel), 1);
        // second pass: engine holds 8, must go back to 2, then to 8 again
        Kernels::<f32>::spmv(&mut hw, &a, &x, &mut y);
        assert_eq!(hw.reconfig_controller().count(RegionKind::SpmvKernel), 3);
        assert!(hw.cycles().reconfig > 0);
    }

    #[test]
    fn initialize_phase_uses_static_engine_without_reconfig() {
        let a = generate::poisson2d::<f32>(6, 6);
        let schedule = UnrollSchedule::from_entries(
            36,
            vec![
                ScheduleEntry {
                    rows: 0..18,
                    unroll: 2,
                },
                ScheduleEntry {
                    rows: 18..36,
                    unroll: 16,
                },
            ],
        );
        let mut hw = FabricKernels::new(spec(), schedule, 4);
        let b = vec![1.0_f32; 36];
        let rep = bicgstab(&a, &b, None, &ConvergenceCriteria::paper(), &mut hw).unwrap();
        assert!(rep.converged());
        let stats = hw.finish();
        assert!(stats.used_init_spmv);
        assert!(stats.init_spmv.nnz > 0);
        // the init pass never appears in the loop aggregate
        assert_eq!(
            stats.spmv.nnz + stats.init_spmv.nnz,
            rep.counts.spmv_nnz_processed
        );
    }

    #[test]
    fn achieved_throughput_is_a_fraction() {
        let a = generate::poisson2d::<f32>(8, 8);
        let b = vec![1.0_f32; 64];
        let mut hw = FabricKernels::new(spec(), UnrollSchedule::uniform(64, 4), 4);
        let _ = conjugate_gradient(&a, &b, None, &ConvergenceCriteria::paper(), &mut hw).unwrap();
        let stats = hw.finish();
        let t = stats.achieved_throughput();
        assert!(t > 0.0 && t <= 1.0, "throughput {t}");
        assert!(stats.avg_area_mm2 > 0.0);
        assert!(stats.peak_area_mm2 >= stats.avg_area_mm2 * 0.99);
    }

    #[test]
    fn injected_abort_degrades_to_static_max_unroll() {
        use acamar_faultline::{FaultCategory, FaultContext, FaultInjector, FaultPlan};
        use std::sync::Arc;

        let a =
            generate::random_pattern::<f32>(64, RowDistribution::Uniform { min: 2, max: 10 }, 5);
        let schedule = UnrollSchedule::from_entries(
            64,
            vec![
                ScheduleEntry {
                    rows: 0..32,
                    unroll: 2,
                },
                ScheduleEntry {
                    rows: 32..64,
                    unroll: 8,
                },
            ],
        );
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new(9).with_rate(FaultCategory::ReconfigAbort, 1.0),
        ));
        let mut hw = FabricKernels::new(spec(), schedule, 4)
            .with_fault_context(FaultContext::new(Arc::clone(&inj), 0));
        let x = vec![1.0_f32; 64];
        let mut y = vec![0.0_f32; 64];
        Kernels::<f32>::set_phase(&mut hw, Phase::Loop);
        // First pass: the 2→8 swap aborts; recovery pins the region at
        // max unroll (8). Second pass: no further swaps, and the rows
        // planned for unroll 2 run on the oversized engine.
        Kernels::<f32>::spmv(&mut hw, &a, &x, &mut y);
        assert!(hw.is_degraded());
        let after_first = hw.reconfig_controller().count(RegionKind::SpmvKernel);
        Kernels::<f32>::spmv(&mut hw, &a, &x, &mut y);
        assert_eq!(
            hw.reconfig_controller().count(RegionKind::SpmvKernel),
            after_first,
            "degraded region must never reconfigure again"
        );
        let stats = hw.finish();
        assert!(stats.degraded_to_static);
        assert_eq!(stats.reconfig_aborts, 1);
        assert!(
            stats.lost_area_cycles > 0,
            "oversized-engine cycles uncounted"
        );
        assert_eq!(inj.injected()[FaultCategory::ReconfigAbort.index()], 1);
    }

    #[test]
    fn injected_stuck_bit_corrupts_loop_spmv_only() {
        use acamar_faultline::{FaultCategory, FaultContext, FaultInjector, FaultPlan};
        use std::sync::Arc;

        let a = generate::poisson2d::<f64>(6, 6);
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new(3).with_rate(FaultCategory::SpmvBitFlip, 1.0),
        ));
        let mut hw = FabricKernels::new(spec(), UnrollSchedule::uniform(36, 4), 4)
            .with_fault_context(FaultContext::new(Arc::clone(&inj), 7));
        let x = vec![1.0_f64; 36];
        let mut y = vec![0.0_f64; 36];
        // Initialize phase runs the static engine: never corrupted, even
        // after the attempt's stuck bit has been rolled.
        hw.set_schedule(UnrollSchedule::uniform(36, 4));
        Kernels::<f64>::spmv(&mut hw, &a, &x, &mut y);
        assert!(y.iter().all(|v| v.is_finite() && v.abs() < 1e3));
        Kernels::<f64>::set_phase(&mut hw, Phase::Loop);
        Kernels::<f64>::spmv(&mut hw, &a, &x, &mut y);
        let loud = y
            .iter()
            .filter(|v| !v.is_finite() || v.abs() > 1e100)
            .count();
        assert_eq!(loud, 1, "exactly one stuck output element per attempt");
        assert_eq!(inj.injected()[FaultCategory::SpmvBitFlip.index()], 1);
    }

    #[test]
    fn injected_stuck_bit_corrupts_loop_sptrsv_only() {
        use acamar_faultline::{FaultCategory, FaultContext, FaultInjector, FaultPlan};
        use acamar_sparse::CompiledSptrsv;
        use std::sync::Arc;

        let a = generate::poisson2d::<f64>(6, 6);
        let plan = CompiledSptrsv::compile_lower(&a).unwrap();
        // The operand substitution meets in production: an IC(0) factor,
        // reciprocal pivots in its diagonal slots.
        let ic0 = acamar_solvers::Ic0::factor(&a).unwrap();
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new(3).with_rate(FaultCategory::SpmvBitFlip, 1.0),
        ));
        let mut hw = FabricKernels::new(spec(), UnrollSchedule::uniform(36, 4), 4)
            .with_fault_context(FaultContext::new(Arc::clone(&inj), 7));
        let b = vec![1.0_f64; 36];
        let mut x = vec![0.0_f64; 36];
        // Roll the attempt's stuck bit; the Initialize-phase substitution
        // (preconditioner setup) must stay clean regardless.
        hw.set_schedule(UnrollSchedule::uniform(36, 4));
        Kernels::<f64>::sptrsv(&mut hw, &plan, ic0.lower(), &b, &mut x);
        assert!(x.iter().all(|v| v.is_finite() && v.abs() < 1e3));
        // Loop phase: the substitution datapath seam corrupts exactly one
        // element of the freshly produced vector, like the SpMV seam.
        Kernels::<f64>::set_phase(&mut hw, Phase::Loop);
        Kernels::<f64>::sptrsv(&mut hw, &plan, ic0.lower(), &b, &mut x);
        let loud = x
            .iter()
            .filter(|v| !v.is_finite() || v.abs() > 1e100)
            .count();
        assert_eq!(loud, 1, "exactly one stuck output element per attempt");
        assert_eq!(inj.injected()[FaultCategory::SpmvBitFlip.index()], 1);
    }

    #[test]
    fn the_sptrsv_fault_seam_flips_the_same_natural_entry_in_a_level_ordered_walk() {
        use acamar_faultline::{FaultCategory, FaultContext, FaultInjector, FaultPlan};
        use std::sync::Arc;

        // On a grid the level order is not the row order: row 1 and row
        // `nx` share the second wavefront, ahead of row 2.
        let a = generate::poisson2d::<f64>(9, 7);
        let ic0 = acamar_solvers::Ic0::factor(&a).unwrap();
        let plan = &ic0.plans().0;
        assert_eq!(plan.order()[..4], [0, 1, 9, 2]);
        let b: Vec<f64> = (0..63).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut clean = vec![0.0_f64; 63];
        let mut sw = SoftwareKernels::new();
        Kernels::<f64>::sptrsv(&mut sw, plan, ic0.lower(), &b, &mut clean);

        for seed in 0..8 {
            let inj = Arc::new(FaultInjector::new(
                FaultPlan::new(seed).with_rate(FaultCategory::SpmvBitFlip, 1.0),
            ));
            let mut hw = FabricKernels::new(spec(), UnrollSchedule::uniform(63, 4), 4)
                .with_fault_context(FaultContext::new(Arc::clone(&inj), 7));
            hw.set_schedule(UnrollSchedule::uniform(63, 4));
            Kernels::<f64>::set_phase(&mut hw, Phase::Loop);
            let raw = hw.stuck_bit().expect("a stuck bit is armed");
            let mut x = vec![0.0_f64; 63];
            Kernels::<f64>::sptrsv(&mut hw, plan, ic0.lower(), &b, &mut x);
            // The fault-free answer with the flip where the seam puts it on
            // a natural-order vector.
            let mut want = clean.clone();
            FaultInjector::apply_flip(raw, &mut want);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x), bits(&want), "seed {seed}");
            let flipped = (raw % 63) as usize;
            assert_ne!(
                x[flipped].to_bits(),
                clean[flipped].to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn compiled_plan_leaves_numerics_counts_cycles_and_faults_unchanged() {
        use acamar_faultline::{FaultCategory, FaultContext, FaultInjector, FaultPlan};

        // Every diagonal entry stored, so Jacobi's operand has a memo.
        let a = generate::diagonally_dominant::<f64>(
            96,
            RowDistribution::Uniform { min: 1, max: 12 },
            1.5,
            21,
        );
        let schedule = UnrollSchedule::from_entries(
            96,
            vec![
                ScheduleEntry {
                    rows: 0..48,
                    unroll: 2,
                },
                ScheduleEntry {
                    rows: 48..96,
                    unroll: 8,
                },
            ],
        );
        let plan = Arc::new(CompiledSpmv::compile(&a, &schedule.band_hints()).unwrap());
        let x: Vec<f64> = (0..96).map(|i| ((i % 9) as f64) * 0.5 - 2.0).collect();
        let (mut diag, mut inv) = (vec![0.0_f64; 96], vec![0.0_f64; 96]);

        // Fault-free: compiled host arithmetic is bitwise identical and
        // the cycle model doesn't notice the host kernel swap.
        let mut plain = FabricKernels::new(spec(), schedule.clone(), 4);
        Kernels::<f64>::set_phase(&mut plain, Phase::Loop);
        let mut y_ref = vec![0.0_f64; 96];
        Kernels::<f64>::spmv(&mut plain, &a, &x, &mut y_ref);

        // A derived operand too (Jacobi's `a` without its diagonal, rows
        // scaled), which the planned executor fills from the memo's split
        // and runs through the memo's second plan.
        let t_ref = Kernels::<f64>::derived_operand(&mut plain, &a, &mut diag, &mut inv);
        assert_eq!(t_ref, a.split_jacobi(&mut diag, &mut inv).unwrap());
        let mut ty_ref = vec![0.0_f64; 96];
        Kernels::<f64>::spmv(&mut plain, &t_ref, &x, &mut ty_ref);

        let memo = Arc::new(DerivedPlan::new(schedule.band_hints()));
        let mut comp = FabricKernels::new(spec(), schedule.clone(), 4)
            .with_compiled_plan(Arc::clone(&plan))
            .with_derived_plan(Arc::clone(&memo));
        Kernels::<f64>::set_phase(&mut comp, Phase::Loop);
        let mut y = vec![0.0_f64; 96];
        Kernels::<f64>::spmv(&mut comp, &a, &x, &mut y);
        assert!(memo.get().is_none(), "nothing derived yet, nothing built");
        let t = Kernels::<f64>::derived_operand(&mut comp, &a, &mut diag, &mut inv);
        assert_eq!(t, t_ref);
        let t_plan = Arc::clone(memo.get().expect("the first build fills the memo"));
        assert!(t_plan.verify_pattern(&t));
        let mut ty = vec![0.0_f64; 96];
        Kernels::<f64>::spmv(&mut comp, &t, &x, &mut ty);

        assert_eq!(y, y_ref);
        assert_eq!(ty, ty_ref);
        assert_eq!(
            Kernels::<f64>::counts(&comp),
            Kernels::<f64>::counts(&plain)
        );
        assert_eq!(comp.cycles(), plain.cycles());

        // Under an injected stuck bit the corrupted outputs are byte-equal
        // too: the flip applies to `y` after the SpMV either way.
        let run_faulty = |with_plan: bool| {
            let inj = Arc::new(FaultInjector::new(
                FaultPlan::new(5).with_rate(FaultCategory::SpmvBitFlip, 1.0),
            ));
            let mut hw = FabricKernels::new(spec(), schedule.clone(), 4)
                .with_fault_context(FaultContext::new(inj, 3));
            if with_plan {
                hw = hw
                    .with_compiled_plan(Arc::clone(&plan))
                    .with_derived_plan(Arc::clone(&memo));
            }
            hw.set_schedule(schedule.clone());
            Kernels::<f64>::set_phase(&mut hw, Phase::Loop);
            let (mut diag, mut inv) = (vec![0.0_f64; 96], vec![0.0_f64; 96]);
            let t = Kernels::<f64>::derived_operand(&mut hw, &a, &mut diag, &mut inv);
            let mut y = vec![0.0_f64; 96];
            let d = hw.spmv_dot(&a, &x, &mut y, &x);
            let mut ty = vec![0.0_f64; 96];
            let td = hw.spmv_dot(&t, &x, &mut ty, &x);
            (y, d, ty, td, hw.cycles())
        };
        let (fy_ref, fd_ref, fty_ref, ftd_ref, cycles_ref) = run_faulty(false);
        let (fy, fd, fty, ftd, cycles) = run_faulty(true);
        // Byte-compare: the injected flip may have produced a NaN.
        for (got, want) in fy.iter().zip(&fy_ref).chain(fty.iter().zip(&fty_ref)) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert_eq!(fd.to_bits(), fd_ref.to_bits());
        assert_eq!(ftd.to_bits(), ftd_ref.to_bits());
        assert_eq!(cycles, cycles_ref);
        // The replay refilled from the memo: one split, one compile per
        // pattern, and every operand of the pattern on the same arrays.
        assert!(Arc::ptr_eq(memo.get().unwrap(), &t_plan));
        assert_eq!(
            memo.split().unwrap().pattern().row_ptr().as_ptr(),
            t.row_ptr().as_ptr()
        );
    }

    #[test]
    fn fast_policy_keeps_counts_cycles_and_fault_flip_ordering() {
        use acamar_faultline::{FaultCategory, FaultContext, FaultInjector, FaultPlan};
        use acamar_sparse::DeterminismPolicy;

        let a =
            generate::random_pattern::<f64>(96, RowDistribution::Uniform { min: 1, max: 12 }, 21);
        let schedule = UnrollSchedule::from_entries(
            96,
            vec![
                ScheduleEntry {
                    rows: 0..48,
                    unroll: 2,
                },
                ScheduleEntry {
                    rows: 48..96,
                    unroll: 8,
                },
            ],
        );
        let plan = Arc::new(CompiledSpmv::compile(&a, &schedule.band_hints()).unwrap());
        let x: Vec<f64> = (0..96).map(|i| ((i % 9) as f64) * 0.5 - 2.0).collect();

        // Charges are tier-independent: the fabric model bills the same
        // work whichever host summation order computes it.
        let run = |policy: DeterminismPolicy| {
            let mut hw = FabricKernels::new(spec(), schedule.clone(), 4)
                .with_compiled_plan(Arc::clone(&plan))
                .with_policy(policy);
            Kernels::<f64>::set_phase(&mut hw, Phase::Loop);
            let mut y = vec![0.0_f64; 96];
            let d = hw.spmv_dot(&a, &x, &mut y, &x);
            let mut w = x.clone();
            let n = hw.cg_update(0.25, &x, &x, &mut w, &mut y);
            let n = hw.dot_carried(&y, &y, n);
            (Kernels::<f64>::counts(&hw), hw.cycles(), y, d, n)
        };
        let (counts_det, cycles_det, y_det, d_det, n_det) = run(DeterminismPolicy::Deterministic);
        let (counts_fast, cycles_fast, y_fast, d_fast, n_fast) = run(DeterminismPolicy::Fast);
        assert_eq!(counts_det, counts_fast);
        assert_eq!(cycles_det, cycles_fast);
        assert!((d_det - d_fast).abs() <= 1e-10 * d_det.abs().max(1.0));
        assert!((n_det - n_fast).abs() <= 1e-10 * n_det.abs().max(1.0));
        // Fast SpMV reassociates row sums, so y agrees to rounding only.
        for (f, d) in y_fast.iter().zip(&y_det) {
            assert!((f - d).abs() <= 1e-12 * d.abs().max(1.0), "{f} vs {d}");
        }

        // The stuck-bit flip still lands on `y` before the fused dot reads
        // it, so both tiers see the corrupted element in the reduction.
        let run_faulty = |policy: DeterminismPolicy| {
            let inj = Arc::new(FaultInjector::new(
                FaultPlan::new(5).with_rate(FaultCategory::SpmvBitFlip, 1.0),
            ));
            let mut hw = FabricKernels::new(spec(), schedule.clone(), 4)
                .with_compiled_plan(Arc::clone(&plan))
                .with_fault_context(FaultContext::new(inj, 3))
                .with_policy(policy);
            hw.set_schedule(schedule.clone());
            Kernels::<f64>::set_phase(&mut hw, Phase::Loop);
            let mut y = vec![0.0_f64; 96];
            let d = hw.spmv_dot(&a, &x, &mut y, &x);
            (y, d)
        };
        let (fy_det, fd_det) = run_faulty(DeterminismPolicy::Deterministic);
        let (fy_fast, fd_fast) = run_faulty(DeterminismPolicy::Fast);
        let loud = |y: &[f64]| {
            y.iter()
                .enumerate()
                .filter(|(_, v)| !v.is_finite() || v.abs() > 1e50)
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        };
        // Same single element corrupted on both tiers...
        assert_eq!(loud(&fy_det), loud(&fy_fast));
        assert_eq!(loud(&fy_det).len(), 1);
        // ...and both fused dots absorbed it.
        assert!(fd_det.abs() > 1e50 || !fd_det.is_finite());
        assert!(fd_fast.abs() > 1e50 || !fd_fast.is_finite());
    }

    #[test]
    fn bicg_with_a_plan_is_bitwise_bicg_without_one_on_both_executors() {
        // BiCG multiplies by Aᵀ, which has A's shape and entry count: a
        // plan matched by shape alone ran A's column slots over Aᵀ's
        // values (10 000 iterations in release, a slot-audit panic in
        // debug). The plan binds to A by identity; Aᵀ walks generically.
        let a = generate::diagonally_dominant::<f64>(
            150,
            RowDistribution::Uniform { min: 2, max: 9 },
            1.5,
            7,
        );
        assert_ne!(a.transpose().col_idx(), a.col_idx(), "pattern-nonsymmetric");
        let b = vec![1.0_f64; 150];
        let crit = ConvergenceCriteria::paper();
        let plan = Arc::new(CompiledSpmv::compile_default(&a));

        let plain = acamar_solvers::bicg(&a, &b, None, &crit, &mut SoftwareKernels::new()).unwrap();
        assert!(plain.converged());
        assert_eq!(plain.iterations, 17);
        // With the derived-operand memo installed as well: BiCG announces
        // no derived operand, so Aᵀ must not pick that slot up either.
        let schedule = UnrollSchedule::uniform(150, 4);
        let memo = Arc::new(DerivedPlan::new(schedule.band_hints()));
        let mut sw = SoftwareKernels::new()
            .with_compiled_plan(Arc::clone(&plan))
            .with_derived_plan(Arc::clone(&memo));
        let mut hw = FabricKernels::new(spec(), schedule.clone(), 4);
        let mut hw_plan = FabricKernels::new(spec(), schedule, 4)
            .with_compiled_plan(plan)
            .with_derived_plan(Arc::clone(&memo));
        for planned in [
            acamar_solvers::bicg(&a, &b, None, &crit, &mut sw).unwrap(),
            acamar_solvers::bicg(&a, &b, None, &crit, &mut hw).unwrap(),
            acamar_solvers::bicg(&a, &b, None, &crit, &mut hw_plan).unwrap(),
        ] {
            assert_eq!(planned.iterations, plain.iterations);
            assert_eq!(planned.residual_history, plain.residual_history);
            assert_eq!(planned.solution, plain.solution);
        }
        assert_eq!(hw.cycles(), hw_plan.cycles());
        assert!(
            memo.get().is_none(),
            "BiCG derives nothing a plan is kept for"
        );

        // Jacobi on the same executors does announce its operand: same
        // bytes and cycles with both slots bound as with neither, and a
        // BiCG attempt after it starts from unbound slots again.
        let plain = jacobi(&a, &b, None, &crit, &mut SoftwareKernels::new()).unwrap();
        assert!(plain.converged());
        for planned in [
            jacobi(&a, &b, None, &crit, &mut sw).unwrap(),
            jacobi(&a, &b, None, &crit, &mut hw).unwrap(),
            jacobi(&a, &b, None, &crit, &mut hw_plan).unwrap(),
        ] {
            assert_eq!(planned.residual_history, plain.residual_history);
            assert_eq!(planned.solution, plain.solution);
        }
        assert_eq!(hw.cycles(), hw_plan.cycles());
        assert_eq!(memo.get().map(|p| p.nnz()), Some(a.nnz() - 150));
        let again = acamar_solvers::bicg(&a, &b, None, &crit, &mut hw_plan).unwrap();
        assert_eq!(again.iterations, 17);

        // An operand's identity is its pattern's storage. On a
        // pattern-symmetric matrix Aᵀ's arrays *equal* A's, but
        // `transpose` builds its own, so Aᵀ still binds apart from A: the
        // plan runs A, Aᵀ walks generically once per iteration, and the
        // fabric prices the two as two operands.
        let s: CsrMatrix<f64> = generate::convection_diffusion_2d(12, 12, 6.0);
        let st = s.transpose();
        assert_eq!(s.pattern(), st.pattern());
        assert_ne!(s.values(), st.values(), "numerically nonsymmetric");
        assert_ne!(
            acamar_solvers::OperandId::of(&s),
            acamar_solvers::OperandId::of(&st)
        );
        assert_eq!(
            acamar_solvers::OperandId::of(&s),
            acamar_solvers::OperandId::of(&s.clone())
        );
        let b = vec![1.0_f64; 144];
        let plain = acamar_solvers::bicg(&s, &b, None, &crit, &mut SoftwareKernels::new()).unwrap();
        assert!(plain.converged());
        let ring = Arc::new(acamar_telemetry::RingRecorder::new(64));
        let mut sw = SoftwareKernels::new()
            .with_compiled_plan(Arc::new(CompiledSpmv::compile_default(&s)))
            .with_telemetry(TelemetrySink::new(ring.clone()));
        let planned = acamar_solvers::bicg(&s, &b, None, &crit, &mut sw).unwrap();
        assert_eq!(planned.residual_history, plain.residual_history);
        assert_eq!(planned.solution, plain.solution);
        assert_eq!(
            ring.counters()[Counter::PlanlessSpmvs.index()],
            planned.iterations as u64
        );
    }

    #[test]
    fn every_kernel_returns_what_the_inner_executor_returns_on_both_tiers() {
        use acamar_sparse::DeterminismPolicy;

        let a =
            generate::random_pattern::<f64>(96, RowDistribution::Uniform { min: 1, max: 30 }, 21);
        let schedule = UnrollSchedule::from_entries(
            96,
            vec![
                ScheduleEntry {
                    rows: 0..48,
                    unroll: 2,
                },
                ScheduleEntry {
                    rows: 48..96,
                    unroll: 8,
                },
            ],
        );
        let plan = Arc::new(CompiledSpmv::compile(&a, &schedule.band_hints()).unwrap());
        let lower = CompiledSptrsv::compile_lower(&a).unwrap();
        let laid = lower.layout(&a).unwrap();
        let diag = a.diagonal();
        let x: Vec<f64> = (0..96).map(|i| ((i % 9) as f64) * 0.37 - 1.5).collect();
        let z: Vec<f64> = (0..96).map(|i| 1.0 / (i as f64 + 1.5)).collect();

        /// Runs every `Kernels` operation once, returning every scalar
        /// and vector it produced, as bits.
        fn exercise<K: Kernels<f64>>(
            k: &mut K,
            a: &CsrMatrix<f64>,
            lower: &CompiledSptrsv,
            laid: &LevelOrdered<f64>,
            diag: &[f64],
            x: &[f64],
            z: &[f64],
        ) -> Vec<u64> {
            let mut out = Vec::new();
            let mut keep = |v: &[f64]| out.extend(v.iter().map(|f| f.to_bits()));
            k.set_phase(Phase::Initialize);
            let mut y: Vec<f64> = k.acquire_buffer(96);
            k.spmv(a, x, &mut y);
            keep(&y);
            k.set_phase(Phase::Loop);
            k.begin_iteration(0);
            k.spmv(a, z, &mut y);
            keep(&y);
            keep(&[k.spmv_dot(a, x, &mut y, z)]);
            keep(&y);
            keep(&[k.dot(x, z), k.norm2(x)]);
            k.axpy(0.625, x, &mut y);
            keep(&y);
            k.xpby(x, 1.75, &mut y);
            k.scale(0.5, &mut y);
            keep(&y);
            let mut w = vec![0.0; 96];
            k.copy(&y, &mut w);
            let rr = k.cg_update(-0.375, z, x, &mut w, &mut y);
            keep(&[k.dot_carried(&y, &y, rr)]);
            k.waxpy(0.75, z, &y, &mut w);
            let (ww, wy) = k.dot_pair(&w, &y);
            keep(&[ww, wy]);
            let mut v = z.to_vec();
            let (rr, rho) = k.bicgstab_update(0.5, x, -0.25, z, &w, x, &mut v, &mut y);
            keep(&[k.dot_carried(&y, &y, rr), k.dot_carried(&y, x, rho)]);
            k.bicgstab_direction(&y, 1.25, 0.5, z, &mut v);
            keep(&v);
            k.jacobi_step(x, z, &v, diag, &mut w);
            keep(&w);
            k.hadamard(z, &w, &mut y);
            keep(&y);
            k.sor_sweep(a, diag, 1.25, x, &mut y);
            keep(&y);
            k.sptrsv(lower, laid, z, &mut w);
            keep(&w);
            k.observe_residual(0, 0.5);
            k.release_buffer(y);
            out
        }

        for policy in [DeterminismPolicy::Deterministic, DeterminismPolicy::Fast] {
            let mut sw = SoftwareKernels::new()
                .with_compiled_plan(Arc::clone(&plan))
                .with_policy(policy);
            let mut hw = FabricKernels::new(spec(), schedule.clone(), 4)
                .with_compiled_plan(Arc::clone(&plan))
                .with_policy(policy);
            let want = exercise(&mut sw, &a, &lower, &laid, &diag, &x, &z);
            let got = exercise(&mut hw, &a, &lower, &laid, &diag, &x, &z);
            assert_eq!(got, want, "{policy:?}");
            assert_eq!(Kernels::<f64>::counts(&hw), sw.counts(), "{policy:?}");
        }
    }

    #[test]
    fn solver_region_reconfig_is_charged() {
        let mut hw = FabricKernels::new(spec(), UnrollSchedule::uniform(8, 2), 2);
        let before = hw.cycles().reconfig;
        hw.charge_solver_reconfig(&crate::cost::solver_control_unit());
        assert!(hw.cycles().reconfig > before);
        assert_eq!(hw.reconfig_controller().count(RegionKind::Solver), 1);
    }
}
