//! Cycle table ≡ row walk.
//!
//! `FabricKernels` prices each SpMV operand once per solver attempt and
//! replays the stored prices on every later SpMV. This suite pins that
//! replay to an independent reference, [`WalkPriced`], which restates the
//! fabric model with no memory at all: every SpMV of every iteration is
//! priced by `fabric::spmv::execute_rows` and `cost::*` directly. Over a
//! seeded pattern suite — every solver, overlap on and off, fault-free /
//! ICAP abort mid-run / stuck bit, both determinism tiers — the two must
//! agree on the solve, `FabricRunStats`, `CycleBreakdown`, the
//! `ExecutionTrace`, and the normalized telemetry stream.

use acamar::fabric::cost::{
    bitstream_bits, dense_vector_unit, solver_control_unit, spmv_engine, DENSE_VECTOR_WIDTH,
    PIPELINE_DEPTH, REDUCTION_LATENCY,
};
use acamar::fabric::spmv::execute_rows;
use acamar::fabric::{
    CycleBreakdown, ExecutionTrace, FabricKernels, FabricRunStats, FabricSpec, RegionKind,
    ScheduleEntry, SpmvExecution, TraceEvent, UnrollSchedule,
};
use acamar::faultline::{FaultCategory, FaultContext, FaultInjector, FaultPlan};
use acamar::solvers::{
    bicg, bicgstab, conjugate_gradient, gmres, ic0_preconditioned_cg, jacobi, sor,
    ConvergenceCriteria, DerivedPlan, Kernels, OpCounts, Phase, SoftwareKernels, SolveReport,
};
use acamar::sparse::generate::{self, RowDistribution};
use acamar::sparse::rng::DetRng;
use acamar::sparse::{
    CompiledSpmv, CompiledSptrsv, CooMatrix, CsrMatrix, DeterminismPolicy, SparseError,
};
use acamar::telemetry::{Counter, Event, EventKind, Region, RingRecorder, TelemetrySink};
use std::sync::Arc;

const INIT_UNROLL: usize = 4;
const TRACE_EVENTS: usize = 1 << 12;
/// Per-invocation set-up cycles of the dense vector unit.
const DENSE_OVERHEAD: u64 = 8;

/// The fabric model with every SpMV priced by the row walk.
struct WalkPriced {
    inner: SoftwareKernels,
    spec: FabricSpec,
    schedule: UnrollSchedule,
    overlap: bool,
    fault: Option<FaultContext>,
    telemetry: TelemetrySink,
    trace: ExecutionTrace,
    phase: Phase,
    current_unroll: Option<usize>,
    cycles: CycleBreakdown,
    spmv: SpmvExecution,
    init_spmv: SpmvExecution,
    capacity_flops: f64,
    area_cycle_product: f64,
    peak_engine_area: f64,
    used_init_spmv: bool,
    last_segment_cycles: u64,
    attempt: u64,
    stuck_raw: Option<u64>,
    degraded: bool,
    lost_area_cycles: u64,
    swap_site: u64,
    spmv_swaps: usize,
    aborts: usize,
}

impl WalkPriced {
    fn new(inner: SoftwareKernels, schedule: UnrollSchedule, run: &Run<'_>) -> Self {
        WalkPriced {
            inner: inner.with_telemetry(run.telemetry.clone()),
            spec: FabricSpec::alveo_u55c(),
            current_unroll: schedule.entries().first().map(|e| e.unroll),
            schedule,
            overlap: run.overlap,
            fault: run.fault_context(),
            telemetry: run.telemetry.clone(),
            trace: ExecutionTrace::with_capacity(TRACE_EVENTS),
            phase: Phase::Initialize,
            cycles: CycleBreakdown::default(),
            spmv: SpmvExecution::default(),
            init_spmv: SpmvExecution::default(),
            capacity_flops: 0.0,
            area_cycle_product: 0.0,
            peak_engine_area: 0.0,
            used_init_spmv: false,
            last_segment_cycles: 0,
            attempt: 0,
            stuck_raw: None,
            degraded: false,
            lost_area_cycles: 0,
            swap_site: 0,
            spmv_swaps: 0,
            aborts: 0,
        }
    }

    fn icap(&self, unroll: usize) -> u64 {
        self.spec.icap_cycles(bitstream_bits(&spmv_engine(unroll)))
    }

    fn stall(&self, cycles: u64) -> u64 {
        if self.overlap {
            cycles.saturating_sub(self.last_segment_cycles)
        } else {
            cycles
        }
    }

    fn emit_swap(&mut self, unroll: usize, set: usize) {
        self.spmv_swaps += 1;
        self.telemetry.emit(EventKind::Reconfig {
            region: Region::SpmvKernel,
            unroll: unroll.min(u8::MAX as usize) as u8,
            set: set as u32,
        });
        self.telemetry.counter_add(Counter::SpmvReconfigs, 1);
    }

    fn trace_swap(&mut self, duration: u64) {
        self.trace.record(TraceEvent::Reconfig {
            region: RegionKind::SpmvKernel,
            cycle: self.cycles.total(),
            duration,
        });
    }

    fn set_schedule(&mut self, schedule: UnrollSchedule) {
        self.schedule = schedule;
        self.begin_attempt();
    }

    fn begin_attempt(&mut self) {
        self.attempt += 1;
        if self.degraded {
            let max = self.schedule.max_unroll();
            if self.current_unroll != Some(max) {
                self.cycles.reconfig += self.icap(max);
                self.current_unroll = Some(max);
                self.emit_swap(max, 0);
            }
        } else {
            self.current_unroll = self.schedule.entries().first().map(|e| e.unroll);
        }
        self.stuck_raw = self
            .fault
            .as_ref()
            .and_then(|c| c.injector().stuck_flip(c.job(), c.site(self.attempt)));
    }

    fn run_engine(
        &mut self,
        a: &CsrMatrix<f64>,
        rows: std::ops::Range<usize>,
        unroll: usize,
    ) -> u64 {
        let exec = execute_rows(a, rows, unroll, &self.spec);
        self.cycles.spmv += exec.cycles;
        self.capacity_flops += exec.slots_issued as f64 * 2.0;
        let area = self.spec.area_mm2(&spmv_engine(unroll));
        self.area_cycle_product += area * exec.cycles as f64;
        self.peak_engine_area = self.peak_engine_area.max(area);
        match self.phase {
            Phase::Initialize => self.init_spmv = self.init_spmv.merge(&exec),
            Phase::Loop => self.spmv = self.spmv.merge(&exec),
        }
        exec.cycles
    }

    fn charge_spmv(&mut self, a: &CsrMatrix<f64>) {
        self.cycles.spmv += PIPELINE_DEPTH;
        if self.phase == Phase::Initialize {
            self.used_init_spmv = true;
            self.run_engine(a, 0..a.nrows(), INIT_UNROLL);
            return;
        }
        for (idx, e) in self.schedule.entries().to_vec().into_iter().enumerate() {
            if e.rows.end > a.nrows() {
                continue;
            }
            if !self.degraded && self.current_unroll != Some(e.unroll) {
                let site = self.swap_site;
                self.swap_site += 1;
                let aborts = self
                    .fault
                    .as_ref()
                    .is_some_and(|c| c.injector().reconfig_aborts(c.job(), c.site(site)));
                let stall = self.stall(self.icap(e.unroll));
                self.trace_swap(stall);
                self.cycles.reconfig += stall;
                if aborts {
                    self.aborts += 1;
                    self.spmv_swaps += 1;
                    self.telemetry.emit(EventKind::ReconfigAbort {
                        region: Region::SpmvKernel,
                    });
                    self.telemetry.counter_add(Counter::ReconfigAborts, 1);
                    let max = self.schedule.max_unroll();
                    if self.current_unroll != Some(max) {
                        let recovery = self.icap(max);
                        self.trace_swap(recovery);
                        self.cycles.reconfig += recovery;
                        self.current_unroll = Some(max);
                        self.emit_swap(max, 0);
                    }
                    self.degraded = true;
                } else {
                    self.current_unroll = Some(e.unroll);
                    self.emit_swap(e.unroll, idx);
                }
            }
            let engaged = if self.degraded {
                self.current_unroll.unwrap_or(e.unroll)
            } else {
                e.unroll
            };
            let at = self.cycles.total();
            self.last_segment_cycles = self.run_engine(a, e.rows.clone(), engaged);
            if engaged != e.unroll {
                self.lost_area_cycles += self.last_segment_cycles;
            }
            self.telemetry.emit(EventKind::SpmvSegment {
                set: idx as u32,
                rows: e.rows.len() as u32,
                unroll: engaged.min(u8::MAX as usize) as u8,
                cycles: self.last_segment_cycles,
            });
            self.telemetry.counter_add(Counter::SpmvSegments, 1);
            self.trace.record(TraceEvent::SpmvSegment {
                rows: e.rows,
                unroll: engaged,
                cycle: at,
                duration: self.last_segment_cycles,
            });
        }
    }

    fn charge_dense(&mut self, n: usize, reduction: bool, busy: bool) {
        let w = DENSE_VECTOR_WIDTH as u64;
        let cyc =
            (n as u64).div_ceil(w) + DENSE_OVERHEAD + if reduction { REDUCTION_LATENCY } else { 0 };
        self.cycles.dense += cyc;
        if busy {
            self.capacity_flops += cyc as f64 * 2.0 * w as f64;
        }
    }

    fn stuck_bit(&self) -> Option<u64> {
        self.stuck_raw.filter(|_| self.phase == Phase::Loop)
    }

    fn finish(self) -> (FabricRunStats, ExecutionTrace) {
        let area = |rv| self.spec.area_mm2(&rv);
        let init_area = if self.used_init_spmv {
            area(spmv_engine(INIT_UNROLL))
        } else {
            0.0
        };
        let resident = area(dense_vector_unit()) + area(solver_control_unit()) + init_area;
        let idle = self.current_unroll.map_or(0.0, |u| area(spmv_engine(u)));
        let avg_engine = self.area_cycle_product / self.cycles.compute().max(1) as f64;
        let stats = FabricRunStats {
            cycles: self.cycles,
            spmv: self.spmv,
            init_spmv: self.init_spmv,
            capacity_flops: self.capacity_flops,
            useful_flops: self.inner.counts().total_flops(),
            spmv_reconfig_events: self.spmv_swaps,
            avg_area_mm2: resident + avg_engine.max(idle),
            peak_area_mm2: resident + self.peak_engine_area.max(idle),
            used_init_spmv: self.used_init_spmv,
            reconfig_aborts: self.aborts,
            lost_area_cycles: self.lost_area_cycles,
            degraded_to_static: self.degraded,
        };
        (stats, self.trace)
    }
}

impl Kernels<f64> for WalkPriced {
    fn spmv(&mut self, a: &CsrMatrix<f64>, x: &[f64], y: &mut [f64]) {
        self.inner.spmv(a, x, y);
        self.charge_spmv(a);
        if let Some(raw) = self.stuck_bit() {
            FaultInjector::apply_flip(raw, y);
        }
    }

    fn spmv_dot(&mut self, a: &CsrMatrix<f64>, x: &[f64], y: &mut [f64], z: &[f64]) -> f64 {
        let dot = match self.stuck_bit() {
            Some(raw) => {
                self.inner.spmv(a, x, y);
                FaultInjector::apply_flip(raw, y);
                self.inner.dot(y, z)
            }
            None => self.inner.spmv_dot(a, x, y, z),
        };
        self.charge_spmv(a);
        self.charge_dense(y.len(), true, true);
        dot
    }

    fn dot(&mut self, x: &[f64], y: &[f64]) -> f64 {
        self.charge_dense(x.len(), true, true);
        self.inner.dot(x, y)
    }

    fn axpy(&mut self, alpha: f64, x: &[f64], y: &mut [f64]) {
        self.charge_dense(x.len(), false, true);
        self.inner.axpy(alpha, x, y);
    }

    fn xpby(&mut self, x: &[f64], beta: f64, y: &mut [f64]) {
        self.charge_dense(x.len(), false, true);
        self.inner.xpby(x, beta, y);
    }

    fn scale(&mut self, alpha: f64, x: &mut [f64]) {
        self.charge_dense(x.len(), false, true);
        self.inner.scale(alpha, x);
    }

    fn copy(&mut self, src: &[f64], dst: &mut [f64]) {
        self.charge_dense(src.len(), false, false);
        self.inner.copy(src, dst);
    }

    fn hadamard(&mut self, a: &[f64], x: &[f64], y: &mut [f64]) {
        self.charge_dense(a.len(), false, true);
        self.inner.hadamard(a, x, y);
    }

    fn sor_sweep(
        &mut self,
        a: &CsrMatrix<f64>,
        diag: &[f64],
        omega: f64,
        b: &[f64],
        x: &mut [f64],
    ) {
        let cyc = a.nnz() as u64 + PIPELINE_DEPTH;
        self.cycles.spmv += cyc;
        self.capacity_flops += cyc as f64 * 2.0;
        self.charge_dense(a.nrows(), false, true);
        self.inner.sor_sweep(a, diag, omega, b, x);
    }

    fn sptrsv(&mut self, plan: &CompiledSptrsv, m: &CsrMatrix<f64>, b: &[f64], x: &mut [f64]) {
        let cyc = plan.tri_nnz() as u64 + plan.level_count() as u64 * PIPELINE_DEPTH;
        self.cycles.spmv += cyc;
        self.capacity_flops += cyc as f64 * 2.0;
        self.inner.sptrsv(plan, m, b, x);
        if let Some(raw) = self.stuck_bit() {
            FaultInjector::apply_flip(raw, x);
        }
    }

    fn set_phase(&mut self, phase: Phase) {
        self.trace.record(TraceEvent::PhaseStart {
            phase,
            cycle: self.cycles.total(),
        });
        self.telemetry.emit(EventKind::PhaseStart {
            phase: (phase == Phase::Loop) as u8,
        });
        self.phase = phase;
        Kernels::<f64>::set_phase(&mut self.inner, phase);
    }

    fn begin_iteration(&mut self, iter: usize) {
        self.trace.record(TraceEvent::IterationStart {
            iteration: iter,
            cycle: self.cycles.total(),
        });
        self.telemetry.emit(EventKind::IterationStart {
            iteration: iter as u32,
        });
    }

    fn observe_residual(&mut self, iter: usize, relative: f64) {
        self.telemetry.observe_residual(iter, relative);
    }

    fn observe_preconditioner(&mut self, ic0: bool, levels: usize) {
        Kernels::<f64>::observe_preconditioner(&mut self.inner, ic0, levels);
    }

    fn acquire_buffer(&mut self, n: usize) -> Vec<f64> {
        self.inner.acquire_buffer(n)
    }

    fn counts(&self) -> OpCounts {
        self.inner.counts()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// ICAP swaps abort at a low seeded rate, so the abort lands mid-run.
    AbortMidRun,
    /// A stuck datapath bit afflicts every attempt.
    StuckBit,
}

/// One executor's configuration for one solve.
struct Run<'a> {
    plan: Option<&'a Arc<CompiledSpmv>>,
    overlap: bool,
    fault: Fault,
    fault_seed: u64,
    policy: DeterminismPolicy,
    telemetry: TelemetrySink,
}

impl Run<'_> {
    fn fault_context(&self) -> Option<FaultContext> {
        let plan = FaultPlan::new(self.fault_seed);
        let plan = match self.fault {
            Fault::None => return None,
            Fault::AbortMidRun => plan.with_rate(FaultCategory::ReconfigAbort, 0.04),
            Fault::StuckBit => plan.with_rate(FaultCategory::SpmvBitFlip, 1.0),
        };
        Some(FaultContext::new(Arc::new(FaultInjector::new(plan)), 5))
    }

    fn software(&self) -> SoftwareKernels {
        let k = SoftwareKernels::new().with_policy(self.policy);
        match self.plan {
            Some(plan) => k.with_compiled_plan(Arc::clone(plan)),
            None => k,
        }
    }

    fn fabric(&self, schedule: UnrollSchedule) -> FabricKernels {
        let schedule_hints = schedule.band_hints();
        let mut hw = FabricKernels::new(FabricSpec::alveo_u55c(), schedule, INIT_UNROLL)
            .with_overlap(self.overlap)
            .with_policy(self.policy)
            .with_trace(TRACE_EVENTS)
            .with_telemetry(self.telemetry.clone());
        if let Some(plan) = self.plan {
            // Both plan slots: the coefficient matrix's, and a memo for
            // the operand Jacobi derives (the reference walks it plan-less).
            let memo = DerivedPlan::new(schedule_hints);
            hw = hw
                .with_compiled_plan(Arc::clone(plan))
                .with_derived_plan(Arc::new(memo));
        }
        if let Some(ctx) = self.fault_context() {
            hw = hw.with_fault_context(ctx);
        }
        hw
    }

    fn reference(&self, schedule: UnrollSchedule) -> WalkPriced {
        WalkPriced::new(self.software(), schedule, self)
    }
}

#[derive(Debug, Clone, Copy)]
enum Solver {
    Jacobi,
    Cg,
    BiCgStab,
    BiCg,
    Sor,
    Ic0Pcg,
    Gmres,
}

const SOLVERS: [Solver; 7] = [
    Solver::Jacobi,
    Solver::Cg,
    Solver::BiCgStab,
    Solver::BiCg,
    Solver::Sor,
    Solver::Ic0Pcg,
    Solver::Gmres,
];

fn solve<K: Kernels<f64>>(
    solver: Solver,
    a: &CsrMatrix<f64>,
    b: &[f64],
    k: &mut K,
) -> Result<SolveReport<f64>, SparseError> {
    let crit = ConvergenceCriteria::paper().with_max_iterations(24);
    match solver {
        Solver::Jacobi => jacobi(a, b, None, &crit, k),
        Solver::Cg => conjugate_gradient(a, b, None, &crit, k),
        Solver::BiCgStab => bicgstab(a, b, None, &crit, k),
        Solver::BiCg => bicg(a, b, None, &crit, k),
        Solver::Sor => sor(a, b, None, 1.25, &crit, k),
        Solver::Ic0Pcg => ic0_preconditioned_cg(a, b, None, &crit, k),
        Solver::Gmres => gmres(a, b, None, 6, &crit, k),
    }
}

/// Rebuilds `a` with the rows in `empty` emptied and row `dense` filled.
fn carve(a: &CsrMatrix<f64>, empty: &[usize], dense: Option<usize>) -> CsrMatrix<f64> {
    let n = a.nrows();
    let mut coo = CooMatrix::new(n, n);
    for (i, cols, vals) in a.iter_rows() {
        if empty.contains(&i) {
            continue;
        }
        if dense == Some(i) {
            for j in 0..n {
                let v = if j == i { n as f64 } else { 0.25 };
                coo.push(i, j, v).unwrap();
            }
            continue;
        }
        for (&c, &v) in cols.iter().zip(vals) {
            coo.push(i, c, v).unwrap();
        }
    }
    coo.to_csr()
}

/// Seeded pattern `seed` of the suite: eight families, so the 64 patterns
/// cover dominant / SPD / stencil / nonsymmetric systems, heavy-tailed row
/// lengths, empty rows, and a dense row.
fn pattern(seed: u64) -> CsrMatrix<f64> {
    let mut rng = DetRng::seed_from_u64(seed ^ 0xC7C1E);
    let n = rng.gen_range(24..72usize);
    let uniform = RowDistribution::Uniform { min: 1, max: 9 };
    match seed % 8 {
        0 => generate::diagonally_dominant(n, uniform, 1.5, seed),
        1 => generate::diagonally_dominant(
            n,
            RowDistribution::Bimodal {
                low: 2,
                high: 20,
                high_fraction: 0.3,
            },
            1.3,
            seed,
        ),
        2 => generate::diagonally_dominant(
            n,
            RowDistribution::PowerLaw {
                min: 1,
                max: 24,
                exponent: 1.6,
            },
            1.2,
            seed,
        ),
        3 => generate::poisson2d(rng.gen_range(4..9usize), rng.gen_range(4..9usize)),
        4 => generate::spd_from_pattern(n, uniform, 0.05, seed),
        5 => {
            let base = generate::diagonally_dominant(n, uniform, 1.4, seed);
            let empty = [rng.gen_range(0..n), rng.gen_range(0..n), n - 1];
            carve(&base, &empty, None)
        }
        6 => {
            let base = generate::diagonally_dominant(n, uniform, 1.4, seed);
            carve(&base, &[], Some(rng.gen_range(0..n)))
        }
        _ => generate::convection_diffusion_2d(
            rng.gen_range(4..9usize),
            rng.gen_range(4..9usize),
            1.5,
        ),
    }
}

/// A seeded schedule of two to five sets over `n` rows with at least one
/// unroll change per pass.
fn schedule(n: usize, rng: &mut DetRng) -> UnrollSchedule {
    const UNROLLS: [usize; 5] = [1, 2, 4, 8, 16];
    let sets = rng.gen_range(2..6usize);
    let mut cuts: Vec<usize> = (0..sets - 1).map(|_| rng.gen_range(1..n)).collect();
    cuts.extend([0, n]);
    cuts.sort_unstable();
    cuts.dedup();
    let mut entries: Vec<ScheduleEntry> = cuts
        .windows(2)
        .map(|w| ScheduleEntry {
            rows: w[0]..w[1],
            unroll: UNROLLS[rng.gen_range(0..UNROLLS.len())],
        })
        .collect();
    if entries.windows(2).all(|w| w[0].unroll == w[1].unroll) {
        let last = entries.last_mut().expect("two sets at least");
        last.unroll = if last.unroll == 16 {
            2
        } else {
            last.unroll * 2
        };
    }
    UnrollSchedule::from_entries(n, entries)
}

/// Everything observable about one executor's run.
#[derive(Debug, PartialEq)]
struct Observed {
    solve: String,
    solution_bits: Vec<u64>,
    stats: String,
    trace: Vec<TraceEvent>,
    trace_dropped: u64,
    /// Normalized events, printed: a diverging run's residual samples
    /// are NaN, which no `PartialEq` equates.
    telemetry: Vec<String>,
    /// Every counter but the six that say which *host* path built,
    /// multiplied or reduced an operand (`PlanlessSpmvs`,
    /// `DerivedPlansBuilt`, `DerivedSplitRebuilds`, `Ic0SchedulesBuilt`,
    /// `Ic0ScheduleRebuilds`, `CarriedDots`): the reference builds its
    /// derived operands without a memo, walks them without a plan and
    /// recomputes every dot product by construction.
    counters: Vec<u64>,
}

/// `(residuals observed, dot products taken from a fused pass)` so far.
fn carried(ring: &RingRecorder) -> (u64, u64) {
    let counters = ring.counters();
    (
        counters[Counter::ResidualSamples.index()],
        counters[Counter::CarriedDots.index()],
    )
}

fn observe(
    report: Result<SolveReport<f64>, SparseError>,
    stats: FabricRunStats,
    trace: &ExecutionTrace,
    ring: &RingRecorder,
) -> Observed {
    let report = report.expect("square system");
    Observed {
        solve: format!(
            "{:?} after {} iterations, {:?}, history {:?}",
            report.outcome, report.iterations, report.counts, report.residual_history
        ),
        solution_bits: report.solution.iter().map(|v| v.to_bits()).collect(),
        // `FabricRunStats` carries floats but no `PartialEq`; `{:?}` prints
        // the shortest representation that round-trips, so equal strings
        // mean equal bits.
        stats: format!("{stats:?}"),
        trace: trace.events().to_vec(),
        trace_dropped: trace.dropped(),
        telemetry: ring
            .drain()
            .into_iter()
            .map(|e| format!("{:?}", Event::normalized(e)))
            .collect(),
        counters: Counter::ALL
            .iter()
            .filter(|c| {
                !matches!(
                    c,
                    Counter::PlanlessSpmvs
                        | Counter::DerivedPlansBuilt
                        | Counter::DerivedSplitRebuilds
                        | Counter::Ic0SchedulesBuilt
                        | Counter::Ic0ScheduleRebuilds
                        | Counter::CarriedDots
                )
            })
            .map(|c| ring.counters()[c.index()])
            .collect(),
    }
}

fn ring() -> (Arc<RingRecorder>, TelemetrySink) {
    let ring = Arc::new(RingRecorder::new(1 << 13));
    let sink = TelemetrySink::new(ring.clone()).with_residual_stride(1);
    (ring, sink)
}

#[test]
fn table_replay_equals_the_row_walk_on_every_solver_and_fault_mode() {
    let (mut solves, mut aborted_mid_run, mut iterations) = (0u32, 0u32, 0usize);
    // BiCG-STAB runs by how many of the last update's three carried dots
    // were still asked for: [rho never, the loop-top norm never, all].
    let mut stab_endings = [0u32; 3];
    for seed in 0..64u64 {
        let a = pattern(seed);
        let n = a.nrows();
        let mut rng = DetRng::seed_from_u64(seed);
        let sched = schedule(n, &mut rng);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect();
        // Odd seeds run through the compiled plan, even ones the CSR walk.
        let plan = (seed % 2 == 1)
            .then(|| Arc::new(CompiledSpmv::compile(&a, &sched.band_hints()).unwrap()));
        for solver in SOLVERS {
            for overlap in [false, true] {
                for fault in [Fault::None, Fault::AbortMidRun, Fault::StuckBit] {
                    for policy in [DeterminismPolicy::Deterministic, DeterminismPolicy::Fast] {
                        let case = format!(
                            "seed {seed} {solver:?} overlap={overlap} {fault:?} {policy:?}"
                        );
                        let run = |telemetry| Run {
                            plan: plan.as_ref(),
                            overlap,
                            fault,
                            fault_seed: seed,
                            policy,
                            telemetry,
                        };

                        let (ring_hw, sink) = ring();
                        let mut hw = run(sink).fabric(sched.clone());
                        hw.begin_attempt();
                        let report = solve(solver, &a, &b, &mut hw);
                        let trace = hw.trace().expect("tracing on").clone();
                        let stats = hw.finish();
                        iterations += report.as_ref().map_or(0, |r| r.iterations);
                        if stats.reconfig_aborts > 0 && stats.spmv_reconfig_events > 3 {
                            aborted_mid_run += 1;
                        }
                        let (updates, carried_hw) = carried(&ring_hw);
                        let got = observe(report, stats, &trace, &ring_hw);

                        let (ring_ref, sink) = ring();
                        let mut reference = run(sink).reference(sched.clone());
                        reference.begin_attempt();
                        let report = solve(solver, &a, &b, &mut reference);
                        let (stats, trace) = reference.finish();
                        let (_, carried_ref) = carried(&ring_ref);
                        let want = observe(report, stats, &trace, &ring_ref);

                        // The fabric side took every dot product a fused
                        // pass had accumulated from that pass — one per
                        // update in CG, up to two in PCG and three in
                        // BiCG-STAB, fewer only where the last iteration
                        // broke off before asking — and the reference,
                        // which overrides no fused pass, recomputed them
                        // all; `got == want` below then says each was
                        // charged at the same cycle either way.
                        let per_update = match solver {
                            Solver::Cg => 1,
                            Solver::Ic0Pcg => 2,
                            Solver::BiCgStab => 3,
                            _ => 0,
                        };
                        let unasked = (per_update * updates)
                            .checked_sub(carried_hw)
                            .filter(|&u| u < per_update.max(1) && carried_ref == 0)
                            .unwrap_or_else(|| {
                                panic!("{case}: {carried_hw} carried over {updates} updates")
                            });
                        if matches!(solver, Solver::BiCgStab) && updates > 0 {
                            stab_endings[2 - unasked as usize] += 1;
                        }

                        assert_eq!(got.trace_dropped, 0, "{case}: trace buffer too small");
                        assert_eq!(ring_hw.dropped(), 0, "{case}: ring too small");
                        assert_eq!(got, want, "{case}");
                        solves += 1;
                    }
                }
            }
        }
    }
    assert_eq!(solves, 64 * 7 * 2 * 3 * 2);
    // The suite must exercise what it claims to: long-enough loops, and
    // aborts that land after the table has been replayed a few times.
    assert!(iterations / solves as usize >= 8, "{iterations} iterations");
    assert!(aborted_mid_run >= 100, "{aborted_mid_run} mid-run aborts");
    // Runs the monitor ended (rho never charged) and runs a vanished rho
    // or omega ended; none here leaves through the loop top, where the
    // monitor's own tolerance has always fired first.
    assert!(
        stab_endings[..2].iter().all(|&n| n >= 20),
        "{stab_endings:?}"
    );
}

/// The 2D Poisson operator with its diagonal lowered by `shift`: symmetric
/// and indefinite, so CG (chosen on symmetry) fails and the Solver
/// Modifier moves on to BiCG-STAB.
fn helmholtz(side: usize, shift: f64) -> CsrMatrix<f64> {
    let a: CsrMatrix<f64> = generate::poisson2d(side, side);
    let mut coo = CooMatrix::new(a.nrows(), a.ncols());
    for (i, cols, vals) in a.iter_rows() {
        for (&c, &v) in cols.iter().zip(vals) {
            coo.push(i, c, if c == i { v - shift } else { v }).unwrap();
        }
    }
    coo.to_csr()
}

#[test]
fn a_solver_switch_and_a_mid_run_degrade_reprice_instead_of_reusing() {
    let a = helmholtz(10, 0.9);
    let n = a.nrows();
    let b = vec![1.0; n];
    let entry = |rows, unroll| ScheduleEntry { rows, unroll };
    let first =
        UnrollSchedule::from_entries(n, vec![entry(0..30, 2), entry(30..70, 8), entry(70..n, 4)]);
    // The second attempt multiplies by the same stored matrix — the same
    // operand identity — under a different schedule: only a table dropped
    // by `set_schedule` prices it right.
    let second = UnrollSchedule::from_entries(n, vec![entry(0..55, 16), entry(55..n, 1)]);

    for fault in [Fault::None, Fault::AbortMidRun] {
        let run = |telemetry| Run {
            plan: None,
            overlap: false,
            fault,
            fault_seed: 3,
            policy: DeterminismPolicy::Deterministic,
            telemetry,
        };

        let (ring_hw, sink) = ring();
        let mut hw = run(sink).fabric(first.clone());
        hw.begin_attempt();
        let cg = solve(Solver::Cg, &a, &b, &mut hw).unwrap();
        let cycles_after_cg = hw.cycles();
        hw.set_schedule(second.clone());
        let stab = solve(Solver::BiCgStab, &a, &b, &mut hw);
        let trace = hw.trace().unwrap().clone();
        let stats = hw.finish();
        assert!(!cg.converged(), "CG must fail on the indefinite operator");
        if fault == Fault::AbortMidRun {
            assert_eq!(stats.reconfig_aborts, 1);
            assert!(stats.degraded_to_static && stats.lost_area_cycles > 0);
            assert!(stats.spmv_reconfig_events > 3, "abort landed mid-run");
        }
        let got = observe(stab, stats, &trace, &ring_hw);

        let (ring_ref, sink) = ring();
        let mut reference = run(sink).reference(first.clone());
        reference.begin_attempt();
        let cg_ref = solve(Solver::Cg, &a, &b, &mut reference).unwrap();
        assert_eq!(cg.iterations, cg_ref.iterations);
        assert_eq!(
            cycles_after_cg, reference.cycles,
            "{fault:?}: first attempt"
        );
        reference.set_schedule(second.clone());
        let stab = solve(Solver::BiCgStab, &a, &b, &mut reference);
        let (stats, trace) = reference.finish();
        let want = observe(stab, stats, &trace, &ring_ref);

        assert_eq!(got, want, "{fault:?}");
    }
}
