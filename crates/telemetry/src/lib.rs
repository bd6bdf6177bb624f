//! Structured telemetry for the Acamar workspace.
//!
//! The crate defines a tiny observability vocabulary shared by every other
//! crate in the workspace:
//!
//! - [`Recorder`] — the sink trait: typed [`Event`]s plus monotonic
//!   [`Counter`]s. Implementations must be thread-safe; the engine's worker
//!   pool records from many threads at once.
//! - [`NullRecorder`] — the disabled recorder. It reports
//!   [`Recorder::is_active`]` == false`, which lets [`TelemetrySink`]
//!   collapse it to `None` at construction time: the instrumented hot paths
//!   then pay exactly one predictable branch per site — no virtual call, no
//!   clock read, no allocation — preserving the zero-allocation warm-path
//!   guarantee `tests/loop_allocs.rs` proves.
//! - [`RingRecorder`] — a lock-free bounded MPMC ring (drop-on-full, with a
//!   dropped-event counter) plus a fixed array of atomic counters, cheap
//!   enough to leave on in production batches.
//! - [`export`] — JSON-lines trace serialization and a Prometheus
//!   text-format metrics writer.
//! - [`timeline`] — an ASCII renderer that reconstructs the paper's
//!   Fig. 13-style reconfiguration timeline from a recorded trace.
//!
//! Instrumented code never talks to a recorder directly; it goes through a
//! [`TelemetrySink`], which carries the job id, the residual sampling
//! stride, and the (possibly absent) recorder.

#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

mod ring;

pub mod export;
pub mod timeline;

pub use ring::RingRecorder;

use std::sync::Arc;
use std::time::Instant;

/// A dynamically reconfigurable region of the modeled fabric.
///
/// Mirrors the fabric crate's region vocabulary without depending on it
/// (the dependency runs the other way: the fabric records into telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// The iterative-solver partial-reconfiguration region.
    Solver,
    /// The SpMV kernel partial-reconfiguration region (unroll swaps).
    SpmvKernel,
}

impl Region {
    /// Stable lowercase name used by the JSON-lines exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            Region::Solver => "solver",
            Region::SpmvKernel => "spmv",
        }
    }
}

/// A named section of the engine's per-job pipeline, bracketed by
/// [`EventKind::SpanEnter`] / [`EventKind::SpanExit`] events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Span {
    /// Input validation and fault-injection intake seams.
    Intake,
    /// Pattern analysis / plan-cache consultation.
    Analyze,
    /// The primary solve attempt.
    Solve,
    /// The rescue ladder (everything after a failed primary attempt).
    Rescue,
}

impl Span {
    /// Stable lowercase name used by the JSON-lines exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            Span::Intake => "intake",
            Span::Analyze => "analyze",
            Span::Solve => "solve",
            Span::Rescue => "rescue",
        }
    }
}

/// How a detected fault was ultimately resolved, in the same vocabulary the
/// robustness ledger uses when it reconciles injector events against job
/// dispositions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultResolution {
    /// The job converged without engaging the rescue ladder.
    Detected,
    /// The job converged after one or more rescue rungs.
    Recovered,
    /// The job exhausted the ladder without converging.
    Exhausted,
}

impl FaultResolution {
    /// Stable lowercase name used by the JSON-lines exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultResolution::Detected => "detected",
            FaultResolution::Recovered => "recovered",
            FaultResolution::Exhausted => "exhausted",
        }
    }
}

/// A serving-layer shard's health, as seen by the supervision state
/// machine. Mirrors the service crate's vocabulary without depending on
/// it (the dependency runs the other way: the service records into
/// telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// The shard is serving normally.
    Healthy,
    /// Consecutive failures or a stale heartbeat put the shard on watch.
    Suspect,
    /// The circuit breaker opened; traffic spills to the next-ranked
    /// shard.
    Broken,
    /// The breaker is half-open: probe requests are being admitted.
    Probing,
}

impl HealthState {
    /// Stable lowercase name used by the JSON-lines exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Broken => "broken",
            HealthState::Probing => "probing",
        }
    }
}

/// The payload of a recorded event. Every variant is scalar-only and
/// `Copy`, so events move through the lock-free ring without touching the
/// heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A job entered the engine pipeline.
    JobStart {
        /// `true` when the job runs under the `Fast` determinism tier
        /// (reassociated SIMD reductions); `false` for the bitwise
        /// deterministic tier.
        fast: bool,
    },
    /// A job left the engine pipeline.
    JobEnd {
        /// Whether the final attempt converged.
        converged: bool,
        /// Rescue rungs climbed (0 = primary attempt sufficed).
        rungs: u32,
    },
    /// A pipeline span opened.
    SpanEnter {
        /// Which span.
        span: Span,
    },
    /// A pipeline span closed.
    SpanExit {
        /// Which span.
        span: Span,
        /// Wall-clock nanoseconds spent inside the span.
        nanos: u64,
    },
    /// The plan cache served an existing analysis.
    CacheHit,
    /// The plan cache analyzed a new pattern.
    CacheMiss {
        /// Wall-clock nanoseconds the analysis took.
        analysis_nanos: u64,
    },
    /// A fingerprint collision forced a fresh analysis.
    CacheCollision,
    /// A solve attempt started.
    AttemptStart {
        /// Solver index (the engine's `SolverKind` ordinal).
        solver: u8,
        /// Rescue rung (0 = primary).
        rung: u8,
    },
    /// A solve attempt finished.
    AttemptEnd {
        /// Solver index (the engine's `SolverKind` ordinal).
        solver: u8,
        /// Rescue rung (0 = primary).
        rung: u8,
        /// Whether the attempt converged.
        converged: bool,
        /// Iterations the attempt spent.
        iterations: u32,
    },
    /// A sampled relative residual from inside a solver loop.
    Residual {
        /// Solver-loop iteration the sample was taken at.
        iteration: u32,
        /// Relative residual observed by the convergence monitor.
        relative: f64,
    },
    /// The executor entered a named solver phase.
    PhaseStart {
        /// Phase ordinal (executor-defined).
        phase: u8,
    },
    /// The executor began a solver iteration.
    IterationStart {
        /// Iteration index.
        iteration: u32,
    },
    /// A partial reconfiguration completed on a fabric region.
    Reconfig {
        /// Which region was reprogrammed.
        region: Region,
        /// The unroll factor (SpMV region) or solver ordinal (solver
        /// region) now resident.
        unroll: u8,
        /// The MSID schedule entry (set) that triggered the swap.
        set: u32,
    },
    /// A partial reconfiguration was aborted mid-swap (ICAP fault).
    ReconfigAbort {
        /// Which region the aborted swap targeted.
        region: Region,
    },
    /// One compiled-plan band / schedule-set segment of an SpMV pass.
    SpmvSegment {
        /// The MSID schedule entry (set) index.
        set: u32,
        /// Rows covered by the segment.
        rows: u32,
        /// Unroll factor the segment executed with.
        unroll: u8,
        /// Modeled accelerator cycles charged for the segment.
        cycles: u64,
    },
    /// The fault injector fired at an instrumented seam.
    FaultInjected {
        /// `FaultCategory` ordinal.
        category: u8,
        /// Site hash identifying the seam.
        site: u64,
    },
    /// A previously injected fault was reconciled against the job's
    /// disposition.
    FaultOutcome {
        /// `FaultCategory` ordinal.
        category: u8,
        /// How the fault was resolved.
        resolution: FaultResolution,
    },
    /// The rescue ladder engaged a rung.
    RescueStep {
        /// Ladder step (1-based rung).
        step: u8,
        /// Solver ordinal chosen for the rung.
        solver: u8,
    },
    /// The serving layer admitted a job into a shard's bounded queue.
    JobAdmitted {
        /// Shard the router assigned (by fingerprint affinity or the
        /// configured fallback policy).
        shard: u16,
        /// Queue depth immediately after the enqueue.
        depth: u32,
    },
    /// The serving layer rejected a job because the target shard's
    /// admission queue was full (backpressure).
    JobRejected {
        /// Shard whose queue was full.
        shard: u16,
        /// Queue depth observed at rejection (== capacity).
        depth: u32,
    },
    /// A queued job's deadline expired before dispatch; it was shed
    /// without running any solve.
    JobShed {
        /// Shard the job was queued on.
        shard: u16,
        /// Wall-clock nanoseconds the job waited before being shed.
        waited_nanos: u64,
    },
    /// The serving layer dequeued a job and handed it to a shard engine.
    JobDispatched {
        /// Shard executing the job.
        shard: u16,
        /// Wall-clock nanoseconds the job spent queued.
        wait_nanos: u64,
    },
    /// A shard's supervision state machine changed state.
    HealthTransition {
        /// The shard whose health changed.
        shard: u16,
        /// State before the transition.
        from: HealthState,
        /// State after the transition.
        to: HealthState,
    },
    /// The router diverted a request away from its affinity shard because
    /// that shard's circuit breaker was open.
    Failover {
        /// The broken affinity shard the request would have gone to.
        from: u16,
        /// The next-ranked shard that received it instead.
        to: u16,
    },
    /// A half-open circuit breaker admitted a probe request to a broken
    /// shard.
    BreakerProbe {
        /// The shard being probed.
        shard: u16,
    },
    /// A job that failed delivery (dispatcher panic or queue drop) was
    /// re-queued under its retry budget.
    JobRetried {
        /// Shard the retried delivery was queued on.
        shard: u16,
        /// Delivery attempt number (1 = first retry).
        attempt: u32,
    },
    /// A shard supervisor respawned a crashed dispatcher thread.
    DispatcherRestarted {
        /// The shard whose dispatcher was respawned.
        shard: u16,
        /// Lifetime restart count for the shard (1 = first respawn).
        restarts: u32,
    },
    /// A sequence step passed the warm-start residual gate and seeded its
    /// solve with the previous step's solution.
    WarmStartUsed {
        /// Sequence step index (0-based).
        step: u64,
    },
    /// A sequence step failed the warm-start residual gate and fell back
    /// to a cold start.
    WarmStartRejected {
        /// Sequence step index (0-based).
        step: u64,
    },
    /// The plan cache evicted its least-recently-used entry to stay within
    /// its configured capacity.
    CacheEvicted,
    /// An IC(0)-preconditioned CG attempt settled on its preconditioner.
    /// Emitted after the factorization was attempted, so it reports what
    /// runs, not what was asked for.
    PreconditionerSelected {
        /// `true` when the incomplete factorization exists and its two
        /// substitutions are the preconditioner; `false` when it broke
        /// down (a missing or non-positive pivot) and Jacobi diagonal
        /// scaling runs instead.
        ic0: bool,
        /// Topological level count of the forward-substitution plan that
        /// is applied — the pattern's cached one, or one compiled from the
        /// factor when the analysis carried none; 0 when `ic0` is `false`.
        levels: u32,
    },
}

/// A single recorded telemetry event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Engine job id (0 for events recorded outside any job).
    pub job: u64,
    /// Nanoseconds since the recorder's epoch.
    pub t_nanos: u64,
    /// The typed payload.
    pub kind: EventKind,
}

impl Event {
    /// A copy with every wall-clock-derived field zeroed, so two replay
    /// runs of the same deterministic workload produce identical streams.
    /// Modeled quantities (cycles, iterations, sets) are preserved.
    pub fn normalized(mut self) -> Event {
        self.t_nanos = 0;
        match &mut self.kind {
            EventKind::SpanExit { nanos, .. } => *nanos = 0,
            EventKind::CacheMiss { analysis_nanos } => *analysis_nanos = 0,
            EventKind::JobShed { waited_nanos, .. } => *waited_nanos = 0,
            EventKind::JobDispatched { wait_nanos, .. } => *wait_nanos = 0,
            _ => {}
        }
        self
    }
}

/// Monotonic counters maintained alongside the event stream. These are the
/// single source of truth for the Prometheus export: the engine folds its
/// internal statistics (plan-cache analysis time, pool idle time) into the
/// same counters the recorder accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Jobs the engine completed (converged or not).
    JobsCompleted,
    /// Plan-cache hits.
    CacheHits,
    /// Plan-cache misses (fresh analyses).
    CacheMisses,
    /// Plan-cache fingerprint collisions.
    CacheCollisions,
    /// Wall-clock nanoseconds spent in pattern analysis.
    AnalysisNanos,
    /// Wall-clock nanoseconds pool workers spent idle, waiting for work.
    PoolIdleNanos,
    /// Wall-clock nanoseconds spent inside solve spans.
    SolveNanos,
    /// Residual samples emitted by solver loops.
    ResidualSamples,
    /// SpMV-region partial reconfigurations.
    SpmvReconfigs,
    /// Solver-region partial reconfigurations.
    SolverReconfigs,
    /// Aborted partial reconfigurations.
    ReconfigAborts,
    /// Compiled-plan band / schedule-set segments executed.
    SpmvSegments,
    /// Faults injected by the faultline layer.
    FaultsInjected,
    /// Faults resolved as detected (converged, no rescue needed).
    FaultsDetected,
    /// Faults resolved as recovered (converged via the rescue ladder).
    FaultsRecovered,
    /// Faults whose job exhausted the rescue ladder.
    FaultsExhausted,
    /// Rescue rungs climbed across all jobs.
    RescueRungs,
    /// Jobs admitted into a serving-layer shard queue.
    JobsAdmitted,
    /// Jobs rejected at admission (queue full, backpressure).
    JobsRejected,
    /// Queued jobs shed because their deadline expired before dispatch.
    JobsShed,
    /// Wall-clock nanoseconds admitted jobs spent queued before dispatch.
    QueueWaitNanos,
    /// Shard health state-machine transitions.
    HealthTransitions,
    /// Requests diverted from a broken affinity shard to a failover shard.
    Failovers,
    /// Probe requests admitted by half-open circuit breakers.
    BreakerProbes,
    /// Failed deliveries re-queued under the retry budget.
    JobsRetried,
    /// Dispatcher threads respawned by shard supervisors.
    DispatcherRestarts,
    /// Trace events dropped because the ring was full.
    EventsDropped,
    /// Jobs solved under the `Fast` determinism tier.
    FastTierSolves,
    /// `Fast`-tier jobs whose final attempt converged.
    FastTierConverged,
    /// Sequence steps that passed the warm-start residual gate.
    WarmStartsUsed,
    /// Sequence steps that failed the warm-start residual gate.
    WarmStartsRejected,
    /// Plan-cache entries evicted to stay within the configured capacity.
    CacheEvictions,
    /// Level-scheduled SpTRSV substitution passes executed.
    SptrsvApplies,
    /// SOR/Gauss-Seidel relaxation sweeps executed.
    SorSweeps,
    /// SpMV calls whose operand had no compiled plan bound to it (the
    /// generic CSR walk ran): BiCG's `Aᵀ`, or a derived operand without
    /// its memoised plan.
    PlanlessSpmvs,
    /// Derived-operand (Jacobi `T`) memos built — pattern split and SpMV
    /// plan together — one per pattern the first time a solver derives an
    /// operand from it.
    DerivedPlansBuilt,
    /// Derived operands built from scratch although a memo was installed:
    /// the pattern has no full diagonal (nothing is kept for it), or the
    /// memoised split did not fit the matrix it was handed.
    DerivedSplitRebuilds,
    /// IC(0) schedules memoised (the factors' patterns and the
    /// elimination schedule), one per pattern the first time a
    /// preconditioned attempt factors it.
    Ic0SchedulesBuilt,
    /// IC(0) factorizations that built a schedule of their own although a
    /// memo was installed: the pattern cannot be scheduled (nothing is
    /// kept for it), or the memoised schedule did not fit the matrix.
    Ic0ScheduleRebuilds,
    /// Dot products a solver took from the fused pass that had already
    /// accumulated them (a carried reduction) instead of sweeping the
    /// vectors again. Counted and priced as a dot product all the same.
    CarriedDots,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 40;

    /// Every counter, in `repr` order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::JobsCompleted,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheCollisions,
        Counter::AnalysisNanos,
        Counter::PoolIdleNanos,
        Counter::SolveNanos,
        Counter::ResidualSamples,
        Counter::SpmvReconfigs,
        Counter::SolverReconfigs,
        Counter::ReconfigAborts,
        Counter::SpmvSegments,
        Counter::FaultsInjected,
        Counter::FaultsDetected,
        Counter::FaultsRecovered,
        Counter::FaultsExhausted,
        Counter::RescueRungs,
        Counter::JobsAdmitted,
        Counter::JobsRejected,
        Counter::JobsShed,
        Counter::QueueWaitNanos,
        Counter::HealthTransitions,
        Counter::Failovers,
        Counter::BreakerProbes,
        Counter::JobsRetried,
        Counter::DispatcherRestarts,
        Counter::EventsDropped,
        Counter::FastTierSolves,
        Counter::FastTierConverged,
        Counter::WarmStartsUsed,
        Counter::WarmStartsRejected,
        Counter::CacheEvictions,
        Counter::SptrsvApplies,
        Counter::SorSweeps,
        Counter::PlanlessSpmvs,
        Counter::DerivedPlansBuilt,
        Counter::DerivedSplitRebuilds,
        Counter::Ic0SchedulesBuilt,
        Counter::Ic0ScheduleRebuilds,
        Counter::CarriedDots,
    ];

    /// The counter's index into a `[u64; Counter::COUNT]` snapshot.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Prometheus metric name (`_total` suffix per convention).
    pub fn metric_name(self) -> &'static str {
        match self {
            Counter::JobsCompleted => "acamar_jobs_completed_total",
            Counter::CacheHits => "acamar_plan_cache_hits_total",
            Counter::CacheMisses => "acamar_plan_cache_misses_total",
            Counter::CacheCollisions => "acamar_plan_cache_collisions_total",
            Counter::AnalysisNanos => "acamar_plan_analysis_nanos_total",
            Counter::PoolIdleNanos => "acamar_pool_idle_nanos_total",
            Counter::SolveNanos => "acamar_solve_nanos_total",
            Counter::ResidualSamples => "acamar_residual_samples_total",
            Counter::SpmvReconfigs => "acamar_spmv_reconfigs_total",
            Counter::SolverReconfigs => "acamar_solver_reconfigs_total",
            Counter::ReconfigAborts => "acamar_reconfig_aborts_total",
            Counter::SpmvSegments => "acamar_spmv_segments_total",
            Counter::FaultsInjected => "acamar_faults_injected_total",
            Counter::FaultsDetected => "acamar_faults_detected_total",
            Counter::FaultsRecovered => "acamar_faults_recovered_total",
            Counter::FaultsExhausted => "acamar_faults_exhausted_total",
            Counter::RescueRungs => "acamar_rescue_rungs_total",
            Counter::JobsAdmitted => "acamar_service_jobs_admitted_total",
            Counter::JobsRejected => "acamar_service_jobs_rejected_total",
            Counter::JobsShed => "acamar_service_jobs_shed_total",
            Counter::QueueWaitNanos => "acamar_service_queue_wait_nanos_total",
            Counter::HealthTransitions => "acamar_service_health_transitions_total",
            Counter::Failovers => "acamar_service_failovers_total",
            Counter::BreakerProbes => "acamar_service_breaker_probes_total",
            Counter::JobsRetried => "acamar_service_jobs_retried_total",
            Counter::DispatcherRestarts => "acamar_service_dispatcher_restarts_total",
            Counter::EventsDropped => "acamar_trace_events_dropped_total",
            Counter::FastTierSolves => "acamar_fast_tier_solves_total",
            Counter::FastTierConverged => "acamar_fast_tier_converged_total",
            Counter::WarmStartsUsed => "acamar_warm_starts_used_total",
            Counter::WarmStartsRejected => "acamar_warm_starts_rejected_total",
            Counter::CacheEvictions => "acamar_plan_cache_evictions_total",
            Counter::SptrsvApplies => "acamar_sptrsv_applies_total",
            Counter::SorSweeps => "acamar_sor_sweeps_total",
            Counter::PlanlessSpmvs => "acamar_planless_spmvs_total",
            Counter::DerivedPlansBuilt => "acamar_derived_plans_built_total",
            Counter::DerivedSplitRebuilds => "acamar_derived_split_rebuilds_total",
            Counter::Ic0SchedulesBuilt => "acamar_ic0_schedules_built_total",
            Counter::Ic0ScheduleRebuilds => "acamar_ic0_schedule_rebuilds_total",
            Counter::CarriedDots => "acamar_carried_dots_total",
        }
    }

    /// One-line help string for the Prometheus export.
    pub fn help(self) -> &'static str {
        match self {
            Counter::JobsCompleted => "Jobs completed by the engine",
            Counter::CacheHits => "Plan-cache hits",
            Counter::CacheMisses => "Plan-cache misses (fresh pattern analyses)",
            Counter::CacheCollisions => "Plan-cache fingerprint collisions",
            Counter::AnalysisNanos => "Nanoseconds spent in pattern analysis",
            Counter::PoolIdleNanos => "Nanoseconds pool workers spent idle",
            Counter::SolveNanos => "Nanoseconds spent inside solve spans",
            Counter::ResidualSamples => "Residual samples emitted by solver loops",
            Counter::SpmvReconfigs => "SpMV-region partial reconfigurations",
            Counter::SolverReconfigs => "Solver-region partial reconfigurations",
            Counter::ReconfigAborts => "Aborted partial reconfigurations",
            Counter::SpmvSegments => "Compiled-plan SpMV band segments executed",
            Counter::FaultsInjected => "Faults injected by the faultline layer",
            Counter::FaultsDetected => "Faults resolved without rescue",
            Counter::FaultsRecovered => "Faults recovered via the rescue ladder",
            Counter::FaultsExhausted => "Faults whose job exhausted the rescue ladder",
            Counter::RescueRungs => "Rescue-ladder rungs climbed",
            Counter::JobsAdmitted => "Jobs admitted into a serving-layer shard queue",
            Counter::JobsRejected => "Jobs rejected at admission (queue full)",
            Counter::JobsShed => "Queued jobs shed on an expired deadline",
            Counter::QueueWaitNanos => "Nanoseconds admitted jobs spent queued",
            Counter::HealthTransitions => "Shard health state-machine transitions",
            Counter::Failovers => "Requests diverted from a broken affinity shard",
            Counter::BreakerProbes => "Probe requests admitted by half-open breakers",
            Counter::JobsRetried => "Failed deliveries re-queued under the retry budget",
            Counter::DispatcherRestarts => "Dispatcher threads respawned by supervisors",
            Counter::EventsDropped => "Trace events dropped (ring full)",
            Counter::FastTierSolves => "Jobs solved under the Fast determinism tier",
            Counter::FastTierConverged => "Fast-tier jobs whose final attempt converged",
            Counter::WarmStartsUsed => "Sequence steps that passed the warm-start gate",
            Counter::WarmStartsRejected => "Sequence steps that failed the warm-start gate",
            Counter::CacheEvictions => "Plan-cache entries evicted at capacity",
            Counter::SptrsvApplies => "Level-scheduled SpTRSV substitution passes executed",
            Counter::SorSweeps => "SOR/Gauss-Seidel relaxation sweeps executed",
            Counter::PlanlessSpmvs => {
                "SpMV calls that found no compiled plan bound to their operand"
            }
            Counter::DerivedPlansBuilt => {
                "Derived-operand memos (pattern split + SpMV plan) built, once per pattern"
            }
            Counter::DerivedSplitRebuilds => {
                "Derived operands rebuilt from scratch past a memo that did not fit"
            }
            Counter::Ic0SchedulesBuilt => {
                "IC(0) schedules (factor patterns + elimination schedule) built, once per pattern"
            }
            Counter::Ic0ScheduleRebuilds => {
                "IC(0) factorizations scheduled from scratch past a memo that did not fit"
            }
            Counter::CarriedDots => "Dot products taken from a fused pass instead of recomputed",
        }
    }
}

/// The sink trait every instrumented crate records into.
///
/// Implementations must be cheap and thread-safe; the engine's workers
/// record concurrently. `record` receives the job id and the typed payload
/// and is responsible for timestamping (so disabled paths never read a
/// clock).
pub trait Recorder: Send + Sync {
    /// Record one typed event attributed to `job`.
    fn record(&self, job: u64, kind: EventKind);

    /// Add `n` to a monotonic counter.
    fn counter_add(&self, counter: Counter, n: u64);

    /// Whether the recorder actually retains anything. A `false` here lets
    /// [`TelemetrySink::new`] drop the recorder entirely, reducing every
    /// instrumentation site to a single branch.
    fn is_active(&self) -> bool {
        true
    }
}

/// The always-off recorder. [`TelemetrySink::new`] collapses it to `None`,
/// so installing a `NullRecorder` is exactly as fast as installing no
/// recorder at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _job: u64, _kind: EventKind) {}

    fn counter_add(&self, _counter: Counter, _n: u64) {}

    fn is_active(&self) -> bool {
        false
    }
}

/// The handle instrumented code holds: an optional shared recorder plus
/// per-job routing state. `Clone` is cheap (an `Arc` bump); the default
/// sink is disabled.
#[derive(Clone, Default)]
pub struct TelemetrySink {
    recorder: Option<Arc<dyn Recorder>>,
    job: u64,
    residual_stride: u32,
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySink")
            .field("enabled", &self.recorder.is_some())
            .field("job", &self.job)
            .field("residual_stride", &self.residual_stride)
            .finish()
    }
}

impl TelemetrySink {
    /// Wrap a recorder. An inactive recorder (e.g. [`NullRecorder`]) is
    /// dropped on the spot, producing a disabled sink.
    pub fn new(recorder: Arc<dyn Recorder>) -> TelemetrySink {
        let recorder = if recorder.is_active() {
            Some(recorder)
        } else {
            None
        };
        TelemetrySink {
            recorder,
            job: 0,
            residual_stride: 0,
        }
    }

    /// The disabled sink: every operation is a single `None` branch.
    pub fn disabled() -> TelemetrySink {
        TelemetrySink::default()
    }

    /// Whether a recorder is installed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// A copy of this sink routing events to `job`.
    pub fn with_job(&self, job: u64) -> TelemetrySink {
        TelemetrySink {
            recorder: self.recorder.clone(),
            job,
            residual_stride: self.residual_stride,
        }
    }

    /// The job id events from this sink are attributed to.
    pub fn job(&self) -> u64 {
        self.job
    }

    /// A copy of this sink emitting a [`EventKind::Residual`] event every
    /// `stride` solver iterations (`0` disables the residual stream, the
    /// default — the stream is the highest-volume signal, so it is opt-in
    /// even when a recorder is installed).
    pub fn with_residual_stride(&self, stride: u32) -> TelemetrySink {
        TelemetrySink {
            recorder: self.recorder.clone(),
            job: self.job,
            residual_stride: stride,
        }
    }

    /// The configured residual sampling stride (`0` = off).
    pub fn residual_stride(&self) -> u32 {
        self.residual_stride
    }

    /// Record a typed event.
    #[inline]
    pub fn emit(&self, kind: EventKind) {
        if let Some(r) = &self.recorder {
            r.record(self.job, kind);
        }
    }

    /// Add to a monotonic counter.
    #[inline]
    pub fn counter_add(&self, counter: Counter, n: u64) {
        if let Some(r) = &self.recorder {
            r.counter_add(counter, n);
        }
    }

    /// Emit a sampled residual observation if the stride selects this
    /// iteration. Called from solver loops on every monitor observation;
    /// compiles to one branch when disabled.
    #[inline]
    pub fn observe_residual(&self, iteration: usize, relative: f64) {
        if let Some(r) = &self.recorder {
            let stride = self.residual_stride;
            if stride != 0 && iteration as u32 % stride == 0 {
                r.record(
                    self.job,
                    EventKind::Residual {
                        iteration: iteration as u32,
                        relative,
                    },
                );
                r.counter_add(Counter::ResidualSamples, 1);
            }
        }
    }

    /// Open a RAII span: emits [`EventKind::SpanEnter`] now and
    /// [`EventKind::SpanExit`] (with the measured wall time) when the guard
    /// drops. Disabled sinks return an inert guard without reading the
    /// clock.
    #[inline]
    pub fn span(&self, span: Span) -> SpanGuard<'_> {
        let start = if self.recorder.is_some() {
            self.emit(EventKind::SpanEnter { span });
            Some(Instant::now())
        } else {
            None
        };
        SpanGuard {
            sink: self,
            span,
            start,
        }
    }
}

/// RAII guard returned by [`TelemetrySink::span`]. Emits the matching
/// [`EventKind::SpanExit`] on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard<'a> {
    sink: &'a TelemetrySink,
    span: Span,
    start: Option<Instant>,
}

impl SpanGuard<'_> {
    /// Nanoseconds elapsed since the span opened (0 when disabled).
    pub fn elapsed_nanos(&self) -> u64 {
        self.start
            .map(|s| s.elapsed().as_nanos() as u64)
            .unwrap_or(0)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = start.elapsed().as_nanos() as u64;
            self.sink.emit(EventKind::SpanExit {
                span: self.span,
                nanos,
            });
            if self.span == Span::Solve {
                self.sink.counter_add(Counter::SolveNanos, nanos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct VecRecorder {
        events: Mutex<Vec<Event>>,
        counters: Mutex<[u64; Counter::COUNT]>,
    }

    impl VecRecorder {
        fn new() -> VecRecorder {
            VecRecorder {
                events: Mutex::new(Vec::new()),
                counters: Mutex::new([0; Counter::COUNT]),
            }
        }
    }

    impl Recorder for VecRecorder {
        fn record(&self, job: u64, kind: EventKind) {
            self.events.lock().unwrap().push(Event {
                job,
                t_nanos: 1,
                kind,
            });
        }

        fn counter_add(&self, counter: Counter, n: u64) {
            self.counters.lock().unwrap()[counter.index()] += n;
        }
    }

    #[test]
    fn null_recorder_collapses_to_disabled_sink() {
        let sink = TelemetrySink::new(Arc::new(NullRecorder));
        assert!(!sink.enabled());
        sink.emit(EventKind::CacheHit);
        sink.counter_add(Counter::CacheHits, 1);
        let guard = sink.span(Span::Solve);
        assert_eq!(guard.elapsed_nanos(), 0);
    }

    #[test]
    fn sink_routes_job_and_counters() {
        let rec = Arc::new(VecRecorder::new());
        let sink = TelemetrySink::new(rec.clone()).with_job(7);
        sink.emit(EventKind::CacheHit);
        sink.counter_add(Counter::CacheHits, 3);
        let events = rec.events.lock().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].job, 7);
        assert_eq!(events[0].kind, EventKind::CacheHit);
        assert_eq!(rec.counters.lock().unwrap()[Counter::CacheHits.index()], 3);
    }

    #[test]
    fn residual_stride_samples_every_nth_iteration() {
        let rec = Arc::new(VecRecorder::new());
        let sink = TelemetrySink::new(rec.clone()).with_residual_stride(4);
        for i in 0..10 {
            sink.observe_residual(i, 0.5);
        }
        let events = rec.events.lock().unwrap();
        // Iterations 0, 4, 8.
        assert_eq!(events.len(), 3);
        assert_eq!(
            rec.counters.lock().unwrap()[Counter::ResidualSamples.index()],
            3
        );
    }

    #[test]
    fn residual_stride_zero_is_silent() {
        let rec = Arc::new(VecRecorder::new());
        let sink = TelemetrySink::new(rec.clone());
        for i in 0..10 {
            sink.observe_residual(i, 0.5);
        }
        assert!(rec.events.lock().unwrap().is_empty());
    }

    #[test]
    fn span_guard_emits_matched_pair() {
        let rec = Arc::new(VecRecorder::new());
        let sink = TelemetrySink::new(rec.clone());
        {
            let _g = sink.span(Span::Analyze);
        }
        let events = rec.events.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].kind,
            EventKind::SpanEnter {
                span: Span::Analyze
            }
        );
        assert!(matches!(
            events[1].kind,
            EventKind::SpanExit {
                span: Span::Analyze,
                ..
            }
        ));
    }

    #[test]
    fn normalized_zeroes_wall_clock_fields() {
        let e = Event {
            job: 1,
            t_nanos: 99,
            kind: EventKind::CacheMiss {
                analysis_nanos: 1234,
            },
        }
        .normalized();
        assert_eq!(e.t_nanos, 0);
        assert_eq!(e.kind, EventKind::CacheMiss { analysis_nanos: 0 });

        let s = Event {
            job: 1,
            t_nanos: 5,
            kind: EventKind::SpmvSegment {
                set: 2,
                rows: 64,
                unroll: 8,
                cycles: 77,
            },
        }
        .normalized();
        // Modeled cycles are deterministic and survive normalization.
        assert_eq!(
            s.kind,
            EventKind::SpmvSegment {
                set: 2,
                rows: 64,
                unroll: 8,
                cycles: 77,
            }
        );
    }

    #[test]
    fn counter_all_matches_indices() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
