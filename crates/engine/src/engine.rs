//! The thread-pool-sharded batch solve engine.

use crate::cache::{CacheStats, PlanCache};
use crate::error::SolveError;
use crate::fingerprint::PatternFingerprint;
use crate::robustness::{JobDisposition, RobustnessReport};
use acamar_core::{
    Acamar, AcamarRunReport, AnalysisArtifacts, RescuePolicy, RunOptions, SolveAttempt,
};
use acamar_fabric::FabricRunStats;
use acamar_faultline::{FaultContext, FaultInjector, InjectedPanic, WorkerDisruption};
use acamar_solvers::{SolverKind, WorkspaceHandle};
use acamar_sparse::{CsrMatrix, DeterminismPolicy, Scalar};
use acamar_telemetry::export::PrometheusWriter;
use acamar_telemetry::{Counter, EventKind, FaultResolution, Recorder, Span, TelemetrySink};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One job's outcome slot, filled by whichever worker ran it.
type ResultSlot<T> = Mutex<Option<JobOutcome<T>>>;

/// One `(matrix, rhs)` solve request for [`Engine::solve_jobs`].
///
/// The matrix is behind an [`Arc`] so a batch of jobs over the same
/// system shares storage instead of cloning the CSR arrays per job.
#[derive(Debug, Clone)]
pub struct SolveJob<T> {
    /// Coefficient matrix.
    pub matrix: Arc<CsrMatrix<T>>,
    /// Right-hand side.
    pub rhs: Vec<T>,
    /// Optional warm-start guess (each solver attempt restarts from it).
    pub guess: Option<Vec<T>>,
    /// Determinism tier for this job's host arithmetic
    /// (see [`DeterminismPolicy`]; defaults to `Deterministic`).
    pub policy: DeterminismPolicy,
}

impl<T> SolveJob<T> {
    /// A cold-start job.
    pub fn new(matrix: Arc<CsrMatrix<T>>, rhs: Vec<T>) -> SolveJob<T> {
        SolveJob {
            matrix,
            rhs,
            guess: None,
            policy: DeterminismPolicy::Deterministic,
        }
    }

    /// Sets the warm-start guess.
    pub fn with_guess(mut self, x0: Vec<T>) -> SolveJob<T> {
        self.guess = Some(x0);
        self
    }

    /// Sets the determinism tier.
    pub fn with_policy(mut self, policy: DeterminismPolicy) -> SolveJob<T> {
        self.policy = policy;
        self
    }
}

/// Engine-level hardening knobs, all off by default (a default engine
/// behaves exactly like the pre-hardening one on healthy inputs).
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {
    /// Rescue ladder climbed when a job's primary run fails (worker
    /// panic, divergence after the Solver Modifier's own switches, or a
    /// solver error). `None` disables engine-level rescue entirely.
    pub rescue: Option<RescuePolicy>,
    /// Per-job wall-clock deadline, checked between attempts; a job over
    /// it fails with [`SolveError::DeadlineExceeded`] instead of climbing
    /// further.
    pub deadline: Option<Duration>,
    /// Per-job loop-iteration budget across all attempts; once spent, no
    /// further rescue rungs are climbed.
    pub iteration_budget: Option<usize>,
}

impl ResilienceConfig {
    /// The full ladder with default backoff, no deadline, no budget.
    pub fn hardened() -> ResilienceConfig {
        ResilienceConfig {
            rescue: Some(RescuePolicy::default()),
            ..ResilienceConfig::default()
        }
    }

    /// Sets the per-job wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> ResilienceConfig {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the per-job iteration budget.
    pub fn with_iteration_budget(mut self, budget: usize) -> ResilienceConfig {
        self.iteration_budget = Some(budget);
        self
    }
}

/// Everything one job's execution produced: its result plus the
/// engine-level telemetry the [`RobustnessReport`] is assembled from.
#[derive(Debug)]
struct JobOutcome<T> {
    result: Result<AcamarRunReport<T>, SolveError>,
    rungs: usize,
    panics: u64,
    deadline_missed: bool,
}

/// Aggregate report of one [`Engine::solve_jobs`] / [`Engine::solve_batch`]
/// call.
#[derive(Debug, Clone)]
pub struct BatchReport<T> {
    /// Per-job outcomes, in submission order (independent of which worker
    /// ran each job). A job that climbed rescue rungs reports the merged
    /// attempt list and fabric stats of *every* attempt.
    pub results: Vec<Result<AcamarRunReport<T>, SolveError>>,
    /// Jobs whose final attempt converged.
    pub converged: usize,
    /// Solver attempts across all jobs, indexed by
    /// [`SolverKind::index`] — the Solver Modifier's switch activity for
    /// the whole batch.
    pub attempts_by_solver: [u64; SolverKind::COUNT],
    /// Fabric statistics merged across every job
    /// ([`FabricRunStats::merge`]).
    pub stats: FabricRunStats,
    /// Cache activity attributable to this batch
    /// ([`CacheStats::since`] of the surrounding snapshots; concurrent
    /// batches on a shared engine may interleave their deltas).
    pub cache: CacheStats,
    /// Fault/rescue accounting for the batch. All-zero tallies when no
    /// fault injector is installed; the rescue-depth histogram, panic and
    /// deadline counters describe real engine activity either way.
    pub robustness: RobustnessReport,
    /// Nanoseconds pool workers spent blocked waiting for work during this
    /// batch (accrued when a wait ends, so a worker that never woke again
    /// during the batch is not counted — this measures observed hand-off
    /// gaps, not end-of-batch slack).
    pub pool_idle_nanos: u64,
    /// Wall-clock seconds spent in the batch call.
    pub wall_seconds: f64,
}

impl<T> BatchReport<T> {
    /// Number of jobs in the batch.
    pub fn jobs(&self) -> usize {
        self.results.len()
    }

    /// `true` when every job converged.
    pub fn all_converged(&self) -> bool {
        self.converged == self.results.len()
    }

    /// Batch throughput; `0` for an empty batch.
    pub fn jobs_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.results.len() as f64 / self.wall_seconds
        }
    }

    /// Total solver attempts (≥ jobs; the excess is Solver Modifier
    /// interventions and rescue rungs).
    pub fn total_attempts(&self) -> u64 {
        self.attempts_by_solver.iter().sum()
    }

    /// Renders the batch as a Prometheus text-format snapshot.
    ///
    /// Metric names reuse the [`Counter`] vocabulary so a scrape of this
    /// snapshot and a scrape of a live
    /// [`RingRecorder`](acamar_telemetry::RingRecorder) agree on naming —
    /// both are fed from the same engine accounting (cache statistics,
    /// fabric run statistics, the robustness ledger).
    pub fn prometheus_text(&self) -> String {
        let mut w = PrometheusWriter::new();
        let c = |c: Counter| (c.metric_name(), c.help());
        let (n, h) = c(Counter::JobsCompleted);
        w.counter(n, h, self.jobs() as u64);
        let (n, h) = c(Counter::CacheHits);
        w.counter(n, h, self.cache.hits);
        let (n, h) = c(Counter::CacheMisses);
        w.counter(n, h, self.cache.misses);
        let (n, h) = c(Counter::CacheCollisions);
        w.counter(n, h, self.cache.collisions);
        let (n, h) = c(Counter::AnalysisNanos);
        w.counter(n, h, self.cache.analysis_nanos);
        let (n, h) = c(Counter::PoolIdleNanos);
        w.counter(n, h, self.pool_idle_nanos);
        let (n, h) = c(Counter::SpmvReconfigs);
        w.counter(n, h, self.stats.spmv_reconfig_events as u64);
        let (n, h) = c(Counter::ReconfigAborts);
        w.counter(n, h, self.stats.reconfig_aborts as u64);
        let (n, h) = c(Counter::FaultsInjected);
        w.counter(n, h, self.robustness.injected_total());
        let (n, h) = c(Counter::FaultsDetected);
        let detected = self.robustness.tallies.iter().map(|t| t.detected).sum();
        w.counter(n, h, detected);
        let (n, h) = c(Counter::FaultsRecovered);
        let recovered = self.robustness.tallies.iter().map(|t| t.recovered).sum();
        w.counter(n, h, recovered);
        let (n, h) = c(Counter::FaultsExhausted);
        let exhausted = self.robustness.tallies.iter().map(|t| t.exhausted).sum();
        w.counter(n, h, exhausted);
        let (n, h) = c(Counter::RescueRungs);
        let rungs = self
            .robustness
            .rescue_depths
            .iter()
            .enumerate()
            .map(|(d, &jobs)| d as u64 * jobs)
            .sum();
        w.counter(n, h, rungs);
        w.counter(
            "acamar_jobs_converged_total",
            "Jobs whose final attempt converged",
            self.converged as u64,
        );
        w.counter(
            "acamar_solver_attempts_total",
            "Solver attempts across all jobs",
            self.total_attempts(),
        );
        w.counter(
            "acamar_panics_caught_total",
            "Worker panics caught and isolated",
            self.robustness.panics_caught,
        );
        w.counter(
            "acamar_deadline_misses_total",
            "Jobs cut off by their wall-clock deadline",
            self.robustness.deadline_misses,
        );
        w.gauge(
            "acamar_batch_wall_seconds",
            "Wall-clock seconds spent in the batch call",
            self.wall_seconds,
        );
        w.gauge(
            "acamar_batch_jobs_per_second",
            "Batch throughput",
            self.jobs_per_second(),
        );
        w.finish()
    }
}

/// Lifetime counters of one [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCounters {
    /// Jobs completed since construction.
    pub jobs_completed: u64,
    /// Lifetime solver-attempt histogram, indexed by
    /// [`SolverKind::index`].
    pub attempts_by_solver: [u64; SolverKind::COUNT],
    /// Lifetime cache counters.
    pub cache: CacheStats,
    /// Lifetime nanoseconds pool workers spent blocked waiting for work
    /// (accrued when each wait ends).
    pub pool_idle_nanos: u64,
}

/// Work unit shipped to a pool worker: a boxed closure run with the
/// worker's thread-resident scratch state.
type Task = Box<dyn FnOnce(&mut WorkerScratch) + Send + 'static>;

/// State owned by one worker thread for the engine's whole lifetime —
/// most importantly the buffer pool its solves recycle scratch vectors
/// through, which is what makes warm solves allocation-free.
#[derive(Debug, Default)]
struct WorkerScratch {
    workspace: WorkspaceHandle,
}

/// The engine's persistent worker pool: threads are spawned once at
/// engine construction, fed batch tasks over a channel, and joined on
/// drop. No per-batch spawn cost, no detached threads.
#[derive(Debug)]
struct WorkerPool {
    /// `Some` until drop; taking it hangs up the channel so workers exit.
    sender: Option<Sender<Task>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    fn new(workers: usize, idle_nanos: Arc<AtomicU64>) -> WorkerPool {
        let (sender, receiver) = mpsc::channel::<Task>();
        let receiver: Arc<Mutex<Receiver<Task>>> = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let idle_nanos = Arc::clone(&idle_nanos);
                std::thread::Builder::new()
                    .name(format!("acamar-worker-{i}"))
                    .spawn(move || {
                        let mut scratch = WorkerScratch::default();
                        loop {
                            // Hold the receiver lock only for the dequeue,
                            // never across task execution. The blocked
                            // interval — queued on the lock behind another
                            // idle worker as much as inside `recv` — is
                            // charged to the shared idle clock once the
                            // wait ends.
                            let task = {
                                let waited = Instant::now();
                                let rx = receiver.lock().unwrap_or_else(|p| p.into_inner());
                                let task = rx.recv();
                                idle_nanos.fetch_add(
                                    waited.elapsed().as_nanos() as u64,
                                    Ordering::Relaxed,
                                );
                                task
                            };
                            match task {
                                Ok(task) => task(&mut scratch),
                                Err(_) => break, // channel hung up: engine dropped
                            }
                        }
                    })
                    .expect("failed to spawn engine worker thread")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            handles,
        }
    }

    fn submit(&self, task: Task) {
        self.sender
            .as_ref()
            .expect("pool sender lives until drop")
            .send(task)
            .expect("pool workers live until drop");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.sender.take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Counts one batch's outstanding runner tasks; the submitting thread
/// blocks until every runner has finished.
#[derive(Debug)]
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock().expect("latch poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("latch poisoned");
        while *remaining > 0 {
            remaining = self.done.wait(remaining).expect("latch poisoned");
        }
    }
}

/// Shared state of one in-flight batch: the jobs, their result slots,
/// the shared intake index, and the completion latch.
struct BatchCtx<T> {
    jobs: Vec<SolveJob<T>>,
    slots: Vec<ResultSlot<T>>,
    next: AtomicUsize,
    latch: Latch,
}

/// One runner task's work loop: drain jobs off the batch's shared index
/// until none remain. Runner tasks never wait on other tasks, so
/// concurrent batches on a shared engine cannot deadlock the pool.
fn drain_batch<T: Scalar>(inner: &EngineInner, ctx: &BatchCtx<T>, workspace: &WorkspaceHandle) {
    loop {
        let i = ctx.next.fetch_add(1, Ordering::Relaxed);
        if i >= ctx.jobs.len() {
            break;
        }
        let job = &ctx.jobs[i];
        let outcome = inner.run_job(
            i,
            &job.matrix,
            &job.rhs,
            job.guess.as_deref(),
            job.policy,
            workspace,
        );
        inner.account_job(&outcome);
        *ctx.slots[i].lock().expect("result slot poisoned") = Some(outcome);
    }
}

/// A thread-pool-sharded batch solve service over one [`Acamar`]
/// instance.
///
/// The engine owns a [`PlanCache`]: every job's matrix is fingerprinted
/// and its [`AnalysisArtifacts`](acamar_core::AnalysisArtifacts) —
/// structure decision, fine-grained unroll plan, MSID schedule — are
/// built at most once per distinct sparsity pattern, then replayed
/// through [`Acamar::run_with_plan`]. Repeated solves on a warm pattern
/// skip both host-side decision loops entirely.
///
/// All methods take `&self`; the engine is `Sync` and is normally shared
/// across callers via [`Arc`]. Worker threads are spawned once at
/// construction and live until the engine is dropped (which joins them);
/// each keeps a thread-resident buffer pool, so warm solves recycle
/// their scratch vectors instead of heap-allocating. Who runs what: a
/// batch that `min(workers, jobs)` says needs two or more runners goes to
/// the pool, one runner task per participating worker; a batch that needs
/// one — any batch on a one-worker engine, any one-job batch — and
/// [`Engine::solve_one`] run on the calling thread against the engine's
/// own buffer pool, with the same per-job hardening and no hand-off.
/// Batch jobs are pulled from a shared atomic index and results land by
/// submission slot, so result order — and, because
/// [`Acamar::run_with_plan`] is deterministic and pooled buffers are
/// re-zeroed on reuse, every solution vector — is independent of
/// scheduling, of which thread ran the job, and of pool warmth.
///
/// # Hardening
///
/// Every job runs inside [`catch_unwind`]: a panicking worker fails only
/// its own job ([`SolveError::Panicked`]) and the rest of the batch
/// completes normally. [`Engine::with_resilience`] adds per-job
/// deadlines, iteration budgets, and the [`RescuePolicy`] ladder
/// (retry → next solver → preconditioned → GMRES, with geometric budget
/// backoff). [`Engine::with_fault_injection`] installs a deterministic
/// [`FaultInjector`] whose injections are reconciled into the batch's
/// [`RobustnessReport`]. Input validation is always on: a non-finite
/// right-hand side or guess, or a dimension mismatch, fails the job with
/// [`SolveError::Invalid`] before any fabric work, and is never retried.
///
/// ```
/// use acamar_core::{Acamar, AcamarConfig};
/// use acamar_engine::Engine;
/// use acamar_fabric::FabricSpec;
/// use acamar_sparse::generate;
///
/// let engine = Engine::new(Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper()));
/// let a = generate::poisson2d::<f64>(16, 16);
/// let rhss: Vec<Vec<f64>> = (0..8).map(|k| vec![1.0 + k as f64; 256]).collect();
/// let batch = engine.solve_batch(&a, &rhss).unwrap();
/// assert!(batch.all_converged());
/// // One analysis served all eight right-hand sides:
/// assert_eq!(engine.counters().cache.misses, 1);
/// // No injector installed: the robustness ledger is clean.
/// assert_eq!(batch.robustness.injected_total(), 0);
/// ```
#[derive(Debug)]
pub struct Engine {
    inner: Arc<EngineInner>,
    pool: WorkerPool,
}

/// The engine's shared state: everything worker tasks need, behind one
/// [`Arc`] so batch tasks (which must be `'static` for the pool channel)
/// can hold it without borrowing the engine.
#[derive(Debug)]
struct EngineInner {
    acamar: Acamar,
    workers: usize,
    cache: PlanCache,
    resilience: ResilienceConfig,
    injector: Option<Arc<FaultInjector>>,
    /// Engine-level sink; per-job copies are made with the job id routed
    /// in. Disabled (a single branch per site) until a recorder is
    /// installed via [`Engine::with_recorder`].
    telemetry: TelemetrySink,
    /// Shared with the worker pool's threads, which charge their blocked
    /// `recv` intervals here.
    pool_idle: Arc<AtomicU64>,
    jobs_completed: AtomicU64,
    attempts: [AtomicU64; SolverKind::COUNT],
    /// Buffer pool for what runs on the calling thread —
    /// [`Engine::solve_one`] and one-runner batches: repeated solves
    /// recycle scratch vectors just like pool workers do.
    solo_workspace: WorkspaceHandle,
}

impl Engine {
    /// An engine over `acamar` with one worker per available hardware
    /// thread.
    pub fn new(acamar: Acamar) -> Engine {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Engine::with_workers(acamar, workers)
    }

    /// An engine with an explicit worker count (`0` is clamped to `1`).
    /// The worker threads are spawned here and live until the engine is
    /// dropped.
    pub fn with_workers(acamar: Acamar, workers: usize) -> Engine {
        let workers = workers.max(1);
        let pool_idle = Arc::new(AtomicU64::new(0));
        Engine {
            inner: Arc::new(EngineInner {
                acamar,
                workers,
                cache: PlanCache::new(),
                resilience: ResilienceConfig::default(),
                injector: None,
                telemetry: TelemetrySink::disabled(),
                pool_idle: Arc::clone(&pool_idle),
                jobs_completed: AtomicU64::new(0),
                attempts: std::array::from_fn(|_| AtomicU64::new(0)),
                solo_workspace: WorkspaceHandle::new(),
            }),
            pool: WorkerPool::new(workers, pool_idle),
        }
    }

    /// Exclusive access to the shared state for the builder methods.
    ///
    /// Holding `self` by value means no new [`Arc`] clones can appear
    /// (cloning requires a `&self` batch call), but a worker may still be
    /// releasing the clone a just-finished batch task held — its latch
    /// counts down before the task closure (and the `Arc` it captured) is
    /// dropped — so spin the handful of instructions until it lets go.
    fn inner_mut(&mut self) -> &mut EngineInner {
        while Arc::strong_count(&self.inner) > 1 {
            std::thread::yield_now();
        }
        Arc::get_mut(&mut self.inner).expect("no other engine references can appear")
    }

    /// Sets the engine's hardening configuration (rescue ladder,
    /// deadlines, iteration budgets).
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Engine {
        self.inner_mut().resilience = resilience;
        self
    }

    /// Installs a deterministic fault injector: its seams fire inside
    /// every subsequent job, and each batch report reconciles the
    /// injector's ledger into its [`RobustnessReport`]. Also silences the
    /// default panic hook for injected panics so chaos runs don't spam
    /// stderr.
    ///
    /// Each batch drains the ledger; sharing one injector across
    /// concurrently running batches mixes their events.
    pub fn with_fault_injection(mut self, injector: Arc<FaultInjector>) -> Engine {
        acamar_faultline::silence_injected_panics();
        self.inner_mut().injector = Some(injector);
        self
    }

    /// Installs a telemetry recorder: every subsequent job emits its span,
    /// cache, attempt, reconfiguration, and fault events into it, and the
    /// engine folds its internal statistics (plan-cache analysis time,
    /// pool idle time) into the recorder's counters.
    ///
    /// Telemetry is purely observational — solutions, iteration counts,
    /// and modeled cycle charges are bitwise identical with or without a
    /// recorder. Installing a
    /// [`NullRecorder`](acamar_telemetry::NullRecorder) is exactly
    /// equivalent to installing nothing: the sink collapses it away and
    /// every instrumentation site stays a single branch.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Engine {
        let stride = self.inner.telemetry.residual_stride();
        self.inner_mut().telemetry = TelemetrySink::new(recorder).with_residual_stride(stride);
        self
    }

    /// Sets the residual sampling stride: solver loops emit one
    /// [`EventKind::Residual`] event every `stride` iterations (`0`, the
    /// default, disables the stream — it is the highest-volume signal, so
    /// it is opt-in even with a recorder installed).
    pub fn with_residual_stride(mut self, stride: u32) -> Engine {
        let inner = self.inner_mut();
        inner.telemetry = inner.telemetry.with_residual_stride(stride);
        self
    }

    /// A fresh engine with this engine's configuration — same accelerator
    /// model, worker count, resilience policy, fault injector, and
    /// telemetry sink — but a brand-new worker pool and a cold plan
    /// cache.
    ///
    /// This is the shard-restart hook for the serving layer's supervisor:
    /// when a dispatcher thread dies, its engine (whose pool or cache may
    /// be entangled with the crash) is abandoned in place and replaced
    /// wholesale. The injector `Arc` is *shared*, not cloned, so the
    /// chaos ledger keeps a single ground truth across the restart.
    pub fn respawn(&self) -> Engine {
        let pool_idle = Arc::new(AtomicU64::new(0));
        Engine {
            inner: Arc::new(EngineInner {
                acamar: self.inner.acamar.clone(),
                workers: self.inner.workers,
                cache: PlanCache::new(),
                resilience: self.inner.resilience.clone(),
                injector: self.inner.injector.clone(),
                telemetry: self.inner.telemetry.clone(),
                pool_idle: Arc::clone(&pool_idle),
                jobs_completed: AtomicU64::new(0),
                attempts: std::array::from_fn(|_| AtomicU64::new(0)),
                solo_workspace: WorkspaceHandle::new(),
            }),
            pool: WorkerPool::new(self.inner.workers, pool_idle),
        }
    }

    /// The wrapped accelerator.
    pub fn acamar(&self) -> &Acamar {
        &self.inner.acamar
    }

    /// Worker threads in the persistent pool.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// The engine's structure/plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.inner.cache
    }

    /// Whether this engine already holds a compiled plan for `a`'s
    /// sparsity pattern — i.e. whether a solve of `a`, under either
    /// determinism tier, would be a warm cache hit. Does not perturb the
    /// cache's hit/miss accounting.
    pub fn is_warm<T: Scalar>(&self, a: &CsrMatrix<T>) -> bool {
        self.inner.cache.contains(&PatternFingerprint::of(a))
    }

    /// The engine's hardening configuration.
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.inner.resilience
    }

    /// The installed fault injector, if any.
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.inner.injector.as_ref()
    }

    /// The engine-level telemetry sink (disabled until
    /// [`Engine::with_recorder`]).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.inner.telemetry
    }

    /// Lifetime counters: jobs completed, per-solver attempt histogram,
    /// and cache hits/misses/analysis time.
    pub fn counters(&self) -> EngineCounters {
        EngineCounters {
            jobs_completed: self.inner.jobs_completed.load(Ordering::Relaxed),
            attempts_by_solver: std::array::from_fn(|i| {
                self.inner.attempts[i].load(Ordering::Relaxed)
            }),
            cache: self.inner.cache.stats(),
            pool_idle_nanos: self.inner.pool_idle.load(Ordering::Relaxed),
        }
    }

    /// Solves a single system through the cache (no worker threads) with
    /// the same hardening as a batch job.
    ///
    /// # Errors
    ///
    /// [`SolveError::Invalid`] for rejected inputs, [`SolveError::Solver`]
    /// for mid-solve accelerator errors, [`SolveError::Panicked`] /
    /// [`SolveError::DeadlineExceeded`] from the hardening layer.
    pub fn solve_one<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        b: &[T],
    ) -> Result<AcamarRunReport<T>, SolveError> {
        let outcome = self.inner.run_job(
            0,
            a,
            b,
            None,
            DeterminismPolicy::Deterministic,
            &self.inner.solo_workspace,
        );
        self.inner.account_job(&outcome);
        outcome.result
    }

    /// Multi-RHS fast path: solves `A x = b` for every `b` in `rhss`,
    /// analyzing `a` exactly once (a single cache lookup serves the whole
    /// batch, so `rhss.len() - 1` lookups are hits on a cold cache).
    ///
    /// # Errors
    ///
    /// Never fails at the batch level; per-job outcomes (including
    /// rejected inputs and divergence) are inside the report's `results`.
    /// The `Result` return is kept for signature stability.
    pub fn solve_batch<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        rhss: &[Vec<T>],
    ) -> Result<BatchReport<T>, SolveError> {
        let matrix = Arc::new(a.clone());
        let jobs: Vec<SolveJob<T>> = rhss
            .iter()
            .map(|b| SolveJob::new(Arc::clone(&matrix), b.clone()))
            .collect();
        Ok(self.solve_jobs(jobs))
    }

    /// Runs `jobs` across the worker pool — or, when one runner would
    /// drain them all, on the calling thread — and aggregates a
    /// [`BatchReport`].
    ///
    /// Jobs are pulled from a shared queue (no static sharding, so a few
    /// slow systems cannot idle the other workers) and results land in
    /// submission order. Per-job failures — rejected inputs, solver
    /// errors, isolated panics, missed deadlines — are reported in their
    /// own slot; nothing aborts the batch.
    pub fn solve_jobs<T: Scalar>(&self, jobs: Vec<SolveJob<T>>) -> BatchReport<T> {
        let start = Instant::now();
        let cache_before = self.inner.cache.stats();
        let idle_before = self.inner.pool_idle.load(Ordering::Relaxed);
        let n = jobs.len();
        let runners = self.inner.workers.min(n);
        let ctx = Arc::new(BatchCtx {
            jobs,
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            latch: Latch::new(runners),
        });

        if runners == 1 {
            // A batch one runner drains gains nothing from a pool thread
            // and pays two wake-ups for it: run it here, like `solve_one`.
            drain_batch(&self.inner, &ctx, &self.inner.solo_workspace);
        } else {
            // One runner task per participating worker; each drains the
            // shared index until the batch is empty, then counts down the
            // latch. The submitting thread blocks here, not in the pool,
            // so concurrent batches interleave their runners without
            // deadlock.
            for _ in 0..runners {
                let inner = Arc::clone(&self.inner);
                let ctx = Arc::clone(&ctx);
                self.pool.submit(Box::new(move |scratch| {
                    drain_batch(&inner, &ctx, &scratch.workspace);
                    ctx.latch.count_down();
                }));
            }
            ctx.latch.wait();
        }

        let mut results = Vec::with_capacity(n);
        let mut dispositions = Vec::with_capacity(n);
        let mut panics_caught = 0u64;
        let mut deadline_misses = 0u64;
        // Drain by lock-and-take: a worker may still hold its `ctx` clone
        // for an instant after the latch fires, so the `Arc` cannot be
        // unwrapped here.
        for slot in &ctx.slots {
            let outcome = slot
                .lock()
                .expect("result slot poisoned")
                .take()
                .expect("every slot is filled before the latch opens");
            dispositions.push(JobDisposition {
                converged: matches!(&outcome.result, Ok(r) if r.converged()),
                rungs: outcome.rungs,
            });
            panics_caught += outcome.panics;
            deadline_misses += u64::from(outcome.deadline_missed);
            results.push(outcome.result);
        }

        let events = match &self.inner.injector {
            Some(inj) => inj.take_events(),
            None => Vec::new(),
        };
        let mut robustness = RobustnessReport::reconcile(&events, &dispositions);
        robustness.panics_caught = panics_caught;
        robustness.deadline_misses = deadline_misses;

        // Join the injector's ledger into the trace: each injected fault
        // is re-emitted against its job together with the resolution the
        // reconciliation assigned it, using the same disposition logic as
        // `RobustnessReport::reconcile` so trace and ledger always agree.
        if self.inner.telemetry.enabled() {
            for e in &events {
                let sink = self.inner.telemetry.with_job(e.job);
                sink.emit(e.telemetry_kind());
                sink.counter_add(Counter::FaultsInjected, 1);
                let resolution = match dispositions.get(e.job as usize) {
                    Some(j) if j.converged && j.rungs == 0 => FaultResolution::Detected,
                    Some(j) if j.converged => FaultResolution::Recovered,
                    _ => FaultResolution::Exhausted,
                };
                sink.emit(EventKind::FaultOutcome {
                    category: e.category.index().min(u8::MAX as usize) as u8,
                    resolution,
                });
                sink.counter_add(
                    match resolution {
                        FaultResolution::Detected => Counter::FaultsDetected,
                        FaultResolution::Recovered => Counter::FaultsRecovered,
                        FaultResolution::Exhausted => Counter::FaultsExhausted,
                    },
                    1,
                );
            }
        }

        let mut attempts_by_solver = [0u64; SolverKind::COUNT];
        let mut stats = FabricRunStats::empty();
        let mut converged = 0usize;
        for report in results.iter().flatten() {
            if report.converged() {
                converged += 1;
            }
            for at in &report.attempts {
                attempts_by_solver[at.solver.index()] += 1;
            }
            stats = stats.merge(&report.stats);
        }

        let pool_idle_nanos = self
            .inner
            .pool_idle
            .load(Ordering::Relaxed)
            .saturating_sub(idle_before);
        self.inner
            .telemetry
            .counter_add(Counter::PoolIdleNanos, pool_idle_nanos);

        BatchReport {
            results,
            converged,
            attempts_by_solver,
            stats,
            cache: self.inner.cache.stats().since(&cache_before),
            robustness,
            pool_idle_nanos,
            wall_seconds: start.elapsed().as_secs_f64(),
        }
    }
}

impl EngineInner {
    /// Runs one job end to end: intake seams, cached analysis, the
    /// panic-isolated primary attempt, then the rescue ladder under the
    /// deadline and iteration budget. `workspace` is the running thread's
    /// buffer pool, threaded down to the fabric kernels so every attempt
    /// recycles its scratch vectors.
    fn run_job<T: Scalar>(
        &self,
        index: usize,
        matrix: &CsrMatrix<T>,
        rhs: &[T],
        guess: Option<&[T]>,
        policy: DeterminismPolicy,
        workspace: &WorkspaceHandle,
    ) -> JobOutcome<T> {
        let start = Instant::now();
        let job = index as u64;
        let mut panics = 0u64;
        let sink = self.telemetry.with_job(job);
        sink.emit(EventKind::JobStart {
            fast: policy.is_fast(),
        });

        // Intake seams. The poisoned copy (if any) replaces the caller's
        // RHS for every attempt; input validation then rejects it as a
        // typed, non-retryable error — that rejection *is* the detection.
        let intake = sink.span(Span::Intake);
        let poisoned: Option<Vec<T>> = self.injector.as_ref().and_then(|inj| {
            let mut copy = rhs.to_vec();
            inj.poison_rhs(job, &mut copy).then_some(copy)
        });
        let rhs: &[T] = poisoned.as_deref().unwrap_or(rhs);
        if let Some(inj) = &self.injector {
            if inj.corrupt_cache(job) {
                // The cache's provenance guard turns this into a counted
                // collision + re-analysis on the lookup just below.
                self.cache.corrupt_entry(&PatternFingerprint::of(matrix));
            }
        }
        drop(intake);
        let artifacts = {
            let _analyze = sink.span(Span::Analyze);
            self.cache.get_or_analyze_with(&self.acamar, matrix, &sink)
        };

        // Primary attempt: the accelerator's own defense (Solver
        // Modifier switching) runs inside it.
        let mut result = {
            let _solve = sink.span(Span::Solve);
            self.attempt(
                matrix,
                rhs,
                guess,
                &artifacts,
                job,
                0,
                None,
                policy,
                &mut panics,
                workspace,
                &sink,
            )
        };
        let mut rungs = 0usize;
        let mut deadline_missed = false;

        let done = matches!(&result, Ok(r) if r.converged())
            || matches!(&result, Err(e) if e.is_invalid_input());
        if !done {
            if let Some(rescue) = self.resilience.rescue {
                let _rescue = sink.span(Span::Rescue);
                let base = self.acamar.config().criteria;
                let primary = artifacts.structure.solver;
                let mut climb = Climb::new();
                if let Ok(r) = &result {
                    climb.absorb(r);
                }

                for &step in rescue.ladder() {
                    if let Some(limit) = self.resilience.deadline {
                        let elapsed = start.elapsed();
                        if elapsed >= limit {
                            result = Err(SolveError::DeadlineExceeded {
                                elapsed_ms: elapsed.as_millis() as u64,
                                limit_ms: limit.as_millis() as u64,
                            });
                            deadline_missed = true;
                            break;
                        }
                    }
                    if let Some(budget) = self.resilience.iteration_budget {
                        if climb.iters_spent >= budget {
                            break;
                        }
                    }
                    let Some(kind) = rescue.solver_for(step, primary, &climb.tried) else {
                        // Nothing new to offer; skip without burning depth.
                        continue;
                    };
                    rungs += 1;
                    sink.emit(EventKind::RescueStep {
                        step: rungs.min(u8::MAX as usize) as u8,
                        solver: kind.index() as u8,
                    });
                    sink.counter_add(Counter::RescueRungs, 1);
                    let criteria = rescue.rung_criteria(&base, rungs);
                    let next = self.attempt(
                        matrix,
                        rhs,
                        guess,
                        &artifacts,
                        job,
                        rungs as u64,
                        Some((criteria, kind)),
                        policy,
                        &mut panics,
                        workspace,
                        &sink,
                    );
                    if let Ok(r) = &next {
                        climb.absorb(r);
                    }
                    let rescued = matches!(&next, Ok(r) if r.converged());
                    let invalid = matches!(&next, Err(e) if e.is_invalid_input());
                    match (&result, next) {
                        // A numerical report from an earlier attempt is
                        // more informative than a later rung's panic.
                        (Ok(_), Err(_)) => {}
                        (_, next) => result = next,
                    }
                    if rescued || invalid {
                        break;
                    }
                }

                // The job's report describes the whole climb, not just the
                // final rung.
                if rungs > 0 {
                    if let Ok(r) = &mut result {
                        r.attempts = climb.attempts;
                        r.stats = climb.stats;
                    }
                }
            }
        }

        let converged = matches!(&result, Ok(r) if r.converged());
        if policy.is_fast() {
            sink.counter_add(Counter::FastTierSolves, 1);
            if converged {
                sink.counter_add(Counter::FastTierConverged, 1);
            }
        }
        sink.emit(EventKind::JobEnd {
            converged,
            rungs: rungs as u32,
        });
        JobOutcome {
            result,
            rungs,
            panics,
            deadline_missed,
        }
    }

    /// One panic-isolated solver attempt. `forced` carries a rescue
    /// rung's `(criteria, solver)`; `None` runs the accelerator's own
    /// decision chain. The worker-disruption seam fires *inside* the
    /// unwind boundary, so an injected panic exercises the same isolation
    /// path a genuine one would.
    #[allow(clippy::too_many_arguments)]
    fn attempt<T: Scalar>(
        &self,
        matrix: &CsrMatrix<T>,
        rhs: &[T],
        guess: Option<&[T]>,
        artifacts: &AnalysisArtifacts,
        job: u64,
        rung: u64,
        forced: Option<(acamar_solvers::ConvergenceCriteria, SolverKind)>,
        policy: DeterminismPolicy,
        panics: &mut u64,
        workspace: &WorkspaceHandle,
        sink: &TelemetrySink,
    ) -> Result<AcamarRunReport<T>, SolveError> {
        // The planned solver: a rescue rung's forced kind, or the Matrix
        // Structure pick (the Solver Modifier may still switch mid-run —
        // `AttemptEnd` reports the solver that actually finished).
        let planned = forced
            .as_ref()
            .map(|(_, s)| *s)
            .unwrap_or(artifacts.structure.solver);
        let rung_u8 = rung.min(u8::MAX as u64) as u8;
        sink.emit(EventKind::AttemptStart {
            solver: planned.index() as u8,
            rung: rung_u8,
        });
        // Salting by rung gives each rescue attempt a fresh site
        // namespace; an un-salted retry would re-draw the exact faults
        // that killed the run it is rescuing.
        let fault = self
            .injector
            .as_ref()
            .map(|inj| FaultContext::new(Arc::clone(inj), job).with_salt(rung));
        let disruption = self
            .injector
            .as_ref()
            .and_then(|inj| inj.disrupt_worker(job, rung));
        let run = catch_unwind(AssertUnwindSafe(|| {
            match disruption {
                Some(WorkerDisruption::Panic) => std::panic::panic_any(InjectedPanic { job }),
                Some(WorkerDisruption::Stall { millis }) => {
                    std::thread::sleep(Duration::from_millis(millis))
                }
                None => {}
            }
            let (criteria, solver) = match forced {
                Some((c, s)) => (Some(c), Some(s)),
                None => (None, None),
            };
            self.acamar.run_with_plan_opts(
                matrix,
                rhs,
                guess,
                artifacts,
                RunOptions {
                    criteria,
                    solver,
                    fault,
                    workspace: Some(workspace.clone()),
                    telemetry: sink.clone(),
                    policy,
                },
            )
        }));
        let result = match run {
            Ok(result) => result.map_err(SolveError::from),
            Err(payload) => {
                *panics += 1;
                Err(SolveError::Panicked {
                    message: describe_panic(payload.as_ref()),
                })
            }
        };
        if sink.enabled() {
            let (solver, converged, iterations) = match &result {
                Ok(r) => (
                    r.solve.solver.index() as u8,
                    r.converged(),
                    r.solve.iterations.min(u32::MAX as usize) as u32,
                ),
                Err(_) => (planned.index() as u8, false, 0),
            };
            sink.emit(EventKind::AttemptEnd {
                solver,
                rung: rung_u8,
                converged,
                iterations,
            });
        }
        result
    }

    /// Lifetime-counter bookkeeping shared by `solve_one` and the batch
    /// workers.
    fn account_job<T>(&self, outcome: &JobOutcome<T>) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter_add(Counter::JobsCompleted, 1);
        if let Ok(report) = &outcome.result {
            for at in &report.attempts {
                self.attempts[at.solver.index()].fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Running accumulation of a job's climb up the rescue ladder: every
/// attempt made, the merged fabric stats, the solver kinds already
/// tried, and the iteration budget spent.
struct Climb {
    attempts: Vec<SolveAttempt>,
    stats: FabricRunStats,
    tried: Vec<SolverKind>,
    iters_spent: usize,
}

impl Climb {
    fn new() -> Climb {
        Climb {
            attempts: Vec::new(),
            stats: FabricRunStats::empty(),
            tried: Vec::new(),
            iters_spent: 0,
        }
    }

    fn absorb<T>(&mut self, r: &AcamarRunReport<T>) {
        for at in &r.attempts {
            self.iters_spent += at.iterations;
            if !self.tried.contains(&at.solver) {
                self.tried.push(at.solver);
            }
        }
        self.attempts.extend(r.attempts.iter().cloned());
        self.stats = self.stats.merge(&r.stats);
    }
}

/// Best-effort description of a caught panic payload.
fn describe_panic(payload: &(dyn Any + Send)) -> String {
    if let Some(p) = payload.downcast_ref::<InjectedPanic>() {
        format!("injected worker panic (job {})", p.job)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_core::AcamarConfig;
    use acamar_fabric::FabricSpec;
    use acamar_faultline::{FaultCategory, FaultPlan};
    use acamar_solvers::ConvergenceCriteria;
    use acamar_sparse::generate::{self, RowDistribution};
    use acamar_sparse::SparseError;

    fn engine(workers: usize) -> Engine {
        let cfg = AcamarConfig::paper()
            .with_criteria(ConvergenceCriteria::paper().with_max_iterations(2000));
        Engine::with_workers(Acamar::new(FabricSpec::alveo_u55c(), cfg), workers)
    }

    /// An engine whose base iteration budget is far too small to
    /// converge, so the primary run always fails and the rescue ladder
    /// (whose `min_iterations` floor restores a real budget) is the only
    /// path to convergence.
    fn starved_engine(workers: usize, resilience: ResilienceConfig) -> Engine {
        let cfg = AcamarConfig::paper()
            .with_criteria(ConvergenceCriteria::paper().with_max_iterations(4));
        Engine::with_workers(Acamar::new(FabricSpec::alveo_u55c(), cfg), workers)
            .with_resilience(resilience)
    }

    fn rescue_with_floor(min_iterations: usize) -> ResilienceConfig {
        ResilienceConfig {
            rescue: Some(RescuePolicy {
                min_iterations,
                ..RescuePolicy::default()
            }),
            ..ResilienceConfig::default()
        }
    }

    #[test]
    fn solve_one_matches_direct_run() {
        let e = engine(1);
        let a = generate::poisson2d::<f64>(12, 12);
        let b = vec![1.0_f64; 144];
        let via_engine = e.solve_one(&a, &b).unwrap();
        let direct = e.acamar().run(&a, &b).unwrap();
        assert_eq!(via_engine.solve.solution, direct.solve.solution);
        assert_eq!(via_engine.attempts.len(), direct.attempts.len());
        assert_eq!(e.counters().jobs_completed, 1);
    }

    #[test]
    fn respawn_gives_a_cold_equivalent_engine_sharing_the_injector() {
        let injector = Arc::new(FaultInjector::new(FaultPlan::new(3)));
        let e = engine(2)
            .with_resilience(ResilienceConfig::hardened())
            .with_fault_injection(Arc::clone(&injector));
        let a = generate::poisson2d::<f64>(8, 8);
        let b = vec![1.0_f64; 64];
        let warm = e.solve_one(&a, &b).unwrap();
        assert!(e.is_warm(&a));

        let fresh = e.respawn();
        assert!(!fresh.is_warm(&a), "respawn must start with a cold cache");
        assert_eq!(fresh.workers(), e.workers());
        assert_eq!(fresh.counters().jobs_completed, 0);
        assert!(
            Arc::ptr_eq(fresh.injector().unwrap(), &injector),
            "the chaos ledger must stay shared across a restart"
        );
        let again = fresh.solve_one(&a, &b).unwrap();
        assert_eq!(again.solve.solution, warm.solve.solution);
    }

    #[test]
    fn solve_batch_analyzes_once() {
        let e = engine(4);
        let a = generate::poisson2d::<f64>(10, 10);
        let rhss: Vec<Vec<f64>> = (0..9).map(|k| vec![(k + 1) as f64; 100]).collect();
        let batch = e.solve_batch(&a, &rhss).unwrap();
        assert_eq!(batch.jobs(), 9);
        assert!(batch.all_converged());
        assert_eq!(batch.cache.misses, 1);
        assert_eq!(batch.cache.hits, 8);
        assert!(batch.cache.analysis_nanos > 0);
        assert!(batch.jobs_per_second() > 0.0);
        // Quiet engine: clean ledger, everyone finished on the primary run.
        assert_eq!(batch.robustness.injected_total(), 0);
        assert!(batch.robustness.accounted());
        assert_eq!(batch.robustness.rescue_depths[0], 9);
        assert_eq!(batch.robustness.panics_caught, 0);
    }

    #[test]
    fn batch_histogram_counts_every_attempt() {
        let e = engine(2);
        let a = generate::diagonally_dominant::<f64>(
            64,
            RowDistribution::Uniform { min: 2, max: 6 },
            1.5,
            3,
        );
        let rhss: Vec<Vec<f64>> = (0..4).map(|k| vec![1.0 + k as f64; 64]).collect();
        let batch = e.solve_batch(&a, &rhss).unwrap();
        // Dominant matrix: Jacobi first try, every time.
        assert_eq!(batch.attempts_by_solver[SolverKind::Jacobi.index()], 4);
        assert_eq!(batch.total_attempts(), 4);
        assert_eq!(e.counters().attempts_by_solver, batch.attempts_by_solver);
    }

    #[test]
    fn shape_errors_fail_their_job_without_aborting_the_batch() {
        let e = engine(2);
        let a = Arc::new(generate::poisson2d::<f64>(8, 8));
        let jobs = vec![
            SolveJob::new(Arc::clone(&a), vec![1.0_f64; 64]),
            SolveJob::new(Arc::clone(&a), vec![1.0_f64; 63]), // wrong length
            SolveJob::new(Arc::clone(&a), vec![2.0_f64; 64]),
        ];
        let batch = e.solve_jobs(jobs);
        assert!(batch.results[0].is_ok());
        assert!(matches!(&batch.results[1], Err(e) if e.is_invalid_input()));
        assert!(batch.results[2].is_ok());
        assert_eq!(batch.converged, 2);
        assert!(!batch.all_converged());
        assert_eq!(batch.robustness.exhausted_jobs, vec![1]);
    }

    #[test]
    fn non_finite_inputs_are_rejected_with_typed_errors() {
        let e = engine(1);
        let a = generate::poisson2d::<f64>(6, 6);
        let mut b = vec![1.0_f64; 36];
        b[7] = f64::NAN;
        match e.solve_one(&a, &b) {
            Err(SolveError::Invalid(SparseError::NonFiniteValue { what, index })) => {
                assert_eq!(what, "right-hand side");
                assert_eq!(index, 7);
            }
            other => panic!("expected a typed rejection, got {other:?}"),
        }
        // A poisoned warm-start guess is rejected the same way, and —
        // being deterministic — never climbs the rescue ladder even on a
        // rescue-enabled engine.
        let e = engine(1).with_resilience(ResilienceConfig::hardened());
        let am = Arc::new(a);
        let mut x0 = vec![0.0_f64; 36];
        x0[0] = f64::INFINITY;
        let batch = e.solve_jobs(vec![
            SolveJob::new(Arc::clone(&am), vec![1.0_f64; 36]).with_guess(x0)
        ]);
        assert!(matches!(&batch.results[0], Err(err) if err.is_invalid_input()));
        assert_eq!(batch.robustness.rescue_depths[0], 1, "no rescue climbed");
    }

    #[test]
    fn empty_batch_is_a_clean_no_op() {
        let e = engine(3);
        let batch = e.solve_jobs(Vec::<SolveJob<f64>>::new());
        assert_eq!(batch.jobs(), 0);
        assert_eq!(batch.total_attempts(), 0);
        assert_eq!(batch.jobs_per_second(), 0.0);
        assert!(batch.all_converged());
        assert!(batch.robustness.accounted());
    }

    #[test]
    fn merged_stats_accumulate_across_jobs() {
        let e = engine(2);
        let a = generate::poisson2d::<f64>(10, 10);
        let one = e.solve_one(&a, &vec![1.0_f64; 100]).unwrap();
        let batch = e
            .solve_batch(&a, &[vec![1.0_f64; 100], vec![2.0_f64; 100]])
            .unwrap();
        assert!(batch.stats.cycles.total() >= one.stats.cycles.total());
        assert!(batch.stats.useful_flops >= one.stats.useful_flops);
        assert!(batch.stats.peak_area_mm2 >= one.stats.peak_area_mm2);
    }

    #[test]
    fn warm_guess_is_forwarded() {
        let e = engine(1);
        let a = Arc::new(generate::poisson2d::<f64>(10, 10));
        let b = vec![1.0_f64; 100];
        let cold = e.solve_jobs(vec![SolveJob::new(Arc::clone(&a), b.clone())]);
        let x = cold.results[0].as_ref().unwrap().solve.solution.clone();
        let warm = e.solve_jobs(vec![SolveJob::new(Arc::clone(&a), b).with_guess(x)]);
        let w = warm.results[0].as_ref().unwrap();
        assert!(w.converged());
        let c = cold.results[0].as_ref().unwrap();
        assert!(w.solve.iterations <= c.solve.iterations);
    }

    #[test]
    fn quiet_injector_reproduces_the_plain_run_exactly() {
        let a = generate::poisson2d::<f64>(10, 10);
        let rhss: Vec<Vec<f64>> = (0..4).map(|k| vec![1.0 + k as f64; 100]).collect();
        let plain = engine(2).solve_batch(&a, &rhss).unwrap();
        let injector = Arc::new(FaultInjector::new(FaultPlan::new(7)));
        let chaos_off = engine(2)
            .with_fault_injection(Arc::clone(&injector))
            .with_resilience(ResilienceConfig::hardened())
            .solve_batch(&a, &rhss)
            .unwrap();
        assert_eq!(injector.injected_total(), 0);
        for (p, c) in plain.results.iter().zip(&chaos_off.results) {
            let (p, c) = (p.as_ref().unwrap(), c.as_ref().unwrap());
            assert_eq!(p.solve.solution, c.solve.solution);
            assert_eq!(p.solve.iterations, c.solve.iterations);
            assert_eq!(p.stats.cycles.total(), c.stats.cycles.total());
        }
    }

    #[test]
    fn panicking_jobs_are_isolated_and_the_batch_completes() {
        let plan = FaultPlan::new(42).with_rate(FaultCategory::WorkerDisruption, 1.0);
        let injector = Arc::new(FaultInjector::new(plan));
        // No rescue: a panicked primary run fails its job outright.
        let e = engine(4).with_fault_injection(Arc::clone(&injector));
        let a = generate::poisson2d::<f64>(8, 8);
        let rhss: Vec<Vec<f64>> = (0..8).map(|k| vec![1.0 + k as f64; 64]).collect();
        let batch = e.solve_batch(&a, &rhss).unwrap();
        assert_eq!(batch.jobs(), 8, "every slot filled");
        let panicked = batch
            .results
            .iter()
            .filter(|r| matches!(r, Err(SolveError::Panicked { .. })))
            .count();
        // Disruptions are 50/50 panic vs stall per job; seed 42 yields
        // both kinds across eight jobs, deterministically.
        assert!(panicked >= 1, "at least one injected panic");
        assert!(batch.converged >= 1, "stalled jobs still converge");
        assert_eq!(panicked + batch.converged, 8);
        assert_eq!(batch.robustness.panics_caught as usize, panicked);
        assert!(batch.robustness.accounted());
        let t = batch.robustness.tallies[FaultCategory::WorkerDisruption.index()];
        assert_eq!(t.injected, 8);
        assert_eq!(t.exhausted as usize, panicked);
    }

    #[test]
    fn rescue_ladder_recovers_a_starved_job() {
        // Base budget of 4 iterations cannot converge; the first rescue
        // rung re-runs with the policy's 2000-iteration floor and does.
        let e = starved_engine(1, rescue_with_floor(2000));
        let a = generate::poisson2d::<f64>(10, 10);
        let batch = e.solve_batch(&a, &[vec![1.0_f64; 100]]).unwrap();
        assert!(batch.all_converged());
        assert_eq!(batch.robustness.rescue_depths[1], 1, "one rung climbed");
        assert_eq!(batch.robustness.rescued_jobs(), 1);
        let report = batch.results[0].as_ref().unwrap();
        assert!(
            report.attempts.len() >= 2,
            "merged report keeps the failed primary attempts"
        );
        assert!(report.converged());
    }

    #[test]
    fn rescue_without_recovery_marks_the_job_exhausted() {
        // The floor is as starved as the base: no rung can converge.
        let e = starved_engine(1, rescue_with_floor(4));
        let a = generate::poisson2d::<f64>(10, 10);
        let batch = e.solve_batch(&a, &[vec![1.0_f64; 100]]).unwrap();
        assert_eq!(batch.converged, 0);
        assert_eq!(batch.robustness.exhausted_jobs, vec![0]);
        assert!(batch.robustness.rescued_jobs() >= 1, "it did try");
    }

    #[test]
    fn zero_deadline_fails_fast_with_a_typed_error() {
        let e = starved_engine(1, rescue_with_floor(2000).with_deadline(Duration::ZERO));
        let a = generate::poisson2d::<f64>(10, 10);
        let batch = e.solve_batch(&a, &[vec![1.0_f64; 100]]).unwrap();
        assert!(matches!(
            batch.results[0],
            Err(SolveError::DeadlineExceeded { limit_ms: 0, .. })
        ));
        assert_eq!(batch.robustness.deadline_misses, 1);
        assert_eq!(batch.robustness.exhausted_jobs, vec![0]);
    }

    #[test]
    fn iteration_budget_stops_the_climb() {
        // The primary run spends ≥ 1 iteration, exhausting a budget of 1
        // before any rung is climbed.
        let e = starved_engine(1, rescue_with_floor(2000).with_iteration_budget(1));
        let a = generate::poisson2d::<f64>(10, 10);
        let batch = e.solve_batch(&a, &[vec![1.0_f64; 100]]).unwrap();
        assert_eq!(batch.converged, 0);
        assert_eq!(batch.robustness.rescue_depths[0], 1, "no rung climbed");
        assert_eq!(batch.robustness.rescued_jobs(), 0);
    }

    #[test]
    fn cache_corruption_is_absorbed_by_the_provenance_guard() {
        let plan = FaultPlan::new(11).with_rate(FaultCategory::CacheCorruption, 1.0);
        let injector = Arc::new(FaultInjector::new(plan));
        let e = engine(1).with_fault_injection(Arc::clone(&injector));
        let a = generate::poisson2d::<f64>(8, 8);
        let rhss: Vec<Vec<f64>> = (0..4).map(|k| vec![1.0 + k as f64; 64]).collect();
        let batch = e.solve_batch(&a, &rhss).unwrap();
        assert!(batch.all_converged(), "corruption never reaches a solve");
        let t = batch.robustness.tallies[FaultCategory::CacheCorruption.index()];
        assert_eq!(t.injected, 4);
        assert_eq!(t.detected, 4, "absorbed with zero rescues");
        // Jobs 2..4 corrupt an existing entry, which the guard counts.
        assert!(batch.cache.collisions >= 1);
        assert!(batch.robustness.accounted());
    }
}
