//! The serving front-end: bounded admission, shard dispatch, tickets.

use crate::config::{Priority, ServiceConfig, PROBE_AFTER, RETRY_AFTER_FLOOR};
use crate::health::{lock_recover, HealthCell, LedgerInner, ServiceLedger, ShardHealth};
use crate::queue::Scheduler;
use crate::router::{mix64, shard_for, shard_ranking};
use acamar_core::{Acamar, AcamarRunReport};
use acamar_engine::{Engine, PatternFingerprint, SolveError, SolveJob};
use acamar_faultline::{
    silence_injected_panics, FaultCategory, FaultInjector, FaultPlan, InjectedPanic,
};
use acamar_sparse::{CsrMatrix, DeterminismPolicy, Scalar};
use acamar_telemetry::export::{json_lines, PrometheusWriter};
use acamar_telemetry::{Counter, EventKind, Recorder, RingRecorder, TelemetrySink};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A recorder a [`Service`] records into and exports from: it keeps what
/// it records on a [`RingRecorder`], whose trace and counters back
/// [`Service::trace_json`], the scrape endpoint and
/// [`Service::prometheus_text`]. A `RingRecorder` is one; so is a recorder
/// that wraps one to act on the events as they go by — a test that holds
/// a dispatcher at a chosen event, say.
pub trait RingBacked: Recorder {
    /// The ring this recorder keeps its events and counters on.
    fn ring(&self) -> &RingRecorder;
}

impl RingBacked for RingRecorder {
    fn ring(&self) -> &RingRecorder {
        self
    }
}

/// One admission request: a solve job plus its serving metadata.
#[derive(Debug, Clone)]
pub struct ServiceRequest<T> {
    /// Coefficient matrix (shared, so repeat submissions of one system
    /// don't clone the CSR arrays).
    pub matrix: Arc<CsrMatrix<T>>,
    /// Right-hand side.
    pub rhs: Vec<T>,
    /// Submitting tenant (accounting only; scheduling keys on
    /// `priority`, not identity).
    pub tenant: u32,
    /// Scheduling class.
    pub priority: Priority,
    /// Wall-clock budget measured from admission; a job still queued
    /// when it expires is shed before solving
    /// ([`ServiceError::Shed`]).
    pub deadline: Option<Duration>,
    /// Determinism tier the solve runs under. `Deterministic` (the
    /// default) keeps the bitwise replay contract; `Fast` routes the
    /// hot kernels through the reassociated 4-lane paths.
    pub policy: DeterminismPolicy,
}

impl<T> ServiceRequest<T> {
    /// A normal-priority, deadline-free request from tenant 0.
    pub fn new(matrix: Arc<CsrMatrix<T>>, rhs: Vec<T>) -> ServiceRequest<T> {
        ServiceRequest {
            matrix,
            rhs,
            tenant: 0,
            priority: Priority::Normal,
            deadline: None,
            policy: DeterminismPolicy::Deterministic,
        }
    }

    /// Sets the submitting tenant.
    pub fn with_tenant(mut self, tenant: u32) -> ServiceRequest<T> {
        self.tenant = tenant;
        self
    }

    /// Sets the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> ServiceRequest<T> {
        self.priority = priority;
        self
    }

    /// Sets the admission-relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> ServiceRequest<T> {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the determinism tier.
    pub fn with_policy(mut self, policy: DeterminismPolicy) -> ServiceRequest<T> {
        self.policy = policy;
        self
    }
}

/// Why a submission was refused at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The routed shard's queue is at capacity. Back off for at least
    /// `retry_after` (estimated drain time of the queue ahead of you)
    /// before resubmitting.
    QueueFull {
        /// The shard the job routed to.
        shard: usize,
        /// Its queue depth at rejection time.
        depth: usize,
        /// The configured bound.
        capacity: usize,
        /// Estimated time until the shard can accept again.
        retry_after: Duration,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull {
                shard,
                depth,
                capacity,
                retry_after,
            } => write!(
                f,
                "shard {shard} queue full ({depth}/{capacity}); retry after {retry_after:?}"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

impl AdmissionError {
    /// The rejection's backoff hint.
    pub fn retry_after(&self) -> Duration {
        match self {
            AdmissionError::QueueFull { retry_after, .. } => *retry_after,
        }
    }
}

/// Why an *admitted* job did not produce a solution.
#[derive(Debug, Clone)]
pub enum ServiceError {
    /// The job's deadline expired while it was still queued; it was shed
    /// before reaching a solver.
    Shed {
        /// The shard that shed it.
        shard: usize,
        /// How long it had been queued when shed.
        waited: Duration,
    },
    /// The solve itself failed (invalid input, divergence past the
    /// rescue ladder, isolated panic, engine-level deadline).
    Solve(SolveError),
    /// The job was in flight on a dispatcher that panicked, and its
    /// delivery retry budget ([`ServiceConfig::retry_budget`]) was spent
    /// before a respawned dispatcher could deliver it.
    ShardRestarted {
        /// The shard the job was queued on (its dispatcher, or a peer's
        /// that had taken the job, crashed).
        shard: usize,
        /// Delivery retries the job consumed before giving up.
        retries: u32,
    },
    /// The job was silently dropped between queue and dispatch (a
    /// `QueueDrop` fault) more times than the retry budget allowed.
    Dropped {
        /// The shard the job was queued on.
        shard: usize,
        /// Delivery retries the job consumed before giving up.
        retries: u32,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Shed { shard, waited } => {
                write!(f, "shed on shard {shard} after queueing {waited:?}")
            }
            ServiceError::Solve(e) => write!(f, "solve failed: {e}"),
            ServiceError::ShardRestarted { shard, retries } => write!(
                f,
                "lost to a dispatcher crash on shard {shard} after {retries} retries"
            ),
            ServiceError::Dropped { shard, retries } => {
                write!(f, "dropped on shard {shard} after {retries} retries")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    /// `true` for queue-side shedding (the solver never ran).
    pub fn is_shed(&self) -> bool {
        matches!(self, ServiceError::Shed { .. })
    }
}

/// What fulfilling a ticket delivers: the outcome plus serving metadata.
type Outcome<T> = (Result<AcamarRunReport<T>, ServiceError>, u64, Duration);

/// Completion slot shared between a [`Ticket`] and the shard dispatcher.
pub(crate) struct TicketState<T: Scalar> {
    slot: Mutex<Option<Outcome<T>>>,
    cv: Condvar,
}

impl<T: Scalar> TicketState<T> {
    fn new() -> TicketState<T> {
        TicketState {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fulfill(
        &self,
        result: Result<AcamarRunReport<T>, ServiceError>,
        index: u64,
        latency: Duration,
    ) {
        *lock_recover(&self.slot) = Some((result, index, latency));
        self.cv.notify_all();
    }
}

impl<T: Scalar> fmt::Debug for TicketState<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TicketState").finish_non_exhaustive()
    }
}

/// Handle to one admitted job; [`Ticket::wait`] blocks until a shard
/// dispatcher fulfills it. The service's [`Drop`] drains every queue, so
/// a ticket from a dropped service still resolves.
#[derive(Debug)]
pub struct Ticket<T: Scalar> {
    state: Arc<TicketState<T>>,
    shard: usize,
    seq: u64,
    tenant: u32,
}

impl<T: Scalar> Ticket<T> {
    /// The shard the job routed to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The job's admission sequence number (also its telemetry job id).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The submitting tenant.
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// Blocks until the job completes (solved, failed, or shed).
    pub fn wait(self) -> Result<AcamarRunReport<T>, ServiceError> {
        self.wait_outcome().0
    }

    /// [`Ticket::wait`] plus the job's global completion index (the
    /// order shard dispatchers finished jobs in, across the whole
    /// service) — what the scheduling tests assert exact orders on.
    pub fn wait_with_index(self) -> (Result<AcamarRunReport<T>, ServiceError>, u64) {
        let (result, index, _) = self.wait_outcome();
        (result, index)
    }

    /// [`Ticket::wait`] plus the job's admission-to-completion latency
    /// (queue wait + solve, as the dispatcher observed it) — what the
    /// open-loop load-generator bench records.
    pub fn wait_timed(self) -> (Result<AcamarRunReport<T>, ServiceError>, Duration) {
        let (result, _, latency) = self.wait_outcome();
        (result, latency)
    }

    fn wait_outcome(self) -> Outcome<T> {
        let mut slot = lock_recover(&self.state.slot);
        loop {
            if let Some(out) = slot.take() {
                return out;
            }
            slot = self.state.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One queued job as the shard dispatcher sees it.
struct Waiting<T: Scalar> {
    job: SolveJob<T>,
    seq: u64,
    admitted_at: Instant,
    deadline: Option<Instant>,
    ticket: Arc<TicketState<T>>,
    priority: Priority,
    /// Delivery attempts already consumed (0 on first admission; bumped
    /// each time a crash/drop requeues the job).
    attempt: u32,
}

/// One job the dispatcher has popped but not yet resolved. Entries live
/// in the popping dispatcher's [`ShardShared::in_flight`] so its recovery
/// can see exactly what a crash stranded and requeue it.
struct InFlight<T: Scalar> {
    /// `None` once the job has been handed to the engine (a crash after
    /// that point cannot retry the work it no longer holds).
    job: Option<SolveJob<T>>,
    /// The shard whose queue the job was popped from: its engine runs
    /// the job, and a retry goes back to its queue.
    owner: usize,
    seq: u64,
    attempt: u32,
    priority: Priority,
    admitted_at: Instant,
    deadline: Option<Instant>,
    ticket: Arc<TicketState<T>>,
    /// Marked by the `QueueDrop` seam: the job is silently lost between
    /// pop and dispatch and must take the retry path.
    dropped: bool,
}

/// State shared between the admission path and one shard's dispatcher.
struct ShardShared<T: Scalar> {
    state: Mutex<ShardState<T>>,
    cv: Condvar,
    /// Mirror of the queue depth for lock-free scrapes.
    depth: AtomicUsize,
    /// EWMA of per-job service nanos, feeding retry-after estimates.
    ema_nanos: AtomicU64,
    /// The shard's engine, in a swappable slot: the dispatcher's recovery
    /// replaces it with a fresh [`Engine::respawn`] after a crash.
    engine: Mutex<Arc<Engine>>,
    /// Jobs this shard's dispatcher popped (from its own queue or a
    /// peer's) but has not yet resolved; its crash-recovery ledger.
    in_flight: Mutex<Vec<InFlight<T>>>,
    /// Jobs from this shard's queue that a peer's dispatcher ran.
    stolen: AtomicU64,
    /// The shard's supervision state machine.
    health: HealthCell,
    /// Dispatcher liveness tick, bumped once per wave (and after a
    /// stall); `/health` reports it.
    heartbeat: AtomicU64,
    /// Times this shard's dispatcher has recovered from a panic.
    restarts: AtomicU64,
}

impl<T: Scalar> ShardShared<T> {
    /// Records dispatcher liveness (a pure atomic: no telemetry, so the
    /// normalized event stream is untouched).
    fn beat(&self) {
        self.heartbeat.fetch_add(1, Ordering::Relaxed);
    }
}

struct ShardState<T: Scalar> {
    sched: Scheduler<Waiting<T>>,
    paused: bool,
    shutdown: bool,
    /// Chaos hook ([`Service::crash_shard`]): the dispatcher panics at
    /// the top of its next loop, exercising the real recovery path.
    crash: bool,
    /// The dispatcher has no work of its own: it is looking at its
    /// peers' queues or asleep. Admission onto a busy peer wakes it.
    idle: bool,
    /// Work landed on a busy peer's queue while this dispatcher was
    /// idle: look at the peers' queues again before sleeping. A flag, not
    /// only a notify, so a wake-up during the look is not lost.
    nudged: bool,
}

/// The serving front-end over `N` engine shards.
///
/// Construction spawns one dispatcher thread per shard, each serving an
/// [`Engine`] (its own plan cache and workspace pools); those are the
/// service's only threads at rest.
/// [`Service::submit`] routes by fingerprint affinity ([`shard_for`]) —
/// every repeat of a sparsity pattern goes to the one shard that already
/// compiled its plan — and either enqueues the job
/// (returning a [`Ticket`]) or rejects it with a typed, retry-after-
/// carrying [`AdmissionError`] when that shard's bounded queue is full.
///
/// Affinity picks a job's queue and its engine, not the thread that runs
/// it: a dispatcher whose own queue is empty takes the next job from a
/// busy peer's queue (popped by that queue's scheduler) and runs it on
/// the peer's engine, so each pattern is still analyzed on one shard and
/// every result is what that shard's engine computes
/// ([`Service::stolen`] counts these jobs). An idle dispatcher sleeps
/// until admission onto its own shard, or onto a busy peer, wakes it.
///
/// A dispatcher recovers from its own panics in place: it breaks its
/// shard, swaps in a fresh engine, requeues what it held, backs off and
/// serves again.
///
/// Dropping the service is a clean shutdown: every queued job is drained
/// (solved or shed) so no ticket is left dangling, then the dispatcher
/// threads are joined.
///
/// ```
/// use acamar_core::{Acamar, AcamarConfig};
/// use acamar_fabric::FabricSpec;
/// use acamar_service::{Service, ServiceConfig, ServiceRequest};
/// use acamar_sparse::generate;
/// use std::sync::Arc;
///
/// let acamar = Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper());
/// let service = Service::<f64>::new(acamar, ServiceConfig::default().with_shards(2));
/// let a = Arc::new(generate::poisson2d::<f64>(12, 12));
/// let ticket = service
///     .submit(ServiceRequest::new(Arc::clone(&a), vec![1.0; a.nrows()]))
///     .unwrap();
/// assert!(ticket.wait().unwrap().converged());
/// ```
pub struct Service<T: Scalar> {
    cfg: ServiceConfig,
    /// Every shard, shared with each dispatcher so an idle one can serve
    /// its peers' queues.
    shards: Arc<[ShardShared<T>]>,
    /// Dispatcher threads, one per shard.
    threads: Vec<JoinHandle<()>>,
    seq: AtomicU64,
    completions: Arc<AtomicU64>,
    /// Admissions per determinism tier, indexed by
    /// [`DeterminismPolicy::ALL`] order (Deterministic, Fast).
    policy_admitted: [AtomicU64; 2],
    sink: TelemetrySink,
    ring: Option<Arc<dyn RingBacked>>,
    /// Service-seam fault accounting (always present; all-zero without a
    /// fault plan).
    ledger: Arc<LedgerInner>,
}

impl<T: Scalar> fmt::Debug for Service<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("shards", &self.shards.len())
            .field("queued", &self.total_queue_depth())
            .finish_non_exhaustive()
    }
}

impl<T: Scalar> Service<T> {
    /// A service over `acamar` with no telemetry and no fault injection.
    pub fn new(acamar: Acamar, cfg: ServiceConfig) -> Service<T> {
        Service::build::<RingRecorder>(acamar, cfg, None, None)
    }

    /// A service whose shards and admission path record into `ring`:
    /// admission/shed/dispatch events and counters from the front-end,
    /// plus every engine-level event from the shards. The ring also
    /// powers [`Service::trace_json`] and the scrape endpoint's
    /// `/trace` route.
    pub fn with_recorder<R: RingBacked + 'static>(
        acamar: Acamar,
        cfg: ServiceConfig,
        ring: Arc<R>,
    ) -> Service<T> {
        Service::build(acamar, cfg, Some(ring), None)
    }

    /// A chaos service: each shard gets its own [`FaultInjector`] derived
    /// from `plan` with a per-shard seed (`seed ^ (shard + 1)`), so
    /// concurrent shard batches never share an injector ledger while the
    /// whole run stays reproducible from one seed. Optionally records
    /// into `ring` as in [`Service::with_recorder`].
    pub fn with_fault_plan<R: RingBacked + 'static>(
        acamar: Acamar,
        cfg: ServiceConfig,
        plan: FaultPlan,
        ring: Option<Arc<R>>,
    ) -> Service<T> {
        Service::build(acamar, cfg, ring, Some(plan))
    }

    fn build<R: RingBacked + 'static>(
        acamar: Acamar,
        cfg: ServiceConfig,
        ring: Option<Arc<R>>,
        faults: Option<FaultPlan>,
    ) -> Service<T> {
        let events = ring.clone().map(|r| r as Arc<dyn Recorder>);
        let cfg = cfg.normalized();
        let completions = Arc::new(AtomicU64::new(0));
        let ledger = Arc::new(LedgerInner::new());
        // The service-seam injector is shared by every shard and keyed by
        // the *global* admission sequence, so a job's fault decisions are
        // stable no matter which shard failover lands it on. Engine seams
        // stay per-shard (below) exactly as before.
        let svc_injector: Option<Arc<FaultInjector>> = faults.as_ref().and_then(|plan| {
            let mut p = FaultPlan::new(plan.seed());
            for cat in FaultCategory::SERVICE {
                p = p.with_rate(cat, plan.rate(cat));
            }
            if p.is_quiet() {
                None
            } else {
                silence_injected_panics();
                Some(Arc::new(FaultInjector::new(p)))
            }
        });
        let shards: Arc<[ShardShared<T>]> = (0..cfg.shards)
            .map(|shard| {
                let mut engine = Engine::with_workers(acamar.clone(), cfg.workers_per_shard)
                    .with_resilience(cfg.resilience.clone());
                if let Some(r) = &events {
                    engine = engine.with_recorder(Arc::clone(r));
                }
                if let Some(plan) = &faults {
                    let mut p = FaultPlan::new(plan.seed() ^ (shard as u64 + 1));
                    for cat in FaultCategory::ENGINE {
                        p = p.with_rate(cat, plan.rate(cat));
                    }
                    engine = engine.with_fault_injection(Arc::new(FaultInjector::new(p)));
                }
                ShardShared {
                    state: Mutex::new(ShardState {
                        sched: Scheduler::new(),
                        paused: false,
                        shutdown: false,
                        crash: false,
                        idle: false,
                        nudged: false,
                    }),
                    cv: Condvar::new(),
                    depth: AtomicUsize::new(0),
                    ema_nanos: AtomicU64::new(0),
                    engine: Mutex::new(Arc::new(engine)),
                    in_flight: Mutex::new(Vec::new()),
                    stolen: AtomicU64::new(0),
                    health: HealthCell::new(),
                    heartbeat: AtomicU64::new(0),
                    restarts: AtomicU64::new(0),
                }
            })
            .collect();
        let sink = match events {
            Some(r) => TelemetrySink::new(r),
            None => TelemetrySink::disabled(),
        };
        let seed = faults.as_ref().map(|p| p.seed()).unwrap_or(0);
        let threads = (0..cfg.shards)
            .map(|me| {
                let dispatcher = Dispatcher {
                    shards: Arc::clone(&shards),
                    me,
                    cfg: cfg.clone(),
                    completions: Arc::clone(&completions),
                    sink: sink.clone(),
                    ledger: Arc::clone(&ledger),
                    faults: svc_injector.clone(),
                    seed,
                };
                std::thread::Builder::new()
                    .name(format!("acamar-dispatch-{me}"))
                    .spawn(move || dispatcher.run())
                    .expect("spawn shard dispatcher")
            })
            .collect();
        Service {
            cfg,
            shards,
            threads,
            seq: AtomicU64::new(0),
            completions,
            policy_admitted: [AtomicU64::new(0), AtomicU64::new(0)],
            sink,
            ring: ring.map(|r| r as Arc<dyn RingBacked>),
            ledger,
        }
    }

    /// The shard `matrix` routes to: [`shard_for`] its pattern's
    /// fingerprint.
    pub fn route(&self, matrix: &CsrMatrix<T>) -> usize {
        shard_for(&PatternFingerprint::of(matrix), self.cfg.shards)
    }

    /// Admits `req` or rejects it with backpressure.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QueueFull`] when the routed shard's queue is at
    /// capacity; the error carries the shard, its depth, and a
    /// retry-after estimate (`depth × EWMA service time / workers`,
    /// floored at [`RETRY_AFTER_FLOOR`]).
    pub fn submit(&self, req: ServiceRequest<T>) -> Result<Ticket<T>, AdmissionError> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let shard = self.admission_shard(&req, seq);
        let shared = &self.shards[shard];
        let mut st = lock_recover(&shared.state);
        let depth = st.sched.len();
        if depth >= self.cfg.queue_capacity {
            drop(st);
            self.sink.with_job(seq).emit(EventKind::JobRejected {
                shard: shard as u16,
                depth: depth as u32,
            });
            self.sink.counter_add(Counter::JobsRejected, 1);
            return Err(AdmissionError::QueueFull {
                shard,
                depth,
                capacity: self.cfg.queue_capacity,
                retry_after: self.retry_after(shard, depth),
            });
        }
        let now = Instant::now();
        let deadline = req.deadline.map(|d| now + d);
        let ticket = Arc::new(TicketState::new());
        st.sched.push(
            req.priority,
            deadline,
            seq,
            now,
            Waiting {
                job: SolveJob {
                    matrix: req.matrix,
                    rhs: req.rhs,
                    policy: req.policy,
                },
                seq,
                admitted_at: now,
                deadline,
                ticket: Arc::clone(&ticket),
                priority: req.priority,
                attempt: 0,
            },
        );
        let depth_now = st.sched.len();
        shared.depth.store(depth_now, Ordering::Relaxed);
        let home_idle = st.idle;
        drop(st);
        shared.cv.notify_one();
        if !home_idle {
            nudge_idle_peer(&self.shards, shard);
        }
        self.sink.with_job(seq).emit(EventKind::JobAdmitted {
            shard: shard as u16,
            depth: depth_now as u32,
        });
        self.sink.counter_add(Counter::JobsAdmitted, 1);
        self.policy_admitted[req.policy.is_fast() as usize].fetch_add(1, Ordering::Relaxed);
        Ok(Ticket {
            state: ticket,
            shard,
            seq,
            tenant: req.tenant,
        })
    }

    fn retry_after(&self, shard: usize, depth: usize) -> Duration {
        let ema = self.shards[shard].ema_nanos.load(Ordering::Relaxed);
        let est = (depth as u64).saturating_mul(ema) / self.cfg.workers_per_shard as u64;
        RETRY_AFTER_FLOOR.max(Duration::from_nanos(est))
    }

    /// The shard admission `seq` actually lands on: the routed shard when
    /// its breaker is closed (the overwhelmingly common path — zero extra
    /// work, zero extra events), otherwise either this request is admitted
    /// as the breaker's half-open probe, or it deterministically spills to
    /// the next live shard in its [`shard_ranking`].
    fn admission_shard(&self, req: &ServiceRequest<T>, seq: u64) -> usize {
        let key = PatternFingerprint::of(&req.matrix);
        let preferred = shard_for(&key, self.cfg.shards);
        let health = &self.shards[preferred].health;
        if health.state() != ShardHealth::Broken {
            return preferred;
        }
        if health.divert_or_probe(preferred, PROBE_AFTER, &self.sink) {
            return preferred;
        }
        let ranking = shard_ranking(&key, self.cfg.shards);
        for &s in ranking.iter().skip(1) {
            if self.shards[s].health.state() != ShardHealth::Broken {
                self.sink.with_job(seq).emit(EventKind::Failover {
                    from: preferred as u16,
                    to: s as u16,
                });
                self.sink.counter_add(Counter::Failovers, 1);
                return s;
            }
        }
        // Every shard is broken: fall back to affinity rather than refuse.
        preferred
    }

    /// Holds every dispatcher: queued jobs stay queued until
    /// [`Service::resume`]. Admission stays open (up to the queue
    /// bounds). The deterministic tests use this to build a known queue
    /// before any dispatch happens.
    pub fn pause(&self) {
        for s in self.shards.iter() {
            lock_recover(&s.state).paused = true;
        }
    }

    /// Releases [`Service::pause`]. Every shard is released before any
    /// dispatcher is woken, so each one's first look at its peers sees
    /// them all unpaused.
    pub fn resume(&self) {
        for s in self.shards.iter() {
            lock_recover(&s.state).paused = false;
        }
        for s in self.shards.iter() {
            s.cv.notify_all();
        }
    }

    /// Number of engine shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The configuration (normalized: counts clamped to their minima).
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Shard `shard`'s engine (its plan cache, counters, and telemetry
    /// are all per-shard). The handle is a snapshot: after a dispatcher
    /// crash its recovery swaps a fresh engine into the shard, so a
    /// long-held handle may describe a retired engine.
    pub fn engine(&self, shard: usize) -> Arc<Engine> {
        Arc::clone(&lock_recover(&self.shards[shard].engine))
    }

    /// Whether shard `shard` already holds a compiled plan for `a`'s
    /// pattern.
    pub fn is_warm(&self, shard: usize, a: &CsrMatrix<T>) -> bool {
        self.engine(shard).is_warm(a)
    }

    /// Shard `shard`'s current supervision state.
    pub fn shard_health(&self, shard: usize) -> ShardHealth {
        self.shards[shard].health.state()
    }

    /// Times shard `shard`'s dispatcher has recovered from a crash.
    pub fn restarts(&self, shard: usize) -> u64 {
        self.shards[shard].restarts.load(Ordering::SeqCst)
    }

    /// Jobs from shard `shard`'s queue that a peer's idle dispatcher took
    /// and ran on shard `shard`'s engine.
    pub fn stolen(&self, shard: usize) -> u64 {
        self.shards[shard].stolen.load(Ordering::Relaxed)
    }

    /// Chaos hook: forces shard `shard`'s breaker open, as if its failure
    /// streak had just opened it. New affinity traffic spills to the
    /// next-ranked shard until the breaker half-opens and a probe succeeds.
    pub fn break_shard(&self, shard: usize) {
        self.shards[shard]
            .health
            .force(shard, ShardHealth::Broken, &self.sink);
    }

    /// Chaos hook: makes shard `shard`'s dispatcher panic at the top of
    /// its next loop (with the shard lock held, so its recovery also has
    /// to survive the poisoned mutex). Queued jobs stay queued; the
    /// recovered dispatcher drains them.
    pub fn crash_shard(&self, shard: usize) {
        silence_injected_panics();
        let s = &self.shards[shard];
        lock_recover(&s.state).crash = true;
        s.cv.notify_all();
    }

    /// Snapshot of the service-seam fault ledger (all-zero without a
    /// fault plan).
    pub fn service_ledger(&self) -> ServiceLedger {
        self.ledger.snapshot()
    }

    /// One-line JSON health summary of every shard (state, queue depth,
    /// restarts, heartbeat) — what the scrape endpoint's `/health` route
    /// serves.
    pub fn health_json(&self) -> String {
        let mut out = String::from("{\"shards\":[");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shard\":{i},\"state\":\"{}\",\"queue\":{},\"restarts\":{},\"heartbeat\":{}}}",
                s.health.state().label(),
                s.depth.load(Ordering::Relaxed),
                s.restarts.load(Ordering::Relaxed),
                s.heartbeat.load(Ordering::Relaxed),
            ));
        }
        out.push_str(&format!("],\"completions\":{}}}", self.completions()));
        out
    }

    /// Queued jobs on one shard.
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.shards[shard].depth.load(Ordering::Relaxed)
    }

    /// Queued jobs across all shards.
    pub fn total_queue_depth(&self) -> usize {
        (0..self.shards.len()).map(|s| self.queue_depth(s)).sum()
    }

    /// Jobs finished (solved, failed, or shed) since construction.
    pub fn completions(&self) -> u64 {
        self.completions.load(Ordering::SeqCst)
    }

    /// Jobs admitted under `policy` since construction.
    fn admitted_for(&self, policy: DeterminismPolicy) -> u64 {
        self.policy_admitted[policy.is_fast() as usize].load(Ordering::Relaxed)
    }

    /// Events the ring recorder dropped on overflow (0 without a ring).
    pub fn dropped_events(&self) -> u64 {
        self.ring.as_ref().map(|r| r.ring().dropped()).unwrap_or(0)
    }

    /// Prometheus text-format snapshot of the whole service: the full
    /// telemetry counter set (when a ring recorder is installed) plus
    /// per-shard labeled jobs/cache-hit/cache-miss counters and queue
    /// gauges. This is what the scrape endpoint's `/metrics` serves.
    pub fn prometheus_text(&self) -> String {
        let mut w = PrometheusWriter::new();
        if let Some(r) = &self.ring {
            w.counters(&r.ring().counters());
        }
        let sample = |f: &dyn Fn(usize) -> u64| -> Vec<(String, u64)> {
            (0..self.shards.len())
                .map(|s| (s.to_string(), f(s)))
                .collect()
        };
        w.counter_samples(
            "acamar_service_shard_jobs_total",
            "Jobs completed per engine shard",
            "shard",
            &sample(&|s| self.engine(s).counters().jobs_completed),
        );
        w.counter_samples(
            "acamar_service_shard_stolen_total",
            "Jobs from a shard's queue that a peer's idle dispatcher ran on that shard's engine",
            "shard",
            &sample(&|s| self.stolen(s)),
        );
        w.counter_samples(
            "acamar_service_shard_cache_hits_total",
            "Plan-cache hits per engine shard",
            "shard",
            &sample(&|s| self.engine(s).counters().cache.hits),
        );
        w.counter_samples(
            "acamar_service_shard_cache_misses_total",
            "Plan-cache misses per engine shard",
            "shard",
            &sample(&|s| self.engine(s).counters().cache.misses),
        );
        w.counter_samples(
            "acamar_service_shard_queue_depth",
            "Queued jobs per shard at scrape time",
            "shard",
            &sample(&|s| self.queue_depth(s) as u64),
        );
        w.counter_samples(
            "acamar_service_shard_restarts_total",
            "Dispatcher respawns per shard",
            "shard",
            &sample(&|s| self.restarts(s)),
        );
        let by_policy: Vec<(String, u64)> = DeterminismPolicy::ALL
            .iter()
            .map(|p| (p.label().to_string(), self.admitted_for(*p)))
            .collect();
        w.counter_samples(
            "acamar_service_requests_total",
            "Jobs admitted per determinism tier",
            "policy",
            &by_policy,
        );
        w.gauge(
            "acamar_service_shards",
            "Engine shards in the service",
            self.shards.len() as f64,
        );
        w.gauge(
            "acamar_service_queue_depth",
            "Queued jobs across all shards at scrape time",
            self.total_queue_depth() as f64,
        );
        w.finish()
    }

    /// Drains the ring recorder's trace as JSON lines (empty without a
    /// ring). This is what the scrape endpoint's `/trace` serves.
    pub fn trace_json(&self) -> String {
        self.ring
            .as_ref()
            .map(|r| json_lines(&r.ring().drain()))
            .unwrap_or_default()
    }
}

impl<T: Scalar> Drop for Service<T> {
    fn drop(&mut self) {
        for s in self.shards.iter() {
            let mut st = lock_recover(&s.state);
            st.shutdown = true;
            st.paused = false;
        }
        for s in self.shards.iter() {
            s.cv.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Why a stranded in-flight job is taking the retry path.
enum RetryWhy {
    /// Its dispatcher panicked mid-wave.
    Restarted,
    /// The `QueueDrop` seam silently lost it between pop and dispatch.
    Dropped,
}

/// The dispatcher's pre-restart sleep: exponential in the restart count
/// (capped at `64 × base`) plus a seed-derived jitter below `base`, so a
/// crash-looping shard backs off deterministically for a given seed.
fn restart_backoff(seed: u64, shard: usize, restarts: u64, base: Duration) -> Duration {
    let base_ns = base.as_nanos() as u64;
    if base_ns == 0 {
        return Duration::ZERO;
    }
    let exp = restarts.saturating_sub(1).min(6) as u32;
    let jitter = mix64(seed ^ ((shard as u64 + 1) << 32) ^ restarts) % base_ns;
    Duration::from_nanos((base_ns << exp).saturating_add(jitter))
}

/// Wakes one idle, unpaused dispatcher other than `busy`'s that has not
/// been asked already, so work queued behind `busy`'s dispatcher does not
/// wait while another dispatcher sleeps. Takes one shard lock at a time.
fn nudge_idle_peer<T: Scalar>(shards: &[ShardShared<T>], busy: usize) {
    let n = shards.len();
    for k in 1..n {
        let peer = &shards[(busy + k) % n];
        let mut st = lock_recover(&peer.state);
        if st.idle && !st.nudged && !st.paused {
            st.nudged = true;
            drop(st);
            peer.cv.notify_one();
            return;
        }
    }
}

/// One job from the first peer queue after `me` (in ring order) that is
/// neither empty nor paused, popped by that queue's own scheduler, so
/// priority classes, deadline order and the starvation bound hold as if
/// the peer's dispatcher had popped it.
fn steal<T: Scalar>(
    shards: &[ShardShared<T>],
    me: usize,
    starvation_bound: Duration,
) -> Option<(usize, Vec<Waiting<T>>)> {
    let n = shards.len();
    (1..n).map(|k| (me + k) % n).find_map(|owner| {
        let peer = &shards[owner];
        if peer.depth.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut st = lock_recover(&peer.state);
        if st.paused {
            return None;
        }
        let w = st.sched.pop(Instant::now(), starvation_bound)?;
        peer.depth.store(st.sched.len(), Ordering::Relaxed);
        Some((owner, vec![w]))
    })
}

/// The next wave for dispatcher `me`, with the shard whose queue it came
/// from: up to `workers_per_shard` jobs from its own queue or, when that
/// is empty and the service is not paused, one job from a peer's queue.
/// With neither, it sleeps until admission onto its own shard, or onto a
/// busy peer while it is idle, wakes it; there is no timed wait. Panics
/// here, shard lock held, on a [`Service::crash_shard`] request. `None` on
/// shutdown once there is nothing left to take.
fn next_wave<T: Scalar>(
    shards: &[ShardShared<T>],
    me: usize,
    cfg: &ServiceConfig,
) -> Option<(usize, Vec<Waiting<T>>)> {
    let own = &shards[me];
    let peers = shards.len() > 1;
    let mut st = lock_recover(&own.state);
    // Look at the peers' queues once before each sleep, and again when
    // nudged during the look.
    let mut look = peers;
    loop {
        if st.crash {
            st.crash = false;
            // Panic with the shard lock held: the poisoned mutex is
            // exactly what the dispatcher's recovery must survive.
            std::panic::panic_any(InjectedPanic { job: u64::MAX });
        }
        if !st.paused && !st.sched.is_empty() {
            st.idle = false;
            let now = Instant::now();
            let mut wave = Vec::with_capacity(cfg.workers_per_shard);
            while wave.len() < cfg.workers_per_shard {
                match st.sched.pop(now, cfg.starvation_bound) {
                    Some(w) => wave.push(w),
                    None => break,
                }
            }
            let left = st.sched.len();
            own.depth.store(left, Ordering::Relaxed);
            drop(st);
            if left > 0 {
                nudge_idle_peer(shards, me);
            }
            return Some((me, wave));
        }
        if !st.paused && (look || st.nudged) {
            st.idle = true;
            st.nudged = false;
            drop(st);
            let stolen = steal(shards, me, cfg.starvation_bound);
            st = lock_recover(&own.state);
            if stolen.is_some() {
                st.idle = false;
                return stolen;
            }
            look = false;
            continue;
        }
        if st.shutdown {
            st.idle = false;
            return None;
        }
        st.idle = true;
        st = own.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        look = peers;
    }
}

/// One shard's dispatcher thread: the shard it serves and what it shares
/// with the service and the other dispatchers.
struct Dispatcher<T: Scalar> {
    shards: Arc<[ShardShared<T>]>,
    me: usize,
    cfg: ServiceConfig,
    completions: Arc<AtomicU64>,
    sink: TelemetrySink,
    ledger: Arc<LedgerInner>,
    /// The service-seam injector (`None` without a fault plan).
    faults: Option<Arc<FaultInjector>>,
    /// The fault plan's seed (0 without one), for the restart backoff.
    seed: u64,
}

impl<T: Scalar> Dispatcher<T> {
    /// The thread body: [`Dispatcher::serve`] until shutdown. A panic out
    /// of it — an injected `DispatcherPanic`, a [`Service::crash_shard`]
    /// chaos call, or a genuine bug — is caught here and recovered from in
    /// place ([`Dispatcher::recover`]), then the loop is entered again.
    fn run(self) {
        while catch_unwind(AssertUnwindSafe(|| self.serve())).is_err() {
            self.recover();
        }
    }

    /// Recovery from a panic out of [`Dispatcher::serve`]. Everything the
    /// loop guards was left consistent *before* the panic seam fired, so
    /// recovery is: breaker forced open, a fresh [`Engine::respawn`]
    /// swapped into the shard's engine slot, every stranded in-flight job
    /// requeued on the queue it was popped from (or its ticket resolved
    /// with a typed error once its retry budget is spent), the restart
    /// counted and emitted, and a deterministic backoff. The loop it
    /// re-enters looks at its peers' queues before it sleeps, so a job
    /// requeued onto a shard already shut down is still drained.
    fn recover(&self) {
        let shared = &self.shards[self.me];
        shared
            .health
            .force(self.me, ShardHealth::Broken, &self.sink);
        let restarts = shared.restarts.fetch_add(1, Ordering::SeqCst) + 1;
        {
            // A crashed dispatcher's engine may hold a cache or buffers
            // entangled with the crash; replace it with a cold equivalent
            // sharing the same injector ledger and telemetry.
            let mut slot = lock_recover(&shared.engine);
            let fresh = slot.respawn();
            *slot = Arc::new(fresh);
        }
        // A job this dispatcher took from a peer goes back to that peer's
        // queue: affinity, not the crash, decides where it runs.
        let stranded: Vec<InFlight<T>> = lock_recover(&shared.in_flight).drain(..).collect();
        for e in stranded {
            self.requeue_or_exhaust(e, RetryWhy::Restarted);
        }
        self.sink.emit(EventKind::DispatcherRestarted {
            shard: self.me as u16,
            restarts: restarts as u32,
        });
        self.sink.counter_add(Counter::DispatcherRestarts, 1);
        let backoff = restart_backoff(self.seed, self.me, restarts, self.cfg.restart_backoff);
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
    }

    /// Puts one stranded in-flight job back on the retry path: requeued on
    /// its owner's queue with its attempt count bumped while the budget
    /// lasts (and while the job payload is still held), otherwise resolved
    /// with the matching typed error so its ticket never hangs.
    fn requeue_or_exhaust(&self, e: InFlight<T>, why: RetryWhy) {
        let shard = e.owner;
        if let Some(job) = e.job {
            if e.attempt < self.cfg.retry_budget {
                let attempt = e.attempt + 1;
                self.sink.with_job(e.seq).emit(EventKind::JobRetried {
                    shard: shard as u16,
                    attempt,
                });
                self.sink.counter_add(Counter::JobsRetried, 1);
                let home = &self.shards[shard];
                let mut st = lock_recover(&home.state);
                st.sched.push(
                    e.priority,
                    e.deadline,
                    e.seq,
                    e.admitted_at,
                    Waiting {
                        job,
                        seq: e.seq,
                        admitted_at: e.admitted_at,
                        deadline: e.deadline,
                        ticket: e.ticket,
                        priority: e.priority,
                        attempt,
                    },
                );
                home.depth.store(st.sched.len(), Ordering::Relaxed);
                drop(st);
                home.cv.notify_one();
                return;
            }
        }
        self.ledger.resolve(e.seq, false);
        let err = match why {
            RetryWhy::Restarted => ServiceError::ShardRestarted {
                shard,
                retries: e.attempt,
            },
            RetryWhy::Dropped => ServiceError::Dropped {
                shard,
                retries: e.attempt,
            },
        };
        let index = self.completions.fetch_add(1, Ordering::SeqCst);
        let waited = e.admitted_at.elapsed();
        e.ticket.fulfill(Err(err), index, waited);
    }

    /// The dispatch loop: take a wave ([`next_wave`]: its own queue first,
    /// else one job from a busy peer's), shed expired-deadline jobs before
    /// they reach a solver, run the rest through the engine of the shard
    /// whose queue they came from, and fulfill tickets in the wave's
    /// submission order. Everything a job touches but the thread —
    /// telemetry shard, health, the EWMA behind retry-after, the engine, a
    /// retry's queue — is its owning shard's. On shutdown the remaining
    /// queue is drained (still shedding what has expired) before it
    /// returns, so every ticket resolves.
    ///
    /// With a service-seam fault injector installed, each wave additionally
    /// rolls the three serving seams between pop and dispatch — stall
    /// (absorbed in place), panic (unwinds out of this loop with the shard
    /// lock held; [`Dispatcher::run`] recovers), and drop (the job silently
    /// vanishes and takes the retry path). Jobs in flight are tracked in
    /// this dispatcher's [`ShardShared::in_flight`] the whole way, which is
    /// what makes all three recoverable without losing a ticket.
    fn serve(&self) {
        let (sink, ledger, completions) = (&self.sink, &self.ledger, &self.completions);
        let shared = &self.shards[self.me];
        while let Some((shard, wave)) = next_wave(&self.shards, self.me, &self.cfg) {
            shared.beat();
            let home = &self.shards[shard];
            if shard != self.me {
                home.stolen.fetch_add(wave.len() as u64, Ordering::Relaxed);
                sink.counter_add(Counter::JobsStolen, wave.len() as u64);
            }
            let now = Instant::now();
            let mut dispatched = 0usize;
            for w in wave {
                let waited = now.saturating_duration_since(w.admitted_at);
                if w.deadline.is_some_and(|d| now >= d) {
                    sink.with_job(w.seq).emit(EventKind::JobShed {
                        shard: shard as u16,
                        waited_nanos: waited.as_nanos() as u64,
                    });
                    sink.counter_add(Counter::JobsShed, 1);
                    ledger.resolve(w.seq, false);
                    let index = completions.fetch_add(1, Ordering::SeqCst);
                    w.ticket
                        .fulfill(Err(ServiceError::Shed { shard, waited }), index, waited);
                    continue;
                }
                sink.with_job(w.seq).emit(EventKind::JobDispatched {
                    shard: shard as u16,
                    wait_nanos: waited.as_nanos() as u64,
                });
                sink.counter_add(Counter::QueueWaitNanos, waited.as_nanos() as u64);
                dispatched += 1;
                lock_recover(&shared.in_flight).push(InFlight {
                    job: Some(w.job),
                    owner: shard,
                    seq: w.seq,
                    attempt: w.attempt,
                    priority: w.priority,
                    admitted_at: w.admitted_at,
                    deadline: w.deadline,
                    ticket: w.ticket,
                    dropped: false,
                });
            }
            if dispatched == 0 {
                continue;
            }
            if let Some(inj) = &self.faults {
                // Stall seam: absorbed in place — the dispatcher wedges, flags
                // the job's shard Suspect, and still delivers the wave.
                let mut stall_ms = 0u64;
                for e in lock_recover(&shared.in_flight).iter() {
                    if let Some(ms) = inj.dispatcher_stall(e.seq, e.attempt as u64) {
                        ledger.absorbed(FaultCategory::DispatcherStall);
                        stall_ms = stall_ms.max(ms);
                    }
                }
                if stall_ms > 0 {
                    home.health.mark_suspect(shard, sink);
                    std::thread::sleep(Duration::from_millis(stall_ms));
                    shared.beat();
                }
                // Panic seam: unwind out of the loop mid-wave, shard lock held.
                let mut panicked = None;
                for e in lock_recover(&shared.in_flight).iter() {
                    if inj.dispatcher_panic(e.seq, e.attempt as u64) {
                        ledger.deferred(FaultCategory::DispatcherPanic, e.seq);
                        panicked.get_or_insert(e.seq);
                    }
                }
                if let Some(job) = panicked {
                    let _poisoner = lock_recover(&shared.state);
                    std::panic::panic_any(InjectedPanic { job });
                }
                // Drop seam: the job silently vanishes between pop and
                // dispatch; the retry path below picks it up.
                for e in lock_recover(&shared.in_flight).iter_mut() {
                    if inj.drop_queued(e.seq, e.attempt as u64) {
                        ledger.deferred(FaultCategory::QueueDrop, e.seq);
                        e.dropped = true;
                    }
                }
            }
            let mut jobs = Vec::with_capacity(dispatched);
            let mut order: Vec<u64> = Vec::with_capacity(dispatched);
            for e in lock_recover(&shared.in_flight).iter_mut() {
                if !e.dropped {
                    if let Some(job) = e.job.take() {
                        jobs.push(job);
                        order.push(e.seq);
                    }
                }
            }
            if !jobs.is_empty() {
                let engine = Arc::clone(&lock_recover(&home.engine));
                let started = Instant::now();
                let report = engine.solve_jobs(jobs);
                let per_job = started.elapsed().as_nanos() as u64 / order.len() as u64;
                let old = home.ema_nanos.load(Ordering::Relaxed);
                let ema = if old == 0 {
                    per_job
                } else {
                    // EWMA with α = 1/4: cheap, integer-only, and responsive
                    // enough for retry-after estimates.
                    old - old / 4 + per_job / 4
                };
                home.ema_nanos.store(ema, Ordering::Relaxed);
                let done = Instant::now();
                for (seq, result) in order.into_iter().zip(report.results) {
                    let e = {
                        let mut inf = lock_recover(&shared.in_flight);
                        let at = inf
                            .iter()
                            .position(|e| e.seq == seq)
                            .expect("in-flight entry for delivered job");
                        inf.remove(at)
                    };
                    ledger.resolve(seq, result.is_ok());
                    match &result {
                        Ok(_) => home.health.record_success(shard, sink),
                        // A rejected input says nothing about the shard: it
                        // neither advances nor resets the failure streak.
                        Err(e) if e.is_invalid_input() => {}
                        Err(_) => home.health.record_failure(shard, sink),
                    }
                    let index = completions.fetch_add(1, Ordering::SeqCst);
                    let latency = done.saturating_duration_since(e.admitted_at);
                    e.ticket
                        .fulfill(result.map_err(ServiceError::Solve), index, latency);
                }
            }
            // Anything still in flight was dropped by the seam (or stranded
            // without its payload): requeue within budget, resolve otherwise.
            let leftovers: Vec<InFlight<T>> = lock_recover(&shared.in_flight).drain(..).collect();
            for e in leftovers {
                self.requeue_or_exhaust(e, RetryWhy::Dropped);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_core::AcamarConfig;
    use acamar_fabric::FabricSpec;
    use acamar_sparse::generate;

    fn acamar() -> Acamar {
        Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper())
    }

    #[test]
    fn submit_and_wait_round_trips() {
        let service = Service::<f64>::new(acamar(), ServiceConfig::default().with_shards(2));
        let a = Arc::new(generate::poisson2d::<f64>(10, 10));
        let ticket = service
            .submit(ServiceRequest::new(Arc::clone(&a), vec![1.0; a.nrows()]))
            .expect("queue empty");
        let shard = ticket.shard();
        assert!(ticket.wait().expect("solves").converged());
        assert!(service.is_warm(shard, &a));
        assert_eq!(service.completions(), 1);
    }

    #[test]
    fn drop_drains_outstanding_tickets() {
        let service = Service::<f64>::new(acamar(), ServiceConfig::default().with_shards(1));
        service.pause();
        let a = Arc::new(generate::poisson2d::<f64>(8, 8));
        let tickets: Vec<_> = (0..4)
            .map(|_| {
                service
                    .submit(ServiceRequest::new(Arc::clone(&a), vec![1.0; a.nrows()]))
                    .expect("under capacity")
            })
            .collect();
        drop(service);
        for t in tickets {
            assert!(t.wait().expect("drained on drop").converged());
        }
    }

    #[test]
    fn fast_policy_round_trips_and_is_metered() {
        let ring = Arc::new(RingRecorder::new(1 << 14));
        let service = Service::<f64>::with_recorder(
            acamar(),
            ServiceConfig::default().with_shards(1),
            Arc::clone(&ring),
        );
        let a = Arc::new(generate::poisson2d::<f64>(10, 10));
        let det = service
            .submit(ServiceRequest::new(Arc::clone(&a), vec![1.0; a.nrows()]))
            .expect("admits deterministic");
        let fast = service
            .submit(
                ServiceRequest::new(Arc::clone(&a), vec![1.0; a.nrows()])
                    .with_policy(DeterminismPolicy::Fast),
            )
            .expect("admits fast");
        let det = det.wait().expect("deterministic solves");
        let fast = fast.wait().expect("fast solves");
        assert!(det.converged() && fast.converged());
        assert_eq!(service.admitted_for(DeterminismPolicy::Deterministic), 1);
        assert_eq!(service.admitted_for(DeterminismPolicy::Fast), 1);
        let text = service.prometheus_text();
        assert!(
            text.contains("acamar_service_requests_total{policy=\"deterministic\"} 1"),
            "deterministic tier metered in:\n{text}"
        );
        assert!(
            text.contains("acamar_service_requests_total{policy=\"fast\"} 1"),
            "fast tier metered in:\n{text}"
        );
        assert_eq!(ring.counters()[Counter::FastTierSolves.index()], 1);
        assert_eq!(ring.counters()[Counter::FastTierConverged.index()], 1);
    }

    #[test]
    fn crash_recovery_survives_poisoned_locks_and_serves_again() {
        let service = Service::<f64>::new(
            acamar(),
            ServiceConfig::default()
                .with_shards(1)
                .with_restart_backoff(Duration::ZERO),
        );
        let a = Arc::new(generate::poisson2d::<f64>(8, 8));
        let t = service
            .submit(ServiceRequest::new(Arc::clone(&a), vec![1.0; a.nrows()]))
            .expect("admits");
        assert!(t.wait().expect("solves").converged());
        service.crash_shard(0);
        // The dispatcher catches its own panic, recovers the poisoned
        // shard lock, swaps in a fresh engine, and serves again.
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.restarts(0) == 0 {
            assert!(Instant::now() < deadline, "dispatcher never restarted");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(service.shard_health(0), ShardHealth::Broken);
        // With no other shard to spill to, the first `PROBE_AFTER - 1`
        // diverted submissions fall back to the broken shard, and the next
        // one probes it, succeeds, and heals it — through the recovered
        // lock.
        for _ in 0..PROBE_AFTER {
            assert_eq!(service.shard_health(0), ShardHealth::Broken);
            let t = service
                .submit(ServiceRequest::new(Arc::clone(&a), vec![1.0; a.nrows()]))
                .expect("admits after crash");
            assert!(t.wait().expect("solves after restart").converged());
        }
        assert_eq!(service.shard_health(0), ShardHealth::Healthy);
        // The respawned engine is cold: the pre-crash warm plan is gone.
        assert_eq!(service.restarts(0), 1);
    }

    #[test]
    fn crash_with_queued_work_loses_nothing() {
        let service = Service::<f64>::new(
            acamar(),
            ServiceConfig::default()
                .with_shards(1)
                .with_queue_capacity(16)
                .with_restart_backoff(Duration::ZERO),
        );
        service.pause();
        let a = Arc::new(generate::poisson2d::<f64>(8, 8));
        let tickets: Vec<_> = (0..8)
            .map(|_| {
                service
                    .submit(ServiceRequest::new(Arc::clone(&a), vec![1.0; a.nrows()]))
                    .expect("under capacity")
            })
            .collect();
        service.crash_shard(0);
        service.resume();
        // Every queued ticket still resolves with a solution: the crash
        // fired before any pop, so the queue survives into the respawned
        // dispatcher.
        for t in tickets {
            assert!(t.wait().expect("survives the crash").converged());
        }
        assert!(service.restarts(0) >= 1);
    }
}
