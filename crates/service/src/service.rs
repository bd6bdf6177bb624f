//! The serving front-end: bounded admission, shard dispatch, tickets.

use crate::config::{Priority, RoutingPolicy, ServiceConfig};
use crate::health::{
    lock_recover, HealthCell, HealthThresholds, LedgerInner, ServiceLedger, ShardHealth,
};
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
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One admission request: a solve job plus its serving metadata.
#[derive(Debug, Clone)]
pub struct ServiceRequest<T> {
    /// Coefficient matrix (shared, so repeat submissions of one system
    /// don't clone the CSR arrays).
    pub matrix: Arc<CsrMatrix<T>>,
    /// Right-hand side.
    pub rhs: Vec<T>,
    /// Optional warm-start guess.
    pub guess: Option<Vec<T>>,
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
    /// Sticky routing fingerprint for sequence-scoped requests. Under
    /// affinity routing the request routes by this fingerprint (the
    /// pattern the sequence was opened on) instead of the submitted
    /// matrix's, so every step of an evolving sequence lands on the one
    /// shard whose plan cache holds the sequence's patched plans.
    /// `None` (the default) routes by the matrix pattern as always.
    pub sequence: Option<PatternFingerprint>,
}

impl<T> ServiceRequest<T> {
    /// A normal-priority, deadline-free request from tenant 0.
    pub fn new(matrix: Arc<CsrMatrix<T>>, rhs: Vec<T>) -> ServiceRequest<T> {
        ServiceRequest {
            matrix,
            rhs,
            guess: None,
            tenant: 0,
            priority: Priority::Normal,
            deadline: None,
            policy: DeterminismPolicy::Deterministic,
            sequence: None,
        }
    }

    /// Sets the warm-start guess.
    pub fn with_guess(mut self, x0: Vec<T>) -> ServiceRequest<T> {
        self.guess = Some(x0);
        self
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

    /// Pins affinity routing to `fingerprint` — typically
    /// [`Sequence::fingerprint`](acamar_engine::Sequence::fingerprint) —
    /// so every step of a sequence keeps going to one shard even as the
    /// pattern drifts.
    pub fn with_sequence(mut self, fingerprint: PatternFingerprint) -> ServiceRequest<T> {
        self.sequence = Some(fingerprint);
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
        /// The shard whose dispatcher crashed.
        shard: usize,
        /// Delivery retries the job consumed before giving up.
        retries: u32,
    },
    /// The job was silently dropped between queue and dispatch (a
    /// `QueueDrop` fault) more times than the retry budget allowed.
    Dropped {
        /// The shard that lost the job.
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
/// in [`ShardShared::in_flight`] so a crashed dispatcher's supervisor can
/// see exactly what was stranded and requeue it.
struct InFlight<T: Scalar> {
    /// `None` once the job has been handed to the engine (a crash after
    /// that point cannot retry the work it no longer holds).
    job: Option<SolveJob<T>>,
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
    /// The shard's engine, in a swappable slot: the supervisor replaces
    /// it with a fresh [`Engine::respawn`] after a dispatcher crash.
    engine: Mutex<Arc<Engine>>,
    /// Jobs popped but not yet resolved; the supervisor's crash-recovery
    /// ledger.
    in_flight: Mutex<Vec<InFlight<T>>>,
    /// The shard's supervision state machine.
    health: HealthCell,
    /// Dispatcher liveness tick, bumped once per wave.
    heartbeat: AtomicU64,
    /// Nanos since `epoch` at the last heartbeat, for the explicit
    /// [`Service::check_stalls`] watchdog.
    heartbeat_at: AtomicU64,
    /// Reference point for `heartbeat_at`.
    epoch: Instant,
    /// Times the supervisor has respawned this shard's dispatcher.
    restarts: AtomicU64,
}

impl<T: Scalar> ShardShared<T> {
    /// Records dispatcher liveness (pure atomics: no telemetry, so the
    /// normalized event stream is untouched).
    fn beat(&self) {
        self.heartbeat.fetch_add(1, Ordering::Relaxed);
        self.heartbeat_at
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

struct ShardState<T: Scalar> {
    sched: Scheduler<Waiting<T>>,
    paused: bool,
    shutdown: bool,
    /// Chaos hook ([`Service::crash_shard`]): the dispatcher panics at
    /// the top of its next loop, exercising the real supervisor path.
    crash: bool,
}

/// The serving front-end over `N` engine shards.
///
/// Construction spawns one dispatcher thread per shard, each owning an
/// [`Engine`] (its own plan cache, workspace pool, and worker threads).
/// [`Service::submit`] routes by the configured [`RoutingPolicy`] —
/// affinity routing sends every repeat of a sparsity pattern to the one
/// shard that already compiled its plan — and either enqueues the job
/// (returning a [`Ticket`]) or rejects it with a typed, retry-after-
/// carrying [`AdmissionError`] when that shard's bounded queue is full.
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
    shards: Vec<Arc<ShardShared<T>>>,
    /// Supervisor threads (one per shard); each owns its dispatcher.
    threads: Vec<JoinHandle<()>>,
    seq: AtomicU64,
    rr: AtomicU64,
    rand: AtomicU64,
    completions: Arc<AtomicU64>,
    /// Admissions per determinism tier, indexed by
    /// [`DeterminismPolicy::ALL`] order (Deterministic, Fast).
    policy_admitted: [AtomicU64; 2],
    sink: TelemetrySink,
    ring: Option<Arc<RingRecorder>>,
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
        Service::build(acamar, cfg, None, None)
    }

    /// A service whose shards and admission path record into `ring`:
    /// admission/shed/dispatch events and counters from the front-end,
    /// plus every engine-level event from the shards. The ring also
    /// powers [`Service::trace_json`] and the scrape endpoint's
    /// `/trace` route.
    pub fn with_recorder(
        acamar: Acamar,
        cfg: ServiceConfig,
        ring: Arc<RingRecorder>,
    ) -> Service<T> {
        Service::build(acamar, cfg, Some(ring), None)
    }

    /// A chaos service: each shard gets its own [`FaultInjector`] derived
    /// from `plan` with a per-shard seed (`seed ^ (shard + 1)`), so
    /// concurrent shard batches never share an injector ledger while the
    /// whole run stays reproducible from one seed. Optionally records
    /// into `ring` as in [`Service::with_recorder`].
    pub fn with_fault_plan(
        acamar: Acamar,
        cfg: ServiceConfig,
        plan: FaultPlan,
        ring: Option<Arc<RingRecorder>>,
    ) -> Service<T> {
        Service::build(acamar, cfg, ring, Some(plan))
    }

    fn build(
        acamar: Acamar,
        cfg: ServiceConfig,
        ring: Option<Arc<RingRecorder>>,
        faults: Option<FaultPlan>,
    ) -> Service<T> {
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
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut threads = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let mut engine = Engine::with_workers(acamar.clone(), cfg.workers_per_shard)
                .with_resilience(cfg.resilience.clone());
            if let Some(r) = &ring {
                engine = engine.with_recorder(Arc::clone(r) as Arc<dyn Recorder>);
            }
            if let Some(plan) = &faults {
                let mut p = FaultPlan::new(plan.seed() ^ (shard as u64 + 1));
                for cat in FaultCategory::ENGINE {
                    p = p.with_rate(cat, plan.rate(cat));
                }
                engine = engine.with_fault_injection(Arc::new(FaultInjector::new(p)));
            }
            let shared = Arc::new(ShardShared {
                state: Mutex::new(ShardState {
                    sched: Scheduler::new(),
                    paused: false,
                    shutdown: false,
                    crash: false,
                }),
                cv: Condvar::new(),
                depth: AtomicUsize::new(0),
                ema_nanos: AtomicU64::new(0),
                engine: Mutex::new(Arc::new(engine)),
                in_flight: Mutex::new(Vec::new()),
                health: HealthCell::new(),
                heartbeat: AtomicU64::new(0),
                heartbeat_at: AtomicU64::new(0),
                epoch: Instant::now(),
                restarts: AtomicU64::new(0),
            });
            let seed = faults.as_ref().map(|p| p.seed()).unwrap_or(0);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("acamar-supervise-{shard}"))
                    .spawn({
                        let shared = Arc::clone(&shared);
                        let cfg = cfg.clone();
                        let completions = Arc::clone(&completions);
                        let ring = ring.clone();
                        let ledger = Arc::clone(&ledger);
                        let svc_injector = svc_injector.clone();
                        move || {
                            supervise(
                                shared,
                                shard,
                                cfg,
                                completions,
                                ring,
                                ledger,
                                svc_injector,
                                seed,
                            )
                        }
                    })
                    .expect("spawn shard supervisor"),
            );
            shards.push(shared);
        }
        let sink = match &ring {
            Some(r) => TelemetrySink::new(Arc::clone(r) as Arc<dyn Recorder>),
            None => TelemetrySink::disabled(),
        };
        let rand_seed = match cfg.routing {
            RoutingPolicy::Random { seed } => seed,
            _ => 0,
        };
        Service {
            cfg,
            shards,
            threads,
            seq: AtomicU64::new(0),
            rr: AtomicU64::new(0),
            rand: AtomicU64::new(rand_seed),
            completions,
            policy_admitted: [AtomicU64::new(0), AtomicU64::new(0)],
            sink,
            ring,
            ledger,
        }
    }

    /// Routes a matrix under the configured policy. Affinity is a pure
    /// function of the pattern ([`shard_for`]); the stateful policies
    /// (round-robin, random) advance their cursor on every call.
    pub fn route(&self, matrix: &CsrMatrix<T>) -> usize {
        match self.cfg.routing {
            RoutingPolicy::Affinity => shard_for(&PatternFingerprint::of(matrix), self.cfg.shards),
            RoutingPolicy::RoundRobin => {
                (self.rr.fetch_add(1, Ordering::Relaxed) % self.cfg.shards as u64) as usize
            }
            RoutingPolicy::Random { .. } => {
                let n = self
                    .rand
                    .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
                    .wrapping_add(0x9e37_79b9_7f4a_7c15);
                (mix64(n) % self.cfg.shards as u64) as usize
            }
        }
    }

    /// [`Service::route`] for a full request: under affinity routing a
    /// sticky [`ServiceRequest::sequence`] fingerprint takes precedence
    /// over the matrix's own pattern, so an evolving sequence's steps all
    /// land on the shard that holds its plans. Without a sticky
    /// fingerprint this is exactly [`Service::route`].
    pub fn route_request(&self, req: &ServiceRequest<T>) -> usize {
        if let (RoutingPolicy::Affinity, Some(fp)) = (&self.cfg.routing, &req.sequence) {
            return shard_for(fp, self.cfg.shards);
        }
        self.route(&req.matrix)
    }

    /// Admits `req` or rejects it with backpressure.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QueueFull`] when the routed shard's queue is at
    /// capacity; the error carries the shard, its depth, and a
    /// retry-after estimate (`depth × EWMA service time / workers`,
    /// floored at [`ServiceConfig::retry_after_floor`]).
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
                    guess: req.guess,
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
        drop(st);
        shared.cv.notify_one();
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
        self.cfg.retry_after_floor.max(Duration::from_nanos(est))
    }

    fn thresholds(&self) -> HealthThresholds {
        HealthThresholds {
            suspect_after: self.cfg.suspect_after,
            break_after: self.cfg.break_after,
            probe_after: self.cfg.probe_after,
        }
    }

    /// The shard admission `seq` actually lands on: the routed shard when
    /// its breaker is closed (the overwhelmingly common path — zero extra
    /// work, zero extra events), otherwise either this request is admitted
    /// as the breaker's half-open probe, or it deterministically spills to
    /// the next-ranked live shard ([`shard_ranking`] under affinity
    /// routing, cyclic order otherwise).
    fn admission_shard(&self, req: &ServiceRequest<T>, seq: u64) -> usize {
        let preferred = self.route_request(req);
        let health = &self.shards[preferred].health;
        if health.state() != ShardHealth::Broken {
            return preferred;
        }
        if health.divert_or_probe(preferred, self.thresholds(), &self.sink) {
            return preferred;
        }
        let ranking: Vec<usize> = match self.cfg.routing {
            RoutingPolicy::Affinity => {
                let fp = req
                    .sequence
                    .unwrap_or_else(|| PatternFingerprint::of(&req.matrix));
                shard_ranking(&fp, self.cfg.shards)
            }
            _ => (0..self.cfg.shards)
                .map(|k| (preferred + k) % self.cfg.shards)
                .collect(),
        };
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
        for s in &self.shards {
            lock_recover(&s.state).paused = true;
        }
    }

    /// Releases [`Service::pause`].
    pub fn resume(&self) {
        for s in &self.shards {
            lock_recover(&s.state).paused = false;
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
    /// crash the supervisor swaps a fresh engine into the shard, so a
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

    /// Shard `shard`'s dispatcher liveness tick (bumped once per wave).
    pub fn heartbeat(&self, shard: usize) -> u64 {
        self.shards[shard].heartbeat.load(Ordering::Relaxed)
    }

    /// Times shard `shard`'s dispatcher has been respawned after a crash.
    pub fn restarts(&self, shard: usize) -> u64 {
        self.shards[shard].restarts.load(Ordering::SeqCst)
    }

    /// The heartbeat watchdog: flags `Suspect` every `Healthy` shard that
    /// has queued work but whose dispatcher has not beaten for at least
    /// `stale_after`. Returns how many shards were flagged.
    ///
    /// This is the *only* wall-clock path into the health state machine,
    /// and it runs only when explicitly called — deterministic replays
    /// simply never call it, so their health transitions stay a pure
    /// function of the admission sequence. Note a paused shard with
    /// queued work looks stalled to this watchdog.
    pub fn check_stalls(&self, stale_after: Duration) -> usize {
        let mut flagged = 0;
        for (shard, s) in self.shards.iter().enumerate() {
            if s.depth.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let last = Duration::from_nanos(s.heartbeat_at.load(Ordering::Relaxed));
            if s.epoch.elapsed().saturating_sub(last) >= stale_after
                && s.health.mark_suspect(shard, &self.sink)
            {
                flagged += 1;
            }
        }
        flagged
    }

    /// Chaos hook: forces shard `shard`'s breaker open, as if its failure
    /// streak had just crossed [`ServiceConfig::break_after`]. New
    /// affinity traffic spills to the next-ranked shard until the breaker
    /// half-opens and a probe succeeds.
    pub fn break_shard(&self, shard: usize) {
        self.shards[shard]
            .health
            .force(shard, ShardHealth::Broken, &self.sink);
    }

    /// Chaos hook: makes shard `shard`'s dispatcher panic at the top of
    /// its next loop (with the shard lock held, so the supervisor's
    /// recovery also has to survive the poisoned mutex). Queued jobs stay
    /// queued; the respawned dispatcher drains them.
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
    pub fn admitted_for(&self, policy: DeterminismPolicy) -> u64 {
        self.policy_admitted[policy.is_fast() as usize].load(Ordering::Relaxed)
    }

    /// Events the ring recorder dropped on overflow (0 without a ring).
    pub fn dropped_events(&self) -> u64 {
        self.ring.as_ref().map(|r| r.dropped()).unwrap_or(0)
    }

    /// The installed ring recorder, if any.
    pub fn ring(&self) -> Option<&Arc<RingRecorder>> {
        self.ring.as_ref()
    }

    /// Prometheus text-format snapshot of the whole service: the full
    /// telemetry counter set (when a ring recorder is installed) plus
    /// per-shard labeled jobs/cache-hit/cache-miss counters and queue
    /// gauges. This is what the scrape endpoint's `/metrics` serves.
    pub fn prometheus_text(&self) -> String {
        let mut w = PrometheusWriter::new();
        if let Some(ring) = &self.ring {
            w.counters(&ring.counters());
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
            .map(|r| json_lines(&r.drain()))
            .unwrap_or_default()
    }
}

impl<T: Scalar> Drop for Service<T> {
    fn drop(&mut self) {
        for s in &self.shards {
            let mut st = lock_recover(&s.state);
            st.shutdown = true;
            st.paused = false;
            drop(st);
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

/// Puts one stranded in-flight job back on the retry path: requeued with
/// its attempt count bumped while the budget lasts (and while the job
/// payload is still held), otherwise resolved with the matching typed
/// error so its ticket never hangs.
#[allow(clippy::too_many_arguments)]
fn requeue_or_exhaust<T: Scalar>(
    st: &mut ShardState<T>,
    e: InFlight<T>,
    shard: usize,
    cfg: &ServiceConfig,
    completions: &AtomicU64,
    sink: &TelemetrySink,
    ledger: &LedgerInner,
    why: RetryWhy,
) {
    if let Some(job) = e.job {
        if e.attempt < cfg.retry_budget {
            let attempt = e.attempt + 1;
            sink.with_job(e.seq).emit(EventKind::JobRetried {
                shard: shard as u16,
                attempt,
            });
            sink.counter_add(Counter::JobsRetried, 1);
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
            return;
        }
    }
    ledger.resolve(e.seq, false);
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
    let index = completions.fetch_add(1, Ordering::SeqCst);
    let waited = e.admitted_at.elapsed();
    e.ticket.fulfill(Err(err), index, waited);
}

/// The supervisor's pre-respawn sleep: exponential in the restart count
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

/// One shard's supervisor: spawns the dispatcher thread and, if it ever
/// crashes (an injected `DispatcherPanic`, a [`Service::crash_shard`]
/// chaos call, or a genuine bug), recovers — breaker forced open, a fresh
/// [`Engine::respawn`] swapped into the shard's engine slot, every
/// stranded in-flight job requeued (or its ticket resolved with a typed
/// error once its retry budget is spent), telemetry emitted — and then
/// respawns the dispatcher after a deterministic backoff. Returns when
/// the dispatcher exits cleanly (service shutdown).
#[allow(clippy::too_many_arguments)]
fn supervise<T: Scalar>(
    shared: Arc<ShardShared<T>>,
    shard: usize,
    cfg: ServiceConfig,
    completions: Arc<AtomicU64>,
    ring: Option<Arc<RingRecorder>>,
    ledger: Arc<LedgerInner>,
    faults: Option<Arc<FaultInjector>>,
    seed: u64,
) {
    let sink = match &ring {
        Some(r) => TelemetrySink::new(Arc::clone(r) as Arc<dyn Recorder>),
        None => TelemetrySink::disabled(),
    };
    loop {
        let handle = std::thread::Builder::new()
            .name(format!("acamar-dispatch-{shard}"))
            .spawn({
                let shared = Arc::clone(&shared);
                let cfg = cfg.clone();
                let completions = Arc::clone(&completions);
                let ring = ring.clone();
                let ledger = Arc::clone(&ledger);
                let faults = faults.clone();
                move || dispatcher(shared, shard, cfg, completions, ring, ledger, faults)
            })
            .expect("spawn shard dispatcher");
        if handle.join().is_ok() {
            return;
        }
        // The dispatcher panicked. Everything it guarded was left
        // consistent *before* the panic seam fired, so recovery is:
        // account, re-equip, requeue, respawn.
        let restarts = shared.restarts.fetch_add(1, Ordering::SeqCst) + 1;
        shared.health.force(shard, ShardHealth::Broken, &sink);
        {
            // A crashed dispatcher's engine may hold wedged worker state;
            // replace it with a cold equivalent sharing the same injector
            // ledger and telemetry.
            let mut slot = lock_recover(&shared.engine);
            let fresh = slot.respawn();
            *slot = Arc::new(fresh);
        }
        {
            let mut st = lock_recover(&shared.state);
            let stranded: Vec<InFlight<T>> = lock_recover(&shared.in_flight).drain(..).collect();
            for e in stranded {
                requeue_or_exhaust(
                    &mut st,
                    e,
                    shard,
                    &cfg,
                    &completions,
                    &sink,
                    &ledger,
                    RetryWhy::Restarted,
                );
            }
            shared.depth.store(st.sched.len(), Ordering::Relaxed);
        }
        sink.emit(EventKind::DispatcherRestarted {
            shard: shard as u16,
            restarts: restarts as u32,
        });
        sink.counter_add(Counter::DispatcherRestarts, 1);
        let backoff = restart_backoff(seed, shard, restarts, cfg.restart_backoff);
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        shared.cv.notify_all();
    }
}

/// One shard's dispatcher loop: wait for work, pop a wave (up to the
/// shard's worker count), shed expired-deadline jobs before they reach a
/// solver, run the rest through the shard engine, and fulfill tickets in
/// the wave's submission order. On shutdown the remaining queue is
/// drained (still shedding what has expired) before the thread exits, so
/// every ticket resolves.
///
/// With a service-seam fault injector installed, each wave additionally
/// rolls the three serving seams between pop and dispatch — stall
/// (absorbed in place), panic (kills this thread with the shard lock
/// held; the supervisor recovers), and drop (the job silently vanishes
/// and takes the retry path). Jobs in flight are tracked in
/// [`ShardShared::in_flight`] the whole way, which is what makes all
/// three recoverable without losing a ticket.
fn dispatcher<T: Scalar>(
    shared: Arc<ShardShared<T>>,
    shard: usize,
    cfg: ServiceConfig,
    completions: Arc<AtomicU64>,
    ring: Option<Arc<RingRecorder>>,
    ledger: Arc<LedgerInner>,
    faults: Option<Arc<FaultInjector>>,
) {
    let sink = match ring {
        Some(r) => TelemetrySink::new(r as Arc<dyn Recorder>),
        None => TelemetrySink::disabled(),
    };
    let th = HealthThresholds {
        suspect_after: cfg.suspect_after,
        break_after: cfg.break_after,
        probe_after: cfg.probe_after,
    };
    loop {
        let wave = {
            let mut st = lock_recover(&shared.state);
            loop {
                if st.shutdown || st.crash || (!st.paused && !st.sched.is_empty()) {
                    break;
                }
                st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.crash {
                st.crash = false;
                // Panic with the shard lock held: the poisoned mutex is
                // exactly what the supervisor's recovery must survive.
                std::panic::panic_any(InjectedPanic { job: u64::MAX });
            }
            if st.shutdown && st.sched.is_empty() {
                return;
            }
            let now = Instant::now();
            let mut wave = Vec::with_capacity(cfg.workers_per_shard);
            while wave.len() < cfg.workers_per_shard {
                match st.sched.pop(now, cfg.starvation_bound) {
                    Some(w) => wave.push(w),
                    None => break,
                }
            }
            shared.depth.store(st.sched.len(), Ordering::Relaxed);
            wave
        };
        shared.beat();
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
        if let Some(inj) = &faults {
            // Stall seam: absorbed in place — the dispatcher wedges, flags
            // itself Suspect, and still delivers the wave.
            let mut stall_ms = 0u64;
            for e in lock_recover(&shared.in_flight).iter() {
                if let Some(ms) = inj.dispatcher_stall(e.seq, e.attempt as u64) {
                    ledger.absorbed(FaultCategory::DispatcherStall);
                    stall_ms = stall_ms.max(ms);
                }
            }
            if stall_ms > 0 {
                shared.health.mark_suspect(shard, &sink);
                std::thread::sleep(Duration::from_millis(stall_ms));
                shared.beat();
            }
            // Panic seam: kill this thread mid-wave, shard lock held.
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
            let engine = Arc::clone(&lock_recover(&shared.engine));
            let started = Instant::now();
            let report = engine.solve_jobs(jobs);
            let per_job = started.elapsed().as_nanos() as u64 / order.len() as u64;
            let old = shared.ema_nanos.load(Ordering::Relaxed);
            let ema = if old == 0 {
                per_job
            } else {
                // EWMA with α = 1/4: cheap, integer-only, and responsive
                // enough for retry-after estimates.
                old - old / 4 + per_job / 4
            };
            shared.ema_nanos.store(ema, Ordering::Relaxed);
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
                let ok = result.is_ok();
                ledger.resolve(seq, ok);
                if ok {
                    shared.health.record_success(shard, &sink);
                } else {
                    shared.health.record_failure(shard, th, &sink);
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
        if !leftovers.is_empty() {
            let mut st = lock_recover(&shared.state);
            for e in leftovers {
                requeue_or_exhaust(
                    &mut st,
                    e,
                    shard,
                    &cfg,
                    &completions,
                    &sink,
                    &ledger,
                    RetryWhy::Dropped,
                );
            }
            shared.depth.store(st.sched.len(), Ordering::Relaxed);
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
    fn sequence_fingerprint_pins_affinity_routing() {
        let service = Service::<f64>::new(acamar(), ServiceConfig::default().with_shards(4));
        let opened = Arc::new(generate::poisson2d::<f64>(10, 10));
        let fp = PatternFingerprint::of(&opened);
        let home = service.route(&opened);
        // A drifted step matrix (different pattern, maybe a different
        // natural shard) still routes to the sequence's home shard when
        // tagged with the open fingerprint...
        let drifted = Arc::new(generate::poisson2d::<f64>(11, 11));
        let tagged =
            ServiceRequest::new(Arc::clone(&drifted), vec![1.0; drifted.nrows()]).with_sequence(fp);
        assert_eq!(service.route_request(&tagged), home);
        // ...while an untagged request keeps the pattern's own route.
        let untagged = ServiceRequest::new(Arc::clone(&drifted), vec![1.0; drifted.nrows()]);
        assert_eq!(service.route_request(&untagged), service.route(&drifted));
        // End to end: admission honors the sticky shard and still solves.
        let ticket = service.submit(tagged).expect("queue empty");
        assert_eq!(ticket.shard(), home);
        assert!(ticket.wait().expect("solves").converged());
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
    fn round_robin_cycles_shards() {
        let service = Service::<f64>::new(
            acamar(),
            ServiceConfig::default()
                .with_shards(3)
                .with_routing(RoutingPolicy::RoundRobin),
        );
        let a = generate::poisson2d::<f64>(6, 6);
        let picks: Vec<usize> = (0..6).map(|_| service.route(&a)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn crash_recovery_survives_poisoned_locks_and_serves_again() {
        let service = Service::<f64>::new(
            acamar(),
            ServiceConfig::default()
                .with_shards(1)
                .with_probe_after(1)
                .with_restart_backoff(Duration::ZERO),
        );
        let a = Arc::new(generate::poisson2d::<f64>(8, 8));
        let t = service
            .submit(ServiceRequest::new(Arc::clone(&a), vec![1.0; a.nrows()]))
            .expect("admits");
        assert!(t.wait().expect("solves").converged());
        service.crash_shard(0);
        // The supervisor notices the crash, recovers the poisoned shard
        // lock, swaps in a fresh engine, and respawns the dispatcher.
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.restarts(0) == 0 {
            assert!(Instant::now() < deadline, "supervisor never restarted");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(service.shard_health(0), ShardHealth::Broken);
        // probe_after = 1: the next submission probes the broken shard,
        // succeeds, and heals it — through the recovered lock.
        let t = service
            .submit(ServiceRequest::new(Arc::clone(&a), vec![1.0; a.nrows()]))
            .expect("admits after crash");
        assert!(t.wait().expect("solves after restart").converged());
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

    #[test]
    fn random_routing_is_seed_deterministic() {
        let mk = || {
            Service::<f64>::new(
                acamar(),
                ServiceConfig::default()
                    .with_shards(4)
                    .with_routing(RoutingPolicy::Random { seed: 7 }),
            )
        };
        let a = generate::poisson2d::<f64>(6, 6);
        let s1 = mk();
        let s2 = mk();
        let p1: Vec<usize> = (0..16).map(|_| s1.route(&a)).collect();
        let p2: Vec<usize> = (0..16).map(|_| s2.route(&a)).collect();
        assert_eq!(p1, p2);
        assert!(
            p1.iter().any(|&s| s != p1[0]),
            "spreads over shards: {p1:?}"
        );
    }
}
