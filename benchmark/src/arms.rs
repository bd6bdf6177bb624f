//! Set-up and the untraced run: the end-to-end metrics.
//!
//! Every workload runs the same four arms over its own pool, one pass of
//! each per cycle so that slow drift of the host touches all arms alike:
//!
//! * `front` — closed loop through the workload's front door
//!   (`Engine::solve_one` with one client, or the two-shard `Service` with
//!   two clients keeping four tickets outstanding), Deterministic tier;
//! * `batch` — one `Engine::solve_jobs` batch on two workers;
//! * `fast` — the front door again with `DeterminismPolicy::Fast`;
//! * `pcg` — the pool's SPD systems through `run_with_plan_opts` forced to
//!   IC(0)-preconditioned CG.
//!
//! A pass is a fixed operation count; a run is as many cycles as fit in
//! the time budget. Every timing metric is a median over passes (or over a
//! system's samples), so it does not depend on how many cycles ran.

use crate::inputs::{build_pool, Pool, Request, Scale, Stream, Workload};
use crate::stats;
use acamar::core::{Acamar, AcamarConfig, AcamarRunReport, AnalysisArtifacts, RunOptions};
use acamar::engine::{Engine, SolveJob};
use acamar::fabric::FabricSpec;
use acamar::service::{Service, ServiceConfig, ServiceRequest, Ticket};
use acamar::solvers::{SolverKind, WorkspaceHandle};
use acamar::sparse::{CsrMatrix, DeterminismPolicy};
use std::collections::VecDeque;
use std::fmt::Display;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine workers, service shards and client threads. Fixed, not detected,
/// so that runs compare across hosts.
pub const WORKERS: usize = 2;
pub const SHARDS: usize = 2;
pub const CLIENTS: usize = 2;
/// Tickets each service client keeps outstanding.
pub const OUTSTANDING: usize = 4;
/// Largest warm-up wave sent to the service, well under its queue bound so
/// that set-up itself is never refused.
const WARM_WAVE: usize = 32;
/// A solve fails the output check when its true relative residual exceeds
/// this multiple of the tolerance.
pub const RESIDUAL_SLACK: f64 = 10.0;

/// The accelerator under test: the paper's device and configuration.
pub fn acamar() -> Acamar {
    Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper())
}

/// `‖b − A x‖₂ / ‖b‖₂`, computed by the benchmark from the CSR rows.
pub fn rel_residual(a: &CsrMatrix<f64>, x: &[f64], b: &[f64]) -> f64 {
    let (mut rr, mut bb) = (0.0f64, 0.0f64);
    for (i, &bi) in b.iter().enumerate() {
        let (cols, vals) = a.row(i);
        let ax: f64 = cols.iter().zip(vals).map(|(&c, &v)| v * x[c]).sum();
        rr += (bi - ax) * (bi - ax);
        bb += bi * bi;
    }
    (rr / bb).sqrt()
}

/// Requests per pass of each arm (per client where the front door is the
/// service), and how often a solution is kept for the residual check.
#[derive(Debug, Clone, Copy)]
pub struct PassSizes {
    pub front: usize,
    pub batch: usize,
    pub fast: usize,
    pub pcg: usize,
    /// Check every `check_every`-th solve of an arm (1 = every solve).
    pub check_every: u64,
}

impl PassSizes {
    pub fn of(workload: Workload, scale: Scale) -> PassSizes {
        let (front, batch, fast, pcg, check_every) = match (workload, scale) {
            (Workload::Table2Warm, Scale::Full) => (200, 200, 100, 68, 16),
            (Workload::StencilLong, _) => (7, 7, 7, 4, 1),
            (Workload::ColdPatterns, Scale::Full) => (96, 96, 48, 24, 16),
            (Workload::ServiceMixed, Scale::Full) => (200, 400, 100, 34, 16),
            (Workload::Table2Warm, Scale::Smoke) => (4, 4, 2, 2, 2),
            (Workload::ColdPatterns, Scale::Smoke) => (6, 6, 6, 2, 2),
            (Workload::ServiceMixed, Scale::Smoke) => (6, 12, 6, 2, 2),
        };
        PassSizes {
            front,
            batch,
            fast,
            pcg,
            check_every,
        }
    }
}

/// Everything set-up builds: the pool, a two-worker engine, the service
/// where it is the front door, and the SPD systems' plans.
pub struct Rig {
    pub workload: Workload,
    pub scale: Scale,
    pub acamar: Acamar,
    pub pool: Pool,
    pub engine: Engine,
    pub service: Option<Service<f64>>,
    /// Plans of the SPD systems, built in set-up. Empty on `cold_patterns`,
    /// where analysis is part of every request.
    pub plans: Vec<Option<Arc<AnalysisArtifacts>>>,
    /// Warm-up solves that failed; counted into the run's `failed`.
    pub warmup_failed: u64,
    pub warmup_attempted: u64,
    /// Plan-cache misses (engine, then service shards) when set-up ended.
    /// A warm workload must end its run with the same numbers.
    pub warmup_misses: (u64, u64),
}

impl Rig {
    /// Whether the plan cache is meant to miss on every request.
    pub fn cold(&self) -> bool {
        self.workload == Workload::ColdPatterns
    }

    /// Plan-cache misses summed over the service's shard engines.
    pub fn shard_misses(&self) -> u64 {
        self.service.as_ref().map_or(0, |s| {
            (0..SHARDS)
                .map(|shard| s.engine(shard).counters().cache.misses)
                .sum()
        })
    }
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(SHARDS)
        .with_workers_per_shard(1)
}

/// Generation + construction + warm-up. Timed by the caller as `setup_s`.
pub fn setup(workload: Workload, seed: u64, scale: Scale) -> Rig {
    let acamar = acamar();
    let pool = build_pool(workload, seed, scale);
    let engine = Engine::with_workers(acamar.clone(), WORKERS);
    engine.cache().set_capacity(workload.cache_capacity(scale));
    let mut rig = Rig {
        workload,
        scale,
        acamar,
        pool,
        engine,
        service: None,
        plans: Vec::new(),
        warmup_failed: 0,
        warmup_attempted: 0,
        warmup_misses: (0, 0),
    };
    if rig.cold() {
        return rig;
    }
    // Warm both tiers' plans and the workers' buffer pools with one batch.
    let jobs: Vec<SolveJob<f64>> = rig
        .pool
        .systems
        .iter()
        .flat_map(|s| {
            [DeterminismPolicy::Deterministic, DeterminismPolicy::Fast]
                .map(|p| SolveJob::new(Arc::clone(&s.a), s.rhs[0].clone()).with_policy(p))
        })
        .collect();
    rig.warmup_attempted += jobs.len() as u64;
    let report = rig.engine.solve_jobs(jobs);
    rig.warmup_failed += (report.jobs() - report.converged) as u64;
    rig.plans = rig
        .pool
        .systems
        .iter()
        .map(|s| {
            s.spd
                .then(|| rig.engine.cache().get_or_analyze(&rig.acamar, &s.a))
        })
        .collect();
    if workload == Workload::ServiceMixed {
        let service = Service::new(rig.acamar.clone(), service_config());
        let (attempted, failed) = warm_service(&service, &rig.pool);
        rig.warmup_attempted += attempted;
        rig.warmup_failed += failed;
        rig.service = Some(service);
    }
    rig.warmup_misses = (rig.engine.counters().cache.misses, rig.shard_misses());
    rig
}

/// Sends every system once per tier through `service`, in waves small
/// enough never to be refused. Returns `(attempted, failed)`.
pub fn warm_service(service: &Service<f64>, pool: &Pool) -> (u64, u64) {
    let requests: Vec<ServiceRequest<f64>> = pool
        .systems
        .iter()
        .flat_map(|s| {
            [DeterminismPolicy::Deterministic, DeterminismPolicy::Fast]
                .map(|p| ServiceRequest::new(Arc::clone(&s.a), s.rhs[0].clone()).with_policy(p))
        })
        .collect();
    let attempted = requests.len() as u64;
    let mut failed = 0;
    let mut requests = requests.into_iter().peekable();
    while requests.peek().is_some() {
        let wave: Vec<_> = requests
            .by_ref()
            .take(WARM_WAVE)
            .map(|r| service.submit(r))
            .collect();
        for ticket in wave {
            let ok = ticket.is_ok_and(|t| t.wait().is_ok_and(|r| r.converged()));
            failed += u64::from(!ok);
        }
    }
    (attempted, failed)
}

/// Exact counts of one solve, as the program reports them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counts {
    pub iterations: u64,
    /// Simulated fabric cycles (`stats.cycles.total()`), not host time.
    pub modeled_cycles: u64,
    /// Simulated SpMV slot waste, paper Eq. 5.
    pub underutilization: f64,
}

/// One completed (or refused) request.
pub struct Done {
    pub req: Request,
    pub latency_ns: u64,
    /// `Err` carries the error, refusal or non-convergence as text.
    pub outcome: Result<Counts, String>,
    /// The solution, where this request was picked for the residual check.
    pub solution: Option<Vec<f64>>,
}

impl Done {
    pub fn new<E: Display>(
        req: Request,
        latency: Duration,
        result: Result<AcamarRunReport<f64>, E>,
        keep: bool,
    ) -> Done {
        let (outcome, solution) = match result {
            Ok(r) if r.converged() => (
                Ok(Counts {
                    iterations: r.attempts.iter().map(|a| a.iterations as u64).sum(),
                    modeled_cycles: r.stats.cycles.total(),
                    underutilization: r.stats.spmv.underutilization(),
                }),
                keep.then_some(r.solve.solution),
            ),
            Ok(r) => (
                Err(format!("did not converge: {:?}", r.solve.outcome)),
                None,
            ),
            Err(e) => (Err(e.to_string()), None),
        };
        Done {
            req,
            latency_ns: latency.as_nanos() as u64,
            outcome,
            solution,
        }
    }
}

/// Attempted/failed counts and the first-seen exact counts per system.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub checked: u64,
    pub worst_residual: f64,
    /// Counts of each system's first front-arm solve. Right-hand sides
    /// differ only by a power of two, so later solves of a system repeat
    /// them exactly and the per-system value does not depend on run length.
    pub first_seen: Vec<Option<Counts>>,
    /// First few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Counts `dones`, runs the residual check on the kept solutions, and
    /// (for the front arm) records first-seen counts.
    pub fn absorb(&mut self, rig: &Rig, arm: &str, dones: &[Done], front: bool) {
        let limit = RESIDUAL_SLACK * rig.acamar.config().criteria.tolerance;
        self.first_seen.resize(rig.pool.systems.len(), None);
        for d in dones {
            self.attempted += 1;
            let sys = &rig.pool.systems[d.req.sys as usize];
            match &d.outcome {
                Err(e) => self.fail(format!("{arm}: {}: {e}", sys.name)),
                Ok(counts) => {
                    if front {
                        self.first_seen[d.req.sys as usize].get_or_insert(*counts);
                    }
                    if let Some(x) = &d.solution {
                        let r = rel_residual(&sys.a, x, &sys.rhs[d.req.variant as usize]);
                        self.checked += 1;
                        self.worst_residual = self.worst_residual.max(r);
                        // A NaN residual compares false and so fails too.
                        let within = r <= limit;
                        if !within {
                            self.fail(format!(
                                "{arm}: {}: true residual {r:.3e} > {limit:.1e}",
                                sys.name
                            ));
                        }
                    }
                }
            }
        }
    }

    pub fn all_systems_seen(&self) -> bool {
        !self.first_seen.is_empty() && self.first_seen.iter().all(Option::is_some)
    }

    fn mean_first_seen(&self, f: impl Fn(&Counts) -> f64) -> f64 {
        let seen: Vec<f64> = self.first_seen.iter().flatten().map(f).collect();
        stats::mean(&seen)
    }
}

/// Per-arm samples: per-pass rate and median, and latencies by system.
#[derive(Debug, Default)]
pub struct ArmSamples {
    pub pass_rate: Vec<f64>,
    pub pass_p50_ms: Vec<f64>,
    pub by_system_ms: Vec<Vec<f64>>,
    pub all_ms: Vec<f64>,
}

impl ArmSamples {
    pub fn absorb(&mut self, systems: usize, wall: Duration, dones: &[Done]) {
        self.by_system_ms.resize(systems, Vec::new());
        let ms: Vec<f64> = dones.iter().map(|d| d.latency_ns as f64 / 1e6).collect();
        for (d, &l) in dones.iter().zip(&ms) {
            self.by_system_ms[d.req.sys as usize].push(l);
        }
        self.pass_rate.push(dones.len() as f64 / wall.as_secs_f64());
        self.pass_p50_ms.push(stats::median(&ms));
        self.all_ms.extend(ms);
    }

    /// Geomean over systems of each system's median latency.
    pub fn geomean_ms(&self) -> f64 {
        let medians: Vec<f64> = self
            .by_system_ms
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| stats::median(s))
            .collect();
        stats::geomean(&medians)
    }
}

/// Picks every `every`-th request of an arm for the residual check.
#[derive(Debug)]
pub struct Keeper {
    every: u64,
    seen: u64,
}

impl Keeper {
    pub fn every(every: u64) -> Keeper {
        Keeper { every, seen: 0 }
    }

    fn next(&mut self) -> bool {
        self.seen += 1;
        (self.seen - 1) % self.every == 0
    }
}

pub fn rhs<'a>(pool: &'a Pool, r: &Request) -> &'a [f64] {
    &pool.systems[r.sys as usize].rhs[r.variant as usize]
}

/// Closed loop, one client, `Engine::solve_one`. The pass's wall time is
/// the sum of the request latencies, so bookkeeping between requests is
/// outside it.
pub fn engine_front_pass(
    engine: &Engine,
    pool: &Pool,
    reqs: &[Request],
    keeper: &mut Keeper,
) -> (Duration, Vec<Done>) {
    let mut wall = Duration::ZERO;
    let dones = reqs
        .iter()
        .map(|r| {
            let a = &pool.systems[r.sys as usize].a;
            let t0 = Instant::now();
            let result = engine.solve_one(a, rhs(pool, r));
            let latency = t0.elapsed();
            wall += latency;
            Done::new(*r, latency, result, keeper.next())
        })
        .collect();
    (wall, dones)
}

fn job(pool: &Pool, r: &Request, policy: DeterminismPolicy) -> SolveJob<f64> {
    SolveJob::new(
        Arc::clone(&pool.systems[r.sys as usize].a),
        rhs(pool, r).to_vec(),
    )
    .with_policy(policy)
}

/// The Fast tier has no single-solve entry point, so each request is a
/// one-job `solve_jobs` batch.
fn engine_fast_pass(rig: &Rig, reqs: &[Request], keeper: &mut Keeper) -> (Duration, Vec<Done>) {
    let mut wall = Duration::ZERO;
    let dones = reqs
        .iter()
        .map(|r| {
            let jobs = vec![job(&rig.pool, r, DeterminismPolicy::Fast)];
            let t0 = Instant::now();
            let mut report = rig.engine.solve_jobs(jobs);
            let latency = t0.elapsed();
            wall += latency;
            let result = report.results.pop().expect("one job in, one result out");
            Done::new(*r, latency, result, keeper.next())
        })
        .collect();
    (wall, dones)
}

/// One `solve_jobs` batch of `reqs` on the two workers.
pub fn batch_pass(
    engine: &Engine,
    pool: &Pool,
    reqs: &[Request],
    keeper: &mut Keeper,
) -> (Duration, Vec<Done>) {
    let jobs: Vec<_> = reqs
        .iter()
        .map(|r| job(pool, r, DeterminismPolicy::Deterministic))
        .collect();
    let t0 = Instant::now();
    let report = engine.solve_jobs(jobs);
    let wall = t0.elapsed();
    let dones = reqs
        .iter()
        .zip(report.results)
        .map(|(r, result)| Done::new(*r, Duration::ZERO, result, keeper.next()))
        .collect();
    (wall, dones)
}

/// IC(0)-preconditioned CG on the SPD systems, straight through the core.
fn pcg_pass(
    rig: &Rig,
    workspace: &WorkspaceHandle,
    reqs: &[Request],
    keeper: &mut Keeper,
) -> (Duration, Vec<Done>) {
    let mut wall = Duration::ZERO;
    let dones = reqs
        .iter()
        .map(|r| {
            let a = &rig.pool.systems[r.sys as usize].a;
            let t0 = Instant::now();
            // On cold_patterns the plan is part of the request.
            let fresh;
            let plan: &AnalysisArtifacts = match rig.plans.get(r.sys as usize) {
                Some(plan) => plan.as_deref().expect("SPD systems get a plan in set-up"),
                None => {
                    fresh = rig.acamar.analyze(a);
                    &fresh
                }
            };
            let result = rig.acamar.run_with_plan_opts(
                a,
                rhs(&rig.pool, r),
                None,
                plan,
                RunOptions {
                    solver: Some(SolverKind::PreconditionedCg),
                    workspace: Some(workspace.clone()),
                    ..Default::default()
                },
            );
            let latency = t0.elapsed();
            wall += latency;
            Done::new(*r, latency, result, keeper.next())
        })
        .collect();
    (wall, dones)
}

/// What one service pass observed.
pub struct ServicePass {
    pub wall: Duration,
    pub dones: Vec<Done>,
    /// Time inside `Service::submit` per admitted request.
    pub submit_ns: Vec<u64>,
}

/// Closed loop against the service: one thread per entry of `per_client`,
/// each keeping `OUTSTANDING` tickets in flight. Latency is the
/// dispatcher-measured admission-to-fulfilment time of `wait_timed`.
pub fn service_pass(
    service: &Service<f64>,
    pool: &Pool,
    per_client: &[Vec<Request>],
    policy: DeterminismPolicy,
    check_every: u64,
) -> ServicePass {
    struct Client {
        dones: Vec<Done>,
        submit_ns: Vec<u64>,
    }
    let run_client = |tenant: usize, reqs: &[Request]| {
        let mut out = Client {
            dones: Vec::with_capacity(reqs.len()),
            submit_ns: Vec::with_capacity(reqs.len()),
        };
        let mut inflight: VecDeque<(Request, bool, Ticket<f64>)> = VecDeque::new();
        let finish = |out: &mut Client, (req, keep, ticket): (Request, bool, Ticket<f64>)| {
            let (result, latency) = ticket.wait_timed();
            out.dones.push(Done::new(req, latency, result, keep));
        };
        for (i, r) in reqs.iter().enumerate() {
            if inflight.len() == OUTSTANDING {
                let oldest = inflight.pop_front().expect("non-empty");
                finish(&mut out, oldest);
            }
            let request = ServiceRequest::new(
                Arc::clone(&pool.systems[r.sys as usize].a),
                rhs(pool, r).to_vec(),
            )
            .with_tenant(tenant as u32)
            .with_priority(r.priority)
            .with_policy(policy);
            let t0 = Instant::now();
            match service.submit(request) {
                Ok(ticket) => {
                    out.submit_ns.push(t0.elapsed().as_nanos() as u64);
                    inflight.push_back((*r, i as u64 % check_every == 0, ticket));
                }
                Err(e) => out.dones.push(Done {
                    req: *r,
                    latency_ns: 0,
                    outcome: Err(format!("refused: {e}")),
                    solution: None,
                }),
            }
        }
        for pending in inflight {
            finish(&mut out, pending);
        }
        out
    };
    let t0 = Instant::now();
    let clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = per_client
            .iter()
            .enumerate()
            .map(|(tenant, reqs)| s.spawn(move || run_client(tenant, reqs)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let mut pass = ServicePass {
        wall,
        dones: Vec::new(),
        submit_ns: Vec::new(),
    };
    for c in clients {
        pass.dones.extend(c.dones);
        pass.submit_ns.extend(c.submit_ns);
    }
    pass
}

/// One pass through the workload's front door on `policy`'s tier: the
/// service where the rig has one, else the engine (counting the requests
/// that went through its plan cache into `engine_requests`).
fn front_door_pass(
    rig: &Rig,
    per_client: &[Vec<Request>],
    policy: DeterminismPolicy,
    keeper: &mut Keeper,
    engine_requests: &mut u64,
) -> (Duration, Vec<Done>) {
    if let Some(service) = &rig.service {
        let pass = service_pass(service, &rig.pool, per_client, policy, keeper.every);
        return (pass.wall, pass.dones);
    }
    let reqs = &per_client[0];
    *engine_requests += reqs.len() as u64;
    match policy {
        DeterminismPolicy::Deterministic => engine_front_pass(&rig.engine, &rig.pool, reqs, keeper),
        DeterminismPolicy::Fast => engine_fast_pass(rig, reqs, keeper),
    }
}

/// How long to measure: wall-clock seconds, or (tests) a cycle count.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    #[cfg(test)]
    Cycles(usize),
}

/// The request streams of one run. `cold_patterns` feeds every engine arm
/// from one cyclic stream, so that whichever arm asks next, a pattern's
/// previous use lies a whole pool behind it and its plan is long evicted.
pub struct Streams {
    front: Vec<Stream>,
    batch: Option<Stream>,
    fast: Vec<Stream>,
    pcg: Stream,
}

impl Streams {
    pub fn new(rig: &Rig, seed: u64) -> Streams {
        let all: Vec<u32> = (0..rig.pool.systems.len() as u32).collect();
        let clients = if rig.service.is_some() { CLIENTS } else { 1 };
        let stream = |id: u64| Stream::new(rig.workload, all.clone(), seed, id);
        Streams {
            front: (0..clients as u64).map(stream).collect(),
            batch: (!rig.cold()).then(|| stream(10)),
            fast: if rig.cold() {
                Vec::new()
            } else {
                (20..20 + clients as u64).map(stream).collect()
            },
            pcg: Stream::new(rig.workload, rig.pool.spd_indices(), seed, 30),
        }
    }

    pub fn front(&mut self, count: usize) -> Vec<Vec<Request>> {
        self.front.iter_mut().map(|s| s.take(count)).collect()
    }

    pub fn batch(&mut self, count: usize) -> Vec<Request> {
        self.batch
            .as_mut()
            .unwrap_or(&mut self.front[0])
            .take(count)
    }

    pub fn fast(&mut self, count: usize) -> Vec<Vec<Request>> {
        if self.fast.is_empty() {
            return vec![self.front[0].take(count)];
        }
        self.fast.iter_mut().map(|s| s.take(count)).collect()
    }

    pub fn pcg(&mut self, count: usize) -> Vec<Request> {
        self.pcg.take(count)
    }
}

/// The untraced run's raw results.
pub struct Measured {
    pub front: ArmSamples,
    pub batch: ArmSamples,
    pub fast: ArmSamples,
    pub pcg: ArmSamples,
    pub tally: Tally,
    pub cycles: usize,
    pub peak_rss_mb: f64,
    /// Requests that went through `rig.engine`'s plan cache.
    pub engine_requests: u64,
}

impl Measured {
    /// The end-to-end metrics by name, in the ledger's order (`spec.rs`).
    pub fn end_to_end(&self, setup_s: f64) -> [(&'static str, f64); 11] {
        [
            ("setup_s", setup_s),
            ("solves_per_s", stats::median(&self.front.pass_rate)),
            ("latency_p50_ms", stats::median(&self.front.pass_p50_ms)),
            ("solve_ms_geomean", self.front.geomean_ms()),
            ("batch_solves_per_s", stats::median(&self.batch.pass_rate)),
            ("fast_solve_ms_geomean", self.fast.geomean_ms()),
            ("pcg_solve_ms_geomean", self.pcg.geomean_ms()),
            (
                "iters_per_solve",
                self.tally.mean_first_seen(|c| c.iterations as f64),
            ),
            (
                "modeled_cycles_per_solve",
                self.tally.mean_first_seen(|c| c.modeled_cycles as f64),
            ),
            (
                "modeled_underutilization",
                self.tally.mean_first_seen(|c| c.underutilization),
            ),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }
}

/// Runs cycles of the four arms until `budget` is spent and every system
/// has been solved by the front arm at least once.
pub fn measure(rig: &Rig, seed: u64, budget: Budget) -> Measured {
    let sizes = PassSizes::of(rig.workload, rig.scale);
    let systems = rig.pool.systems.len();
    let mut streams = Streams::new(rig, seed);
    let workspace = WorkspaceHandle::new();
    let mut m = Measured {
        front: ArmSamples::default(),
        batch: ArmSamples::default(),
        fast: ArmSamples::default(),
        pcg: ArmSamples::default(),
        tally: Tally {
            attempted: rig.warmup_attempted,
            failed: rig.warmup_failed,
            ..Tally::default()
        },
        cycles: 0,
        peak_rss_mb: 0.0,
        engine_requests: 0,
    };
    let mut keepers: [Keeper; 4] = std::array::from_fn(|_| Keeper::every(sizes.check_every));
    let [keep_front, keep_batch, keep_fast, keep_pcg] = &mut keepers;
    let started = Instant::now();
    loop {
        let done = match budget {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            #[cfg(test)]
            Budget::Cycles(n) => m.cycles >= n,
        };
        // Past the budget, go on only to finish covering the pool (so the
        // counted metrics do not depend on run length), and not if a solve
        // has failed: a failing system would never count as seen.
        if done && (m.tally.all_systems_seen() || m.tally.failed > 0) {
            break;
        }
        m.cycles += 1;

        let (wall, dones) = front_door_pass(
            rig,
            &streams.front(sizes.front),
            DeterminismPolicy::Deterministic,
            keep_front,
            &mut m.engine_requests,
        );
        m.front.absorb(systems, wall, &dones);
        m.tally.absorb(rig, "front", &dones, true);

        let reqs = streams.batch(sizes.batch);
        m.engine_requests += reqs.len() as u64;
        let (wall, dones) = batch_pass(&rig.engine, &rig.pool, &reqs, keep_batch);
        m.batch.absorb(systems, wall, &dones);
        m.tally.absorb(rig, "batch", &dones, false);

        let (wall, dones) = front_door_pass(
            rig,
            &streams.fast(sizes.fast),
            DeterminismPolicy::Fast,
            keep_fast,
            &mut m.engine_requests,
        );
        m.fast.absorb(systems, wall, &dones);
        m.tally.absorb(rig, "fast", &dones, false);

        let reqs = streams.pcg(sizes.pcg);
        let (wall, dones) = pcg_pass(rig, &workspace, &reqs, keep_pcg);
        m.pcg.absorb(systems, wall, &dones);
        m.tally.absorb(rig, "pcg", &dones, false);
    }
    // Read after the timed passes and before anything else allocates.
    m.peak_rss_mb = crate::host::peak_rss_mb();
    m
}

/// Workload-specific output checks beyond the per-solve ones. Returns the
/// failures as text.
pub fn workload_checks(rig: &Rig, m: &Measured) -> Vec<String> {
    let mut failures = Vec::new();
    let cache = rig.engine.counters().cache;
    if rig.cold() {
        if cache.misses != m.engine_requests || cache.hits != 0 {
            failures.push(format!(
                "cold cache: {} misses and {} hits for {} requests",
                cache.misses, cache.hits, m.engine_requests
            ));
        }
    } else if (cache.misses, rig.shard_misses()) != rig.warmup_misses {
        failures.push(format!(
            "warm caches missed: (engine, shards) = ({}, {}) after set-up's {:?}",
            cache.misses,
            rig.shard_misses(),
            rig.warmup_misses
        ));
    }
    // "Some solver always converges" is the paper's Table II claim.
    if rig.workload == Workload::Table2Warm && !m.tally.all_systems_seen() {
        failures.push("not every Table II system converged".to_string());
    }
    if let Some(service) = &rig.service {
        if service.total_queue_depth() != 0 {
            failures.push(format!(
                "{} requests still queued at the end",
                service.total_queue_depth()
            ));
        }
    }
    failures
}
