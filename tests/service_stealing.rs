//! Work stealing between shard dispatchers.
//!
//! Affinity picks a job's queue and its engine, not the thread that runs
//! it: a dispatcher whose own queue is empty takes the next job from a
//! busy peer's queue and runs it on the peer's engine. Each test loads one
//! of two shards' queues behind a long solve and checks one claim
//! (`cargo test --test service_stealing`):
//!
//! - the other dispatcher serves part of that queue, every result is
//!   bitwise what a fresh engine's `solve_one` computes, and the
//!   non-owning engine never analyzes or caches a pattern;
//! - a paused service neither steals nor is stolen from;
//! - under the service seam injector, every ticket resolves, the
//!   zero-loss ledger balances, and a job stranded on the stealing
//!   dispatcher goes back to its owner's queue.
//!
//! The loaded dispatcher does not race its peer: a recorder holds it at
//! the end of the long solve until the peer has stolen from its queue (see
//! [`HoldLong`]), whatever the solve's length on the host.

use acamar::core::{Acamar, AcamarConfig};
use acamar::engine::{Engine, PatternFingerprint};
use acamar::fabric::FabricSpec;
use acamar::faultline::{FaultCategory, FaultPlan};
use acamar::service::{
    shard_for, RingBacked, Service, ServiceConfig, ServiceError, ServiceRequest, Ticket,
};
use acamar::sparse::{generate, CsrMatrix};
use acamar::telemetry::{Counter, EventKind, Recorder, RingRecorder};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;

fn acamar() -> Acamar {
    Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper())
}

fn config() -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(SHARDS)
        .with_workers_per_shard(1)
        .with_queue_capacity(64)
}

/// A system whose solve keeps its shard's dispatcher busy while the
/// short jobs behind it queue up: hundreds of CG iterations over ~46k
/// nonzeros, against a few dozen over a few hundred for each short one.
fn long_system() -> Arc<CsrMatrix<f64>> {
    Arc::new(generate::poisson2d::<f64>(96, 96))
}

/// A ring that holds the dispatcher running the long job inside it until
/// the other dispatcher has stolen from the long job's queue.
///
/// The long job is the service's first admission (sequence 0). The thread
/// that dispatches it is held when it records the job's `JobEnd` — in the
/// engine, before the dispatcher fulfills the ticket — until another
/// thread has dispatched two jobs. An idle dispatcher serves one job per
/// wave, so by its second dispatch it has fulfilled a stolen job: that job
/// overtook the long one whatever either solve costs. The hold is bounded:
/// if the peer never steals, the held dispatcher goes on after
/// [`HOLD_BOUND`] and the test fails on [`HoldLong::held_to_the_bound`]
/// instead of hanging.
struct HoldLong {
    ring: RingRecorder,
    state: Mutex<HoldState>,
    dispatched: Condvar,
}

#[derive(Default)]
struct HoldState {
    /// The thread that dispatched the long job, once it has.
    holder: Option<ThreadId>,
    /// The thread of every other `JobDispatched`.
    others: Vec<ThreadId>,
    held: bool,
    timed_out: bool,
}

impl HoldState {
    fn stolen(&self) -> usize {
        self.others
            .iter()
            .filter(|&&t| Some(t) != self.holder)
            .count()
    }
}

/// The long job's admission sequence number.
const LONG_SEQ: u64 = 0;

/// Longest the long job is held: far past any wake-up and steal.
const HOLD_BOUND: Duration = Duration::from_secs(60);

impl HoldLong {
    fn new() -> Arc<HoldLong> {
        Arc::new(HoldLong {
            ring: RingRecorder::new(1 << 16),
            state: Mutex::new(HoldState::default()),
            dispatched: Condvar::new(),
        })
    }

    fn held_to_the_bound(&self) -> bool {
        self.state.lock().unwrap().timed_out
    }
}

impl Recorder for HoldLong {
    fn record(&self, job: u64, kind: EventKind) {
        self.ring.record(job, kind);
        let me = std::thread::current().id();
        let mut state = self.state.lock().unwrap();
        match kind {
            EventKind::JobDispatched { .. } if job == LONG_SEQ => state.holder = Some(me),
            EventKind::JobDispatched { .. } => {
                state.others.push(me);
                self.dispatched.notify_all();
            }
            EventKind::JobEnd { .. } if state.holder == Some(me) && !state.held => {
                state.held = true;
                let (mut state, waited) = self
                    .dispatched
                    .wait_timeout_while(state, HOLD_BOUND, |s| s.stolen() < 2)
                    .unwrap();
                state.timed_out = waited.timed_out();
            }
            _ => {}
        }
    }

    fn counter_add(&self, counter: Counter, n: u64) {
        self.ring.counter_add(counter, n);
    }
}

impl RingBacked for HoldLong {
    fn ring(&self) -> &RingRecorder {
        &self.ring
    }
}

/// `count` small, structurally distinct systems whose patterns route to
/// `shard`.
fn short_systems_on(shard: usize, count: usize) -> Vec<Arc<CsrMatrix<f64>>> {
    let out: Vec<Arc<CsrMatrix<f64>>> = (5..24)
        .flat_map(|w| (5..8).map(move |h| (w, h)))
        .map(|(w, h)| Arc::new(generate::poisson2d::<f64>(w, h)))
        .filter(|a| shard_for(&PatternFingerprint::of(a), SHARDS) == shard)
        .take(count)
        .collect();
    assert_eq!(
        out.len(),
        count,
        "enough candidate patterns route to {shard}"
    );
    out
}

fn rhs(a: &CsrMatrix<f64>, k: usize) -> Vec<f64> {
    (0..a.nrows())
        .map(|i| 1.0 + ((i + 3 * k) % 11) as f64 * 0.1)
        .collect()
}

/// Blocks until shard `shard`'s queue is empty, i.e. its dispatcher has
/// popped what was queued.
fn until_popped(service: &Service<f64>, shard: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.queue_depth(shard) != 0 {
        assert!(Instant::now() < deadline, "shard {shard} never popped");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Submits the long system to its shard, waits until its dispatcher holds
/// it, then queues `shorts` (two right-hand sides each) behind it.
/// Returns the long ticket and the short `(matrix, rhs, ticket)` triples.
///
/// It first lets both dispatchers of a new service reach their first
/// sleep: an idle dispatcher is woken only by admission onto its own
/// queue or onto a busy peer's, so the long job's admission then wakes
/// its own dispatcher alone, and the other one takes only the short jobs.
#[allow(clippy::type_complexity)]
fn load_one_shard(
    service: &Service<f64>,
    long: &Arc<CsrMatrix<f64>>,
    shorts: &[Arc<CsrMatrix<f64>>],
) -> (
    Ticket<f64>,
    Vec<(Arc<CsrMatrix<f64>>, Vec<f64>, Ticket<f64>)>,
) {
    std::thread::sleep(Duration::from_millis(50));
    let home = service.route(long);
    let long_ticket = service
        .submit(ServiceRequest::new(Arc::clone(long), rhs(long, 0)))
        .expect("under capacity");
    assert_eq!(
        long_ticket.seq(),
        LONG_SEQ,
        "the long job is admitted first"
    );
    until_popped(service, home);
    let queued = (0..2 * shorts.len())
        .map(|k| {
            let a = Arc::clone(&shorts[k % shorts.len()]);
            let b = rhs(&a, k + 1);
            let t = service
                .submit(ServiceRequest::new(Arc::clone(&a), b.clone()))
                .expect("under capacity");
            assert_eq!(t.shard(), home, "affinity still picks the queue");
            (a, b, t)
        })
        .collect();
    (long_ticket, queued)
}

#[test]
fn an_idle_dispatcher_serves_a_busy_peers_queue_on_the_peers_engine() {
    let hold = HoldLong::new();
    let service = Service::<f64>::with_recorder(acamar(), config(), Arc::clone(&hold));
    let ring = &hold.ring;
    let long = long_system();
    let home = service.route(&long);
    let peer = 1 - home;
    let shorts = short_systems_on(home, 6);
    let (long_ticket, queued) = load_one_shard(&service, &long, &shorts);

    let fresh = Engine::with_workers(acamar(), 1);
    let mut first_short = u64::MAX;
    for (a, b, t) in queued {
        let (served, index) = t.wait_with_index();
        let served = served.expect("short system solves");
        first_short = first_short.min(index);
        let reference = fresh.solve_one(&a, &b).expect("short system solves");
        assert_eq!(served.solve.solution, reference.solve.solution, "bitwise");
        assert_eq!(served.solve.iterations, reference.solve.iterations);
        assert_eq!(served.final_solver(), reference.final_solver());
    }
    let (long_result, long_index) = long_ticket.wait_with_index();
    assert!(!hold.held_to_the_bound(), "the idle dispatcher never stole");
    let long_report = long_result.expect("long system solves");
    assert!(long_report.converged());
    let reference = fresh.solve_one(&long, &rhs(&long, 0)).expect("solves");
    assert_eq!(long_report.solve.solution, reference.solve.solution);

    // The home dispatcher was busy on the long solve the whole time: a
    // short job that finished first ran on the other dispatcher's thread.
    assert!(
        first_short < long_index,
        "no queued job overtook the long solve: the idle dispatcher served none \
         (first short at {first_short}, long at {long_index})"
    );
    let stolen = service.stolen(home);
    assert!(stolen >= 1, "the idle dispatcher took nothing");
    assert_eq!(service.stolen(peer), 0, "nothing was queued on the peer");
    assert_eq!(ring.counters()[Counter::JobsStolen.index()], stolen);

    // Affinity still picked the engine: every job ran on the home shard's
    // engine, which analyzed each pattern once; the peer's engine never
    // saw one.
    let owner = service.engine(home).counters();
    assert_eq!(owner.jobs_completed, 1 + 2 * shorts.len() as u64);
    assert_eq!(owner.cache.misses, 1 + shorts.len() as u64);
    let idle = service.engine(peer).counters();
    assert_eq!(idle.jobs_completed, 0);
    assert_eq!(idle.cache.misses, 0, "the non-owning engine missed");
    assert_eq!(idle.cache.hits, 0);
    assert_eq!(idle.cache.entries, 0);
    assert_eq!(
        idle.cache.analysis_nanos, 0,
        "the non-owning engine analyzed"
    );
    assert!(!service.is_warm(peer, &long));
    assert!(shorts.iter().all(|a| !service.is_warm(peer, a)));

    // `JobDispatched` names the owning shard, whichever thread ran it.
    for e in ring.drain() {
        if let EventKind::JobDispatched { shard, .. } = e.kind {
            assert_eq!(shard as usize, home);
        }
    }
    let text = service.prometheus_text();
    assert!(
        text.contains(&format!(
            "acamar_service_shard_stolen_total{{shard=\"{home}\"}} {stolen}"
        )),
        "per-shard stolen count exported:\n{text}"
    );
    assert!(text.contains(&format!("acamar_service_jobs_stolen_total {stolen}")));
}

#[test]
fn a_paused_service_neither_steals_nor_is_stolen_from() {
    let service = Service::<f64>::new(acamar(), config());
    service.pause();
    // Both queues hold work and both dispatchers are idle: with the
    // service running, either could serve the other's queue.
    let per_shard = 3;
    let tickets: Vec<_> = (0..SHARDS)
        .flat_map(|shard| short_systems_on(shard, per_shard))
        .enumerate()
        .map(|(k, a)| {
            service
                .submit(ServiceRequest::new(Arc::clone(&a), rhs(&a, k)))
                .expect("under capacity")
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    for shard in 0..SHARDS {
        assert_eq!(
            service.queue_depth(shard),
            per_shard,
            "shard {shard} queue moved"
        );
        assert_eq!(service.stolen(shard), 0, "shard {shard} was stolen from");
        assert_eq!(service.engine(shard).counters().jobs_completed, 0);
    }
    assert_eq!(service.completions(), 0);
    service.resume();
    for t in tickets {
        assert!(t.wait().expect("solves after resume").converged());
    }
}

/// Every service seam at a meaningful rate, engine seams quiet.
fn service_seam_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_rate(FaultCategory::DispatcherPanic, 0.10)
        .with_rate(FaultCategory::DispatcherStall, 0.10)
        .with_rate(FaultCategory::QueueDrop, 0.15)
}

#[test]
fn stealing_under_service_seam_chaos_loses_nothing() {
    let long = long_system();
    let home = shard_for(&PatternFingerprint::of(&long), SHARDS);
    let peer = 1 - home;
    let shorts = short_systems_on(home, 8);
    let jobs = 1 + 2 * shorts.len() as u64;
    // A seed whose rolls leave the long solve (admission 0) alone on its
    // first delivery, so it keeps the home dispatcher busy, and crash the
    // dispatcher holding the first short job (admission 1) on its first
    // delivery: the idle one, which took that job from the home queue.
    let seed = (1u64..)
        .find(|&s| {
            let plan = service_seam_plan(s);
            let quiet = FaultCategory::SERVICE.iter().all(|&c| !plan.roll(c, 0, 0));
            quiet && plan.roll(FaultCategory::DispatcherPanic, 1, 0)
        })
        .expect("some seed fits");
    let hold = HoldLong::new();
    let service = Service::<f64>::with_fault_plan(
        acamar(),
        config()
            .with_retry_budget(2)
            .with_restart_backoff(Duration::ZERO),
        service_seam_plan(seed),
        Some(Arc::clone(&hold)),
    );
    let ring = &hold.ring;
    let (long_ticket, queued) = load_one_shard(&service, &long, &shorts);
    let mut queue_of: HashMap<u64, usize> = HashMap::new();
    queue_of.insert(long_ticket.seq(), long_ticket.shard());
    let mut tickets = vec![long_ticket];
    for (_, _, t) in queued {
        queue_of.insert(t.seq(), t.shard());
        tickets.push(t);
    }
    let (mut solved, mut exhausted) = (0u64, 0u64);
    for t in tickets {
        match t.wait() {
            Ok(report) => {
                assert!(report.converged());
                solved += 1;
            }
            Err(ServiceError::ShardRestarted { shard, .. })
            | Err(ServiceError::Dropped { shard, .. }) => {
                assert_eq!(shard, home, "a lost job names the queue it was on");
                exhausted += 1;
            }
            Err(e) => panic!("unexpected service error under seam chaos: {e}"),
        }
    }
    assert_eq!(solved + exhausted, jobs, "every ticket resolves");
    assert!(!hold.held_to_the_bound(), "the idle dispatcher never stole");

    let ledger = service.service_ledger();
    assert!(ledger.injected_total() > 0, "seams must fire");
    assert!(ledger.accounted(), "{:?}", ledger.tallies);
    for cat in FaultCategory::SERVICE {
        let t = ledger.category(cat);
        assert_eq!(
            t.detected + t.recovered + t.exhausted,
            t.injected,
            "{cat:?} out of balance: {t:?}"
        );
    }
    assert!(
        service.stolen(home) >= 1,
        "the idle dispatcher took nothing"
    );
    assert!(
        service.restarts(peer) >= 1,
        "a panic seam fired on a job the idle dispatcher held"
    );
    // A retry goes back to the queue the job was admitted to, whichever
    // dispatcher dropped it or crashed holding it.
    let mut retries = 0;
    for e in ring.drain() {
        if let EventKind::JobRetried { shard, .. } = e.kind {
            assert_eq!(Some(&(shard as usize)), queue_of.get(&e.job), "{e:?}");
            retries += 1;
        }
    }
    assert!(retries >= 1, "the crash requeued what it stranded");
    assert_eq!(service.total_queue_depth(), 0);
    // And the retried jobs ran where affinity put them: the peer's engine
    // (fresh since its dispatcher's last crash) never analyzed a pattern.
    assert_eq!(service.engine(peer).counters().cache.misses, 0);
    assert!(shorts.iter().all(|a| !service.is_warm(peer, a)));
}
