//! Per-shard supervision: the health state machine, circuit breaker
//! bookkeeping, and the service-seam fault ledger.
//!
//! Every transition here is **count-based** — consecutive failures,
//! diverted-request counts, probe outcomes — never wall-clock-based, so a
//! replay of the same admission sequence walks the same state sequence
//! and emits the same telemetry regardless of machine speed. The
//! dispatcher heartbeat is a liveness tick that `/health` reports; no
//! transition reads it.

use acamar_engine::FaultTally;
use acamar_faultline::FaultCategory;
use acamar_telemetry::{Counter, EventKind, HealthState, TelemetrySink};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering the guard from a poisoned lock. A panicking
/// holder (an injected dispatcher panic, or a genuine bug in one thread)
/// marks the mutex poisoned, but every structure the service guards this
/// way is kept consistent *before* any panic seam can fire, so the data
/// under a poisoned lock is still valid — refusing to serve it would
/// convert one thread's crash into a service-wide abort.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One shard's health, as the supervision state machine sees it.
///
/// ```text
///            consecutive failures          consecutive failures
///            >= SUSPECT_AFTER              >= BREAK_AFTER
/// Healthy ─────────────────────> Suspect ─────────────────────> Broken
///    ^                              │                            │ ▲
///    │ success                      │ success                    │ │ probe
///    │<─────────────────────────────┘     diverted requests      │ │ fails
///    │                                    >= probe_after         ▼ │
///    └────────────────────────────────────────────────────── Probing
///                         probe succeeds
/// ```
///
/// A dispatcher panic short-circuits straight to `Broken`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardHealth {
    /// Serving normally; affinity routing applies.
    Healthy,
    /// On watch: consecutive failures (or a dispatcher stall the
    /// dispatcher reported itself) without yet tripping the breaker.
    Suspect,
    /// The circuit breaker is open: new affinity traffic deterministically
    /// spills to the next-ranked shard.
    Broken,
    /// Half-open: traffic is admitted again as probes; one success heals,
    /// one failure re-opens the breaker.
    Probing,
}

impl ShardHealth {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Suspect => "suspect",
            ShardHealth::Broken => "broken",
            ShardHealth::Probing => "probing",
        }
    }

    pub(crate) fn telemetry(self) -> HealthState {
        match self {
            ShardHealth::Healthy => HealthState::Healthy,
            ShardHealth::Suspect => HealthState::Suspect,
            ShardHealth::Broken => HealthState::Broken,
            ShardHealth::Probing => HealthState::Probing,
        }
    }
}

impl std::fmt::Display for ShardHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Consecutive dispatch failures before a shard's health drops from
/// `Healthy` to `Suspect`.
const SUSPECT_AFTER: u32 = 2;
/// Consecutive dispatch failures before a shard's circuit breaker opens
/// (`Broken`).
const BREAK_AFTER: u32 = 4;

#[derive(Debug)]
struct HealthInner {
    state: ShardHealth,
    consecutive_failures: u32,
    /// Requests diverted away while `Broken`; reaching
    /// [`PROBE_AFTER`](crate::PROBE_AFTER) flips the breaker half-open.
    diverted: u32,
}

/// One shard's supervision cell. All mutations funnel through here so
/// every state change emits exactly one [`EventKind::HealthTransition`].
#[derive(Debug)]
pub(crate) struct HealthCell {
    inner: Mutex<HealthInner>,
}

impl HealthCell {
    pub fn new() -> HealthCell {
        HealthCell {
            inner: Mutex::new(HealthInner {
                state: ShardHealth::Healthy,
                consecutive_failures: 0,
                diverted: 0,
            }),
        }
    }

    pub fn state(&self) -> ShardHealth {
        lock_recover(&self.inner).state
    }

    fn transition(inner: &mut HealthInner, shard: usize, to: ShardHealth, sink: &TelemetrySink) {
        if inner.state == to {
            return;
        }
        sink.emit(EventKind::HealthTransition {
            shard: shard as u16,
            from: inner.state.telemetry(),
            to: to.telemetry(),
        });
        sink.counter_add(Counter::HealthTransitions, 1);
        inner.state = to;
    }

    /// A job dispatched on this shard resolved successfully: reset the
    /// failure streak and heal `Suspect`/`Probing` back to `Healthy`.
    pub fn record_success(&self, shard: usize, sink: &TelemetrySink) {
        let mut inner = lock_recover(&self.inner);
        inner.consecutive_failures = 0;
        if matches!(inner.state, ShardHealth::Suspect | ShardHealth::Probing) {
            Self::transition(&mut inner, shard, ShardHealth::Healthy, sink);
        }
    }

    /// A job dispatched on this shard resolved with an error: advance the
    /// failure streak through `Suspect` toward `Broken`; a failure while
    /// `Probing` re-opens the breaker immediately.
    pub fn record_failure(&self, shard: usize, sink: &TelemetrySink) {
        let mut inner = lock_recover(&self.inner);
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        match inner.state {
            ShardHealth::Probing => {
                inner.diverted = 0;
                Self::transition(&mut inner, shard, ShardHealth::Broken, sink);
            }
            ShardHealth::Healthy | ShardHealth::Suspect => {
                if inner.consecutive_failures >= BREAK_AFTER {
                    inner.diverted = 0;
                    Self::transition(&mut inner, shard, ShardHealth::Broken, sink);
                } else if inner.consecutive_failures >= SUSPECT_AFTER {
                    Self::transition(&mut inner, shard, ShardHealth::Suspect, sink);
                }
            }
            ShardHealth::Broken => {}
        }
    }

    /// Force a state (dispatcher panic → `Broken`; chaos hooks).
    pub fn force(&self, shard: usize, to: ShardHealth, sink: &TelemetrySink) {
        let mut inner = lock_recover(&self.inner);
        if to == ShardHealth::Broken {
            inner.diverted = 0;
        }
        Self::transition(&mut inner, shard, to, sink);
    }

    /// Flag a `Healthy` shard `Suspect` (a dispatcher's stall
    /// self-report). Returns whether a transition happened.
    pub fn mark_suspect(&self, shard: usize, sink: &TelemetrySink) -> bool {
        let mut inner = lock_recover(&self.inner);
        if inner.state != ShardHealth::Healthy {
            return false;
        }
        Self::transition(&mut inner, shard, ShardHealth::Suspect, sink);
        true
    }

    /// The router found this shard `Broken`: count the diversion, and
    /// once `probe_after` requests have been turned away, flip the
    /// breaker half-open and admit this request as the probe. Returns
    /// `true` when the request should be admitted here (as a probe),
    /// `false` when it should spill to the next-ranked shard.
    pub fn divert_or_probe(&self, shard: usize, probe_after: u32, sink: &TelemetrySink) -> bool {
        let mut inner = lock_recover(&self.inner);
        if inner.state != ShardHealth::Broken {
            // Raced with a heal or a probe admission: admit normally.
            return true;
        }
        inner.diverted = inner.diverted.saturating_add(1);
        if inner.diverted >= probe_after {
            inner.diverted = 0;
            Self::transition(&mut inner, shard, ShardHealth::Probing, sink);
            sink.emit(EventKind::BreakerProbe {
                shard: shard as u16,
            });
            sink.counter_add(Counter::BreakerProbes, 1);
            true
        } else {
            false
        }
    }
}

/// Snapshot of the service-seam fault ledger: per-category tallies in the
/// same `detected + recovered + exhausted == injected` vocabulary the
/// engine's `RobustnessReport` uses, but for the serving layer's own
/// seams (dispatcher panics/stalls, queue drops).
///
/// - **detected** — the fault was absorbed in place: a stalled dispatcher
///   slept and still delivered the wave (no retry needed);
/// - **recovered** — the delivery failed (panicked dispatcher, dropped
///   job) but a retry under the budget resolved the ticket with a
///   solution;
/// - **exhausted** — the ticket resolved with a typed error (retry
///   budget spent, or the retried solve itself failed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceLedger {
    /// Per-category tallies, indexed by [`FaultCategory::index`]. Engine
    /// seams stay zero here — they are the engine ledger's business.
    pub tallies: [FaultTally; FaultCategory::COUNT],
    /// Injected faults whose job has not yet resolved. Zero once every
    /// outstanding ticket has been fulfilled.
    pub pending: usize,
}

impl ServiceLedger {
    /// The tally for one category.
    pub fn category(&self, cat: FaultCategory) -> FaultTally {
        self.tallies[cat.index()]
    }

    /// Total faults injected across all categories.
    pub fn injected_total(&self) -> u64 {
        self.tallies.iter().map(|t| t.injected).sum()
    }

    /// Whether every injected fault is accounted for:
    /// `detected + recovered + exhausted == injected` in every category
    /// and nothing is still pending.
    pub fn accounted(&self) -> bool {
        self.pending == 0
            && self
                .tallies
                .iter()
                .all(|t| t.detected + t.recovered + t.exhausted == t.injected)
    }
}

/// The live ledger the dispatchers write into.
///
/// Synchronously-absorbed faults (stalls) tally `detected` at the seam;
/// faults that force a retry park a pending entry keyed by admission
/// sequence, resolved to `recovered`/`exhausted` when that ticket
/// fulfills.
#[derive(Debug, Default)]
pub(crate) struct LedgerInner {
    tallies: Mutex<[FaultTally; FaultCategory::COUNT]>,
    pending: Mutex<HashMap<u64, Vec<FaultCategory>>>,
}

impl LedgerInner {
    pub fn new() -> LedgerInner {
        LedgerInner::default()
    }

    /// A fault fired and was absorbed on the spot (dispatcher stall).
    pub fn absorbed(&self, cat: FaultCategory) {
        let mut t = lock_recover(&self.tallies);
        t[cat.index()].injected += 1;
        t[cat.index()].detected += 1;
    }

    /// A fault fired and put admission `seq` on the retry path; the
    /// outcome is settled by [`LedgerInner::resolve`] when the ticket
    /// fulfills.
    pub fn deferred(&self, cat: FaultCategory, seq: u64) {
        lock_recover(&self.tallies)[cat.index()].injected += 1;
        lock_recover(&self.pending)
            .entry(seq)
            .or_default()
            .push(cat);
    }

    /// Admission `seq`'s ticket fulfilled: settle every fault pending on
    /// it — `recovered` when the ticket carries a solution, `exhausted`
    /// when it carries an error.
    pub fn resolve(&self, seq: u64, ok: bool) {
        let cats = match lock_recover(&self.pending).remove(&seq) {
            Some(cats) => cats,
            None => return,
        };
        let mut t = lock_recover(&self.tallies);
        for cat in cats {
            if ok {
                t[cat.index()].recovered += 1;
            } else {
                t[cat.index()].exhausted += 1;
            }
        }
    }

    pub fn snapshot(&self) -> ServiceLedger {
        ServiceLedger {
            tallies: *lock_recover(&self.tallies),
            pending: lock_recover(&self.pending).values().map(Vec::len).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink() -> TelemetrySink {
        TelemetrySink::disabled()
    }

    #[test]
    fn failure_streak_walks_healthy_suspect_broken() {
        let cell = HealthCell::new();
        assert_eq!(cell.state(), ShardHealth::Healthy);
        cell.record_failure(0, &sink());
        assert_eq!(cell.state(), ShardHealth::Healthy);
        cell.record_failure(0, &sink());
        assert_eq!(cell.state(), ShardHealth::Suspect);
        cell.record_failure(0, &sink());
        assert_eq!(cell.state(), ShardHealth::Suspect);
        cell.record_failure(0, &sink());
        assert_eq!(cell.state(), ShardHealth::Broken);
    }

    #[test]
    fn consecutive_failures_cross_the_constants_and_a_success_heals() {
        let cell = HealthCell::new();
        for failures in 1..=BREAK_AFTER {
            cell.record_failure(0, &sink());
            let want = if failures >= BREAK_AFTER {
                ShardHealth::Broken
            } else if failures >= SUSPECT_AFTER {
                ShardHealth::Suspect
            } else {
                ShardHealth::Healthy
            };
            assert_eq!(cell.state(), want, "after {failures} failures");
        }
        // Half-open on the first diversion; the probe's success heals.
        assert!(cell.divert_or_probe(0, 1, &sink()));
        cell.record_success(0, &sink());
        assert_eq!(cell.state(), ShardHealth::Healthy);
    }

    #[test]
    fn success_resets_the_streak_and_heals_suspect() {
        let cell = HealthCell::new();
        for _ in 0..SUSPECT_AFTER {
            cell.record_failure(0, &sink());
        }
        assert_eq!(cell.state(), ShardHealth::Suspect);
        cell.record_success(0, &sink());
        assert_eq!(cell.state(), ShardHealth::Healthy);
        // The streak restarted: one more failure is below SUSPECT_AFTER.
        cell.record_failure(0, &sink());
        assert_eq!(cell.state(), ShardHealth::Healthy);
    }

    #[test]
    fn breaker_diverts_then_half_opens_then_heals_or_reopens() {
        let cell = HealthCell::new();
        cell.force(0, ShardHealth::Broken, &sink());
        // probe_after = 3: two diversions spill, the third probes.
        assert!(!cell.divert_or_probe(0, 3, &sink()));
        assert!(!cell.divert_or_probe(0, 3, &sink()));
        assert!(cell.divert_or_probe(0, 3, &sink()));
        assert_eq!(cell.state(), ShardHealth::Probing);
        // Probe failure re-opens; the diversion count restarts.
        cell.record_failure(0, &sink());
        assert_eq!(cell.state(), ShardHealth::Broken);
        assert!(!cell.divert_or_probe(0, 3, &sink()));
        assert!(!cell.divert_or_probe(0, 3, &sink()));
        assert!(cell.divert_or_probe(0, 3, &sink()));
        // Probe success heals.
        cell.record_success(0, &sink());
        assert_eq!(cell.state(), ShardHealth::Healthy);
    }

    #[test]
    fn ledger_accounts_absorbed_deferred_and_resolved_faults() {
        let ledger = LedgerInner::new();
        ledger.absorbed(FaultCategory::DispatcherStall);
        ledger.deferred(FaultCategory::DispatcherPanic, 7);
        ledger.deferred(FaultCategory::QueueDrop, 9);
        let mid = ledger.snapshot();
        assert_eq!(mid.injected_total(), 3);
        assert_eq!(mid.pending, 2);
        assert!(!mid.accounted(), "pending faults are not yet accounted");

        ledger.resolve(7, true);
        ledger.resolve(9, false);
        ledger.resolve(11, true); // no-op: nothing pending on 11
        let done = ledger.snapshot();
        assert!(done.accounted());
        assert_eq!(done.category(FaultCategory::DispatcherStall).detected, 1);
        assert_eq!(done.category(FaultCategory::DispatcherPanic).recovered, 1);
        assert_eq!(done.category(FaultCategory::QueueDrop).exhausted, 1);
    }

    #[test]
    fn lock_recover_survives_a_poisoned_mutex() {
        acamar_faultline::silence_injected_panics();
        let m = std::sync::Arc::new(Mutex::new(5_u32));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            std::panic::panic_any(acamar_faultline::InjectedPanic { job: 0 });
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 5);
    }
}
