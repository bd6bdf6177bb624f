//! The shared structure/plan cache.

use crate::fingerprint::PatternFingerprint;
use acamar_core::{Acamar, AnalysisArtifacts};
use acamar_sparse::{CsrMatrix, Scalar};
use acamar_telemetry::{Counter, EventKind, TelemetrySink};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Snapshot of a [`PlanCache`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran [`Acamar::analyze`] to completion — one per
    /// pattern however many lookups race on it, since a lookup that finds
    /// the pattern's analysis under way waits for it and is a hit.
    pub misses: u64,
    /// Lookups whose stored entry failed provenance verification (a
    /// corrupted entry — see [`PlanCache`]) and were re-analyzed; every
    /// one is also counted as a miss. The name is historical: a digest
    /// collision between same-shape patterns is *not* detected here.
    pub collisions: u64,
    /// Distinct patterns currently cached.
    pub entries: usize,
    /// Wall-clock nanoseconds spent inside [`Acamar::analyze`] on misses
    /// — structure analysis, MSID planning, and SpMV plan compilation.
    /// Hits pay none of this; dividing by `misses` gives the one-time
    /// compile cost a batch amortizes over its remaining solves.
    pub analysis_nanos: u64,
    /// Entries evicted (least-recently-used first) to stay within the
    /// capacity set by [`PlanCache::set_capacity`]; `0` while the cache
    /// is unbounded (the default).
    pub evictions: u64,
}

impl CacheStats {
    /// Counter difference `self - earlier`, for per-batch accounting.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            collisions: self.collisions - earlier.collisions,
            entries: self.entries,
            analysis_nanos: self.analysis_nanos - earlier.analysis_nanos,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

/// A pattern's artifacts, filled once by the lookup that analyzes it.
type Slot = Arc<OnceLock<Arc<AnalysisArtifacts>>>;

/// One cached pattern: the slot its artifacts land in plus the provenance
/// of the matrix they are built from, re-checked on every hit as a guard
/// against a corrupted entry.
#[derive(Debug, Clone)]
struct CacheEntry {
    slot: Slot,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    /// Logical recency stamp (ticks of [`PlanCache::tick`]), refreshed on
    /// every hit; the LRU eviction scan keys on it. Shared so hits can
    /// refresh it under the read lock.
    last_used: Arc<AtomicU64>,
}

impl CacheEntry {
    /// An entry-corruption guard, not a digest-collision guard: `(nrows,
    /// ncols, nnz)` are fields of the [`PatternFingerprint`] the entry was
    /// found under, so for an intact entry this cannot fail — two
    /// same-shape patterns whose digests collide would pass it. Only an
    /// entry whose stored provenance was damaged after insertion (the
    /// [`PlanCache::corrupt_entry`] fault seam) fails.
    fn verifies_against<T: Scalar>(&self, a: &CsrMatrix<T>) -> bool {
        self.nrows == a.nrows() && self.ncols == a.ncols() && self.nnz == a.nnz()
    }
}

/// Concurrent map from [`PatternFingerprint`] to shared
/// [`AnalysisArtifacts`].
///
/// One entry per pattern, whichever determinism tier asks: the structure
/// decision and the compiled plan are functions of the matrix alone, and
/// one plan serves both tiers, so a `Fast` request on a pattern a
/// `Deterministic` one warmed is an ordinary hit (and vice versa).
///
/// The lookup is the only plan path: every engine request takes its
/// artifacts from here, so all requests of a pattern run on what its
/// first miss analyzed, whoever sent them.
///
/// Each entry is a *slot* the pattern's artifacts are filled into once.
/// Reads take the `RwLock` shared, so concurrent workers hitting warm
/// patterns never serialize. A lookup that finds no entry takes the
/// exclusive lock only to insert an empty slot (and evict), and runs the
/// analysis after releasing it: distinct patterns analyze in parallel,
/// and a hit never waits behind another pattern's analysis. A requester
/// of the same pattern that finds the slot still empty blocks on the
/// slot, not the map, and then *hits* — the accounting invariant
/// `misses == distinct patterns` holds even under contention, which the
/// batch engine's tests rely on. If the analysis panics, the slot stays
/// empty and the next requester of the pattern (one already waiting on
/// it, or a later one) analyzes it and counts the miss; the map's lock is
/// never held while an analysis runs, so a panicking one cannot poison
/// it.
///
/// A hit additionally verifies the entry's stored `(nrows, ncols, nnz)`
/// provenance against the incoming matrix. Those three are already part
/// of the key, so this catches an entry corrupted in place (the
/// `cache-corruption` fault seam), not two patterns sharing a 64-bit
/// digest: the cache trusts the digest, as any hash-keyed cache does. A
/// verification failure counts as a collision *and* a miss, and the
/// entry is rebuilt from the incoming matrix.
#[derive(Debug, Default)]
pub struct PlanCache {
    map: RwLock<HashMap<PatternFingerprint, CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    collisions: AtomicU64,
    analysis_nanos: AtomicU64,
    evictions: AtomicU64,
    /// Logical clock stamping entry recency; bumped on every hit/insert.
    tick: AtomicU64,
    /// Maximum entries to retain; `0` = unbounded (the default).
    capacity: AtomicUsize,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Returns `a`'s artifacts, analyzing on first sight of its pattern
    /// (or on a verification failure of the stored entry).
    pub fn get_or_analyze<T: Scalar>(
        &self,
        acamar: &Acamar,
        a: &CsrMatrix<T>,
    ) -> Arc<AnalysisArtifacts> {
        self.get_or_analyze_with(acamar, a, &TelemetrySink::disabled())
    }

    /// [`PlanCache::get_or_analyze`] with the lookup's outcome mirrored
    /// into `sink`: a [`EventKind::CacheHit`], [`EventKind::CacheMiss`]
    /// (carrying the measured analysis time), or
    /// [`EventKind::CacheCollision`] event plus the matching counters. The
    /// cache's own statistics and the telemetry counters are fed from the
    /// same observations, so a batch's [`CacheStats`] delta and its
    /// exported metrics always agree.
    pub fn get_or_analyze_with<T: Scalar>(
        &self,
        acamar: &Acamar,
        a: &CsrMatrix<T>,
        sink: &TelemetrySink,
    ) -> Arc<AnalysisArtifacts> {
        let slot = self.slot_for(a, sink);
        self.fill(&slot, sink, || acamar.analyze(a))
    }

    /// `a`'s slot: found under the shared lock (a hit's only locking), or
    /// inserted empty under the exclusive one, which is held for nothing
    /// else. A stored entry that fails verification is replaced by an
    /// empty slot and counted as a collision.
    fn slot_for<T: Scalar>(&self, a: &CsrMatrix<T>, sink: &TelemetrySink) -> Slot {
        let fp = PatternFingerprint::of(a);
        if let Some(entry) = self.map.read().expect("cache lock poisoned").get(&fp) {
            if entry.verifies_against(a) {
                self.mark_used(entry);
                return Arc::clone(&entry.slot);
            }
            // Corrupted entry: fall through to the exclusive path and
            // replace it.
        }
        let mut map = self.map.write().expect("cache lock poisoned");
        if let Some(entry) = map.get(&fp) {
            if entry.verifies_against(a) {
                // Another lookup inserted (or repaired) it between our locks.
                self.mark_used(entry);
                return Arc::clone(&entry.slot);
            }
            self.collisions.fetch_add(1, Ordering::Relaxed);
            sink.emit(EventKind::CacheCollision);
            sink.counter_add(Counter::CacheCollisions, 1);
        }
        let slot = Slot::default();
        map.insert(
            fp,
            CacheEntry {
                slot: Arc::clone(&slot),
                nrows: fp.nrows,
                ncols: fp.ncols,
                nnz: fp.nnz,
                last_used: Arc::new(AtomicU64::new(self.next_tick())),
            },
        );
        let cap = self.capacity.load(Ordering::Relaxed);
        // Over a bound of at least one, at least two entries: there is
        // always a victim besides `fp`.
        while cap > 0 && map.len() > cap {
            self.evict_lru(&mut map, Some(&fp), sink);
        }
        slot
    }

    /// The slot's artifacts, running `analyze` into it if it is empty: the
    /// lookup that runs it counts the miss and its time, every other one a
    /// hit. An evicted slot still fills — its holders keep a valid plan.
    fn fill(
        &self,
        slot: &Slot,
        sink: &TelemetrySink,
        analyze: impl FnOnce() -> AnalysisArtifacts,
    ) -> Arc<AnalysisArtifacts> {
        let mut analysis_nanos = None;
        let art = slot.get_or_init(|| {
            let started = Instant::now();
            let art = Arc::new(analyze());
            analysis_nanos = Some(started.elapsed().as_nanos() as u64);
            art
        });
        match analysis_nanos {
            Some(nanos) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.analysis_nanos.fetch_add(nanos, Ordering::Relaxed);
                sink.emit(EventKind::CacheMiss {
                    analysis_nanos: nanos,
                });
                sink.counter_add(Counter::CacheMisses, 1);
                sink.counter_add(Counter::AnalysisNanos, nanos);
            }
            None => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                sink.emit(EventKind::CacheHit);
                sink.counter_add(Counter::CacheHits, 1);
            }
        }
        Arc::clone(art)
    }

    /// Bounds the cache to at most `capacity` entries, evicting
    /// least-recently-used entries immediately if it is already over;
    /// `0` restores the unbounded default. Evictions are counted in
    /// [`CacheStats::evictions`]; an evicted pattern's next lookup is an
    /// ordinary miss that re-analyzes and re-inserts — holders of the
    /// evicted `Arc` keep a valid (but no longer cached) plan.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        if capacity > 0 {
            let mut map = self.map.write().expect("cache lock poisoned");
            while map.len() > capacity {
                self.evict_lru(&mut map, None, &TelemetrySink::disabled());
            }
        }
    }

    /// The configured entry bound (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn evict_lru(
        &self,
        map: &mut HashMap<PatternFingerprint, CacheEntry>,
        keep: Option<&PatternFingerprint>,
        sink: &TelemetrySink,
    ) {
        let victim = map
            .iter()
            .filter(|(k, _)| Some(*k) != keep)
            .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
            .map(|(k, _)| *k);
        if let Some(k) = victim {
            map.remove(&k);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            sink.emit(EventKind::CacheEvicted);
            sink.counter_add(Counter::CacheEvictions, 1);
        }
    }

    /// Whether `fp`'s pattern is already cached with its artifacts built
    /// (no counter updates, no verification; a slot still being analyzed
    /// does not count). The serving layer's affinity router and its tests
    /// use this to ask "is this shard warm for this pattern?" without
    /// perturbing the hit/miss accounting.
    pub fn contains(&self, fp: &PatternFingerprint) -> bool {
        self.map
            .read()
            .expect("cache lock poisoned")
            .get(fp)
            .is_some_and(|e| e.slot.get().is_some())
    }

    /// Fault-injection seam: corrupts the stored provenance of `fp`'s
    /// entry (if cached) so the next lookup fails verification. Returns
    /// `true` if an entry was corrupted.
    pub fn corrupt_entry(&self, fp: &PatternFingerprint) -> bool {
        let mut map = self.map.write().expect("cache lock poisoned");
        map.get_mut(fp)
            .map(|entry| entry.nnz = entry.nnz.wrapping_add(1))
            .is_some()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            entries: self.map.read().expect("cache lock poisoned").len(),
            analysis_nanos: self.analysis_nanos.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached pattern; counters keep their lifetime totals.
    pub fn clear(&self) {
        self.map.write().expect("cache lock poisoned").clear();
    }

    /// Refreshes `entry`'s recency; whether the lookup was a hit is up to
    /// [`Self::fill`].
    fn mark_used(&self, entry: &CacheEntry) {
        entry.last_used.store(self.next_tick(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_core::AcamarConfig;
    use acamar_fabric::FabricSpec;
    use acamar_sparse::generate;
    use std::sync::{Barrier, Condvar, Mutex};
    use std::time::Duration;

    fn acamar() -> Acamar {
        Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper())
    }

    #[test]
    fn second_lookup_hits() {
        let cache = PlanCache::new();
        let a = generate::poisson2d::<f64>(12, 12);
        let first = cache.get_or_analyze(&acamar(), &a);
        let again = cache.get_or_analyze(&acamar(), &a);
        assert!(Arc::ptr_eq(&first, &again));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.collisions, 0);
    }

    #[test]
    fn distinct_patterns_get_distinct_entries() {
        let cache = PlanCache::new();
        let ac = acamar();
        cache.get_or_analyze(&ac, &generate::poisson2d::<f64>(8, 8));
        cache.get_or_analyze(&ac, &generate::poisson2d::<f64>(9, 9));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
    }

    #[test]
    fn corrupted_entry_is_detected_and_rebuilt() {
        let cache = PlanCache::new();
        let ac = acamar();
        let a = generate::poisson2d::<f64>(8, 8);
        let fp = PatternFingerprint::of(&a);
        let first = cache.get_or_analyze(&ac, &a);
        assert!(cache.corrupt_entry(&fp));
        let repaired = cache.get_or_analyze(&ac, &a);
        // The rebuilt artifacts are equal but freshly allocated.
        assert!(!Arc::ptr_eq(&first, &repaired));
        assert_eq!(*first, *repaired);
        let s = cache.stats();
        assert_eq!(s.collisions, 1);
        assert_eq!(s.misses, 2, "the collision re-analyzes as a miss");
        assert_eq!(s.hits, 0);
        // The repaired entry verifies again.
        cache.get_or_analyze(&ac, &a);
        assert_eq!(cache.stats().hits, 1);
        // Corrupting an uncached pattern is a no-op.
        assert!(!cache.corrupt_entry(&PatternFingerprint::of(&generate::poisson2d::<f64>(3, 3))));
    }

    #[test]
    fn clear_keeps_lifetime_counters() {
        let cache = PlanCache::new();
        let ac = acamar();
        let a = generate::poisson2d::<f64>(8, 8);
        cache.get_or_analyze(&ac, &a);
        cache.get_or_analyze(&ac, &a);
        cache.clear();
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!((s.hits, s.misses), (1, 1));
        // Re-analyzing after clear is a fresh miss.
        cache.get_or_analyze(&ac, &a);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn stats_since_subtracts_counters() {
        let before = CacheStats {
            hits: 3,
            misses: 2,
            collisions: 0,
            entries: 2,
            analysis_nanos: 1_000,
            evictions: 1,
        };
        let after = CacheStats {
            hits: 10,
            misses: 3,
            collisions: 1,
            entries: 3,
            analysis_nanos: 5_500,
            evictions: 3,
        };
        let d = after.since(&before);
        assert_eq!((d.hits, d.misses, d.collisions), (7, 1, 1));
        assert_eq!(d.entries, 3);
        assert_eq!(d.analysis_nanos, 4_500);
        assert_eq!(d.evictions, 2);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = PlanCache::new();
        cache.set_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let ac = acamar();
        let a = generate::poisson2d::<f64>(8, 8);
        let b = generate::poisson2d::<f64>(9, 9);
        let c = generate::poisson2d::<f64>(10, 10);
        let (fa, fb, fc) = (
            PatternFingerprint::of(&a),
            PatternFingerprint::of(&b),
            PatternFingerprint::of(&c),
        );
        cache.get_or_analyze(&ac, &a);
        cache.get_or_analyze(&ac, &b);
        // Touch `a` so `b` is the LRU entry when `c` arrives.
        cache.get_or_analyze(&ac, &a);
        cache.get_or_analyze(&ac, &c);
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert!(cache.contains(&fa));
        assert!(!cache.contains(&fb));
        assert!(cache.contains(&fc));
        // The evicted pattern's next lookup is an honest miss that
        // re-analyzes and re-inserts — never a dangling reuse.
        let misses_before = cache.stats().misses;
        cache.get_or_analyze(&ac, &b);
        let s = cache.stats();
        assert_eq!(s.misses, misses_before + 1);
        assert!(cache.contains(&fb));
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 2, "inserting b evicted the new LRU");
    }

    #[test]
    fn shrinking_capacity_evicts_immediately_and_zero_unbounds() {
        let cache = PlanCache::new();
        let ac = acamar();
        for n in 4..9 {
            cache.get_or_analyze(&ac, &generate::poisson2d::<f64>(n, n));
        }
        assert_eq!(cache.stats().entries, 5);
        cache.set_capacity(2);
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 3);
        cache.set_capacity(0);
        for n in 4..9 {
            cache.get_or_analyze(&ac, &generate::poisson2d::<f64>(n, n));
        }
        assert_eq!(cache.stats().entries, 5, "unbounded again");
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn misses_accrue_analysis_time_and_hits_do_not() {
        let cache = PlanCache::new();
        let ac = acamar();
        let a = generate::poisson2d::<f64>(12, 12);
        assert_eq!(cache.stats().analysis_nanos, 0);
        cache.get_or_analyze(&ac, &a);
        let after_miss = cache.stats().analysis_nanos;
        assert!(after_miss > 0, "a miss runs (and times) the analysis");
        cache.get_or_analyze(&ac, &a);
        assert_eq!(cache.stats().analysis_nanos, after_miss);
    }

    /// Stops an analysis in its tracks: [`Gate::hold`] runs on the
    /// analyzing thread, [`Gate::entered`] returns on the test's once the
    /// analysis is under way (its slot in the map, unfilled), and the
    /// analysis goes on after [`Gate::release`].
    struct Gate {
        entered: Barrier,
        release: Barrier,
    }

    impl Gate {
        fn new() -> Gate {
            Gate {
                entered: Barrier::new(2),
                release: Barrier::new(2),
            }
        }

        fn hold<R>(&self, then: impl FnOnce() -> R) -> R {
            self.entered.wait();
            self.release.wait();
            then()
        }

        fn entered(&self) {
            self.entered.wait();
        }

        fn release(&self) {
            self.release.wait();
        }
    }

    /// A flag the test waits on with a bound, so that a lookup stuck
    /// behind another pattern's analysis fails the test instead of hanging
    /// it.
    #[derive(Default)]
    struct Done {
        flag: Mutex<bool>,
        cv: Condvar,
    }

    impl Done {
        fn set(&self) {
            *self.flag.lock().unwrap() = true;
            self.cv.notify_all();
        }

        fn within(&self, bound: Duration) -> bool {
            let flag = self.flag.lock().unwrap();
            *self
                .cv
                .wait_timeout_while(flag, bound, |done| !*done)
                .unwrap()
                .0
        }
    }

    /// An analysis that fails, without the panic hook's report.
    fn failing_analysis() -> AnalysisArtifacts {
        std::panic::resume_unwind(Box::new("analysis failed"))
    }

    #[test]
    fn an_analysis_under_way_blocks_neither_another_patterns_hit_nor_stats() {
        let (cache, ac, sink) = (PlanCache::new(), acamar(), &TelemetrySink::disabled());
        let (cold, warm) = (
            generate::poisson2d::<f64>(12, 12),
            generate::poisson2d::<f64>(9, 9),
        );
        let warmed = cache.get_or_analyze(&ac, &warm);
        let (gate, done) = (Gate::new(), Done::default());
        std::thread::scope(|s| {
            let filler = s.spawn(|| {
                let slot = cache.slot_for(&cold, sink);
                cache.fill(&slot, sink, || gate.hold(|| ac.analyze(&cold)))
            });
            gate.entered();
            let checker = s.spawn(|| {
                let hit = cache.get_or_analyze(&ac, &warm);
                let seen = (
                    hit,
                    cache.stats(),
                    cache.contains(&PatternFingerprint::of(&cold)),
                );
                done.set();
                seen
            });
            let returned = done.within(Duration::from_secs(60));
            gate.release();
            let (hit, stats, cold_is_warm) = checker.join().unwrap();
            assert!(
                returned,
                "a warm lookup waited for another pattern's analysis"
            );
            assert!(Arc::ptr_eq(&hit, &warmed));
            // The cold pattern's slot is in the map but neither warm nor
            // counted.
            assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 2));
            assert!(!cold_is_warm);
            filler.join().unwrap();
        });
        assert!(cache.contains(&PatternFingerprint::of(&cold)));
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 2));
    }

    #[test]
    fn a_lookup_of_a_pattern_under_analysis_waits_for_it_and_hits() {
        let (cache, ac, sink) = (&PlanCache::new(), acamar(), &TelemetrySink::disabled());
        let a = generate::poisson2d::<f64>(12, 12);
        let gate = Gate::new();
        std::thread::scope(|s| {
            let filler = s.spawn(|| {
                let slot = cache.slot_for(&a, sink);
                cache.fill(&slot, sink, || gate.hold(|| ac.analyze(&a)))
            });
            gate.entered();
            // The second lookup finds the pattern's slot while it is empty.
            let slot = cache.slot_for(&a, sink);
            assert!(slot.get().is_none());
            let waiter =
                s.spawn(move || cache.fill(&slot, sink, || panic!("one pattern analyzed twice")));
            gate.release();
            let (first, second) = (filler.join().unwrap(), waiter.join().unwrap());
            assert!(Arc::ptr_eq(&first, &second));
        });
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn a_lookup_that_analyzes_after_the_first_analysis_failed_counts_the_miss() {
        let (cache, ac, sink) = (&PlanCache::new(), &acamar(), &TelemetrySink::disabled());
        let a = generate::poisson2d::<f64>(12, 12);
        let gate = Gate::new();
        let analyzed = std::thread::scope(|s| {
            let filler = s.spawn(|| {
                let slot = cache.slot_for(&a, sink);
                cache.fill(&slot, sink, || gate.hold(failing_analysis))
            });
            gate.entered();
            let slot = cache.slot_for(&a, sink);
            let a = &a;
            let waiter = s.spawn(move || cache.fill(&slot, sink, || ac.analyze(a)));
            gate.release();
            assert!(filler.join().is_err(), "the first analysis failed");
            waiter.join().unwrap()
        });
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
        assert!(stats.analysis_nanos > 0);
        // The slot the waiter filled is the cached one.
        assert!(Arc::ptr_eq(&cache.get_or_analyze(ac, &a), &analyzed));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn a_failed_analysis_poisons_nothing_and_the_next_lookup_analyzes() {
        let (cache, ac, sink) = (PlanCache::new(), acamar(), &TelemetrySink::disabled());
        let (a, b) = (
            generate::poisson2d::<f64>(12, 12),
            generate::poisson2d::<f64>(9, 9),
        );
        cache.get_or_analyze(&ac, &b);
        let failed = std::thread::scope(|s| {
            s.spawn(|| cache.fill(&cache.slot_for(&a, sink), sink, failing_analysis))
                .join()
        });
        assert!(failed.is_err());
        assert!(
            !cache.map.is_poisoned(),
            "a failed analysis poisoned the map"
        );
        let fp = PatternFingerprint::of(&a);
        assert!(!cache.contains(&fp), "an empty slot is not warm");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 2));
        // Both patterns still answer: the other one hits, this one misses.
        cache.get_or_analyze(&ac, &b);
        cache.get_or_analyze(&ac, &a);
        assert!(cache.contains(&fp));
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 2));
        cache.set_capacity(1);
        assert_eq!(cache.stats().entries, 1);
    }
}
