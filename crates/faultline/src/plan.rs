//! Fault categories and the seeded decision plan.

use acamar_sparse::rng::DetRng;
use std::fmt;

/// The fault categories the harness can inject, one per seam the
/// resilient engine and the serving layer defend.
///
/// The first five target engine/fabric seams (PR 2); the last three
/// target the serving layer's own seams — the dispatcher threads and the
/// admission queue — which sit *above* the engine's per-attempt panic
/// isolation and therefore need their own recovery to survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultCategory {
    /// A NaN/Inf value written into a right-hand-side vector before the
    /// solve starts (seam: `acamar-engine` job intake).
    RhsPoison,
    /// A stuck bit in the Dynamic SpMV Kernel corrupting one output
    /// element of every loop-phase SpMV of one solver attempt (seam:
    /// `acamar-fabric` kernel executor).
    SpmvBitFlip,
    /// An ICAP partial-reconfiguration abort: a scheduled nested-region
    /// swap fails mid-stream, leaving the previous unroll active (seam:
    /// `acamar-fabric` reconfiguration controller).
    ReconfigAbort,
    /// Corruption of a plan-cache entry's stored pattern metadata (seam:
    /// `acamar-engine` plan cache).
    CacheCorruption,
    /// A batch runner panicking or stalling mid-job (seam:
    /// `acamar-engine` solver attempt).
    WorkerDisruption,
    /// A shard dispatcher thread panicking while it holds a wave of
    /// in-flight jobs (seam: `acamar-service` dispatch loop). The
    /// dispatcher catches its own panic, swaps in a fresh engine,
    /// re-queues the wave and serves again.
    DispatcherPanic,
    /// A shard dispatcher wedging for a bounded interval before
    /// dispatching its wave (seam: `acamar-service` dispatch loop). The
    /// dispatcher reports the stall itself, flagging its shard `Suspect`.
    DispatcherStall,
    /// A queued job silently dropped between pop and dispatch (seam:
    /// `acamar-service` admission queue). The retry budget must re-queue
    /// it or resolve its ticket with a typed error.
    QueueDrop,
}

impl FaultCategory {
    /// Every category, in [`FaultCategory::index`] order.
    pub const ALL: [FaultCategory; Self::COUNT] = [
        FaultCategory::RhsPoison,
        FaultCategory::SpmvBitFlip,
        FaultCategory::ReconfigAbort,
        FaultCategory::CacheCorruption,
        FaultCategory::WorkerDisruption,
        FaultCategory::DispatcherPanic,
        FaultCategory::DispatcherStall,
        FaultCategory::QueueDrop,
    ];

    /// Number of categories (length of [`FaultCategory::ALL`]).
    pub const COUNT: usize = 8;

    /// The engine/fabric-seam categories (what `Engine` itself defends).
    pub const ENGINE: [FaultCategory; 5] = [
        FaultCategory::RhsPoison,
        FaultCategory::SpmvBitFlip,
        FaultCategory::ReconfigAbort,
        FaultCategory::CacheCorruption,
        FaultCategory::WorkerDisruption,
    ];

    /// The service-seam categories (what the serving layer's supervision
    /// and failover machinery defends).
    pub const SERVICE: [FaultCategory; 3] = [
        FaultCategory::DispatcherPanic,
        FaultCategory::DispatcherStall,
        FaultCategory::QueueDrop,
    ];

    /// Dense index of this category in [`FaultCategory::ALL`] — the key
    /// for per-category counters and tallies.
    pub fn index(self) -> usize {
        match self {
            FaultCategory::RhsPoison => 0,
            FaultCategory::SpmvBitFlip => 1,
            FaultCategory::ReconfigAbort => 2,
            FaultCategory::CacheCorruption => 3,
            FaultCategory::WorkerDisruption => 4,
            FaultCategory::DispatcherPanic => 5,
            FaultCategory::DispatcherStall => 6,
            FaultCategory::QueueDrop => 7,
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            FaultCategory::RhsPoison => "rhs-poison",
            FaultCategory::SpmvBitFlip => "spmv-bit-flip",
            FaultCategory::ReconfigAbort => "reconfig-abort",
            FaultCategory::CacheCorruption => "cache-corruption",
            FaultCategory::WorkerDisruption => "worker-disruption",
            FaultCategory::DispatcherPanic => "dispatcher-panic",
            FaultCategory::DispatcherStall => "dispatcher-stall",
            FaultCategory::QueueDrop => "queue-drop",
        }
    }
}

impl fmt::Display for FaultCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Seeded, deterministic fault schedule.
///
/// Every injection decision is a pure function of `(seed, category, job,
/// site)` — not of wall-clock time, thread scheduling, or how many other
/// decisions were made before it. Two runs of the same batch with the
/// same plan therefore inject the *same* faults into the *same* jobs,
/// whatever the worker count, which is what makes chaos runs replayable
/// and their reports assertable in tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: [f64; FaultCategory::COUNT],
}

impl FaultPlan {
    /// A quiet plan (every rate zero) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0.0; FaultCategory::COUNT],
        }
    }

    /// A plan injecting every category at the same `rate`.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [rate.clamp(0.0, 1.0); FaultCategory::COUNT],
        }
    }

    /// Returns a copy with `category` injected at `rate` (clamped to
    /// `[0, 1]`).
    pub fn with_rate(mut self, category: FaultCategory, rate: f64) -> FaultPlan {
        self.rates[category.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The injection rate configured for `category`.
    pub fn rate(&self, category: FaultCategory) -> f64 {
        self.rates[category.index()]
    }

    /// `true` when no category can fire.
    pub fn is_quiet(&self) -> bool {
        self.rates.iter().all(|&r| r == 0.0)
    }

    /// The injection decision for `(category, job, site)`.
    pub fn roll(&self, category: FaultCategory, job: u64, site: u64) -> bool {
        self.rng(category, job, site)
            .gen_bool(self.rates[category.index()])
    }

    /// A generator keyed to `(category, job, site)` for drawing fault
    /// *parameters* (which element to poison, how long to stall) once the
    /// roll fired. The first draw replays the roll and is discarded by
    /// callers via [`FaultPlan::roll`]; parameter draws should use fresh
    /// sites.
    pub fn rng(&self, category: FaultCategory, job: u64, site: u64) -> DetRng {
        DetRng::seed_from_u64(mix(self.seed, &[category.index() as u64 + 1, job, site]))
    }
}

/// SplitMix64-style absorption of `words` into `seed`, so nearby
/// `(job, site)` pairs land on uncorrelated streams.
fn mix(seed: u64, words: &[u64]) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for &w in words {
        h ^= w;
        h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_all_order() {
        for (i, c) in FaultCategory::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.label().is_empty());
            assert_eq!(c.to_string(), c.label());
        }
    }

    #[test]
    fn decisions_are_deterministic_and_site_keyed() {
        let p = FaultPlan::uniform(42, 0.5);
        for job in 0..16 {
            for site in 0..4 {
                let a = p.roll(FaultCategory::SpmvBitFlip, job, site);
                let b = p.roll(FaultCategory::SpmvBitFlip, job, site);
                assert_eq!(a, b, "roll must be pure in (cat, job, site)");
            }
        }
    }

    #[test]
    fn rates_zero_and_one_are_exact() {
        let quiet = FaultPlan::new(7);
        assert!(quiet.is_quiet());
        let always = FaultPlan::new(7).with_rate(FaultCategory::RhsPoison, 1.0);
        for job in 0..32 {
            assert!(!quiet.roll(FaultCategory::RhsPoison, job, 0));
            assert!(always.roll(FaultCategory::RhsPoison, job, 0));
            assert!(!always.roll(FaultCategory::SpmvBitFlip, job, 0));
        }
    }

    #[test]
    fn observed_rate_tracks_configured_rate() {
        let p = FaultPlan::uniform(3, 0.25);
        let hits = (0..10_000)
            .filter(|&j| p.roll(FaultCategory::WorkerDisruption, j, 0))
            .count();
        assert!((2200..2800).contains(&hits), "hits {hits}");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::uniform(1, 0.5);
        let b = FaultPlan::uniform(2, 0.5);
        let same = (0..256)
            .filter(|&j| {
                a.roll(FaultCategory::CacheCorruption, j, 0)
                    == b.roll(FaultCategory::CacheCorruption, j, 0)
            })
            .count();
        assert!(same < 256, "seeds must decorrelate the schedule");
    }
}
