//! Service construction knobs.

use acamar_engine::ResilienceConfig;
use std::time::Duration;

/// Requests diverted away from a `Broken` shard before its breaker
/// half-opens and the next request is admitted as a probe. Count-based
/// (not wall-clock) so replays walk the same state sequence.
pub const PROBE_AFTER: u32 = 8;

/// Lower bound on the retry-after carried by queue-full rejections (the
/// estimate is `depth × EWMA(per-job service time) / workers`, floored
/// here so an idle service never advertises zero).
pub const RETRY_AFTER_FLOOR: Duration = Duration::from_millis(1);

/// Scheduling class of one admitted job. Lower classes dispatch first;
/// [`ServiceConfig::starvation_bound`] promotes any job that has waited
/// too long to the front class, so low-priority tenants cannot starve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Latency-sensitive traffic; dispatched before all other classes.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Throughput/batch traffic; yields to the other classes until the
    /// starvation bound promotes it.
    Low,
}

impl Priority {
    /// Number of scheduling classes.
    pub const COUNT: usize = 3;

    /// Every class, dispatch order first.
    pub const ALL: [Priority; Priority::COUNT] = [Priority::High, Priority::Normal, Priority::Low];

    /// Dense class index (`High = 0` … `Low = 2`).
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Configuration of a [`Service`](crate::Service).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Engine shards; each owns its own [`PlanCache`] and workspace
    /// pools, and one dispatcher thread. Clamped to at least 1.
    ///
    /// [`PlanCache`]: acamar_engine::PlanCache
    pub shards: usize,
    /// Runners per shard engine batch, and the dispatch wave size: a wave
    /// of `k ≥ 2` jobs runs on the dispatcher plus `k − 1` scoped threads
    /// that exist only while it runs. Clamped to at least 1.
    pub workers_per_shard: usize,
    /// Bound on each shard's admission queue; a submit that would exceed
    /// it is rejected with
    /// [`AdmissionError::QueueFull`](crate::AdmissionError::QueueFull)
    /// carrying a retry-after estimate. Clamped to at least 1.
    pub queue_capacity: usize,
    /// Once a queued job has waited this long it is promoted to the
    /// front scheduling class regardless of its [`Priority`] — the
    /// bounded-wait guarantee against priority inversion.
    pub starvation_bound: Duration,
    /// Hardening configuration installed on every shard engine.
    pub resilience: ResilienceConfig,
    /// Delivery retries a job failed by a dispatcher panic or queue drop
    /// may consume before its ticket resolves with a typed error
    /// ([`ServiceError::ShardRestarted`] / [`ServiceError::Dropped`]).
    ///
    /// [`ServiceError::ShardRestarted`]: crate::ServiceError::ShardRestarted
    /// [`ServiceError::Dropped`]: crate::ServiceError::Dropped
    pub retry_budget: u32,
    /// Base of a dispatcher's restart backoff: after recovering from a
    /// panic, before it serves again, the dispatcher sleeps
    /// `base × 2^(restarts−1)` plus a seed-derived jitter below `base`
    /// (capped at 64 × base), so restart storms damp deterministically.
    pub restart_backoff: Duration,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            shards: 2,
            workers_per_shard: 1,
            queue_capacity: 64,
            starvation_bound: Duration::from_millis(250),
            resilience: ResilienceConfig::default(),
            retry_budget: 2,
            restart_backoff: Duration::from_millis(1),
        }
    }
}

impl ServiceConfig {
    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> ServiceConfig {
        self.shards = shards;
        self
    }

    /// Sets the per-shard worker count.
    pub fn with_workers_per_shard(mut self, workers: usize) -> ServiceConfig {
        self.workers_per_shard = workers;
        self
    }

    /// Sets the per-shard queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the anti-starvation promotion bound.
    pub fn with_starvation_bound(mut self, bound: Duration) -> ServiceConfig {
        self.starvation_bound = bound;
        self
    }

    /// Sets the shard engines' hardening configuration.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> ServiceConfig {
        self.resilience = resilience;
        self
    }

    /// Sets the per-job delivery retry budget.
    pub fn with_retry_budget(mut self, retries: u32) -> ServiceConfig {
        self.retry_budget = retries;
        self
    }

    /// Sets the dispatcher restart backoff base.
    pub fn with_restart_backoff(mut self, base: Duration) -> ServiceConfig {
        self.restart_backoff = base;
        self
    }

    /// The config with its count fields clamped to their minima.
    pub(crate) fn normalized(mut self) -> ServiceConfig {
        self.shards = self.shards.max(1);
        self.workers_per_shard = self.workers_per_shard.max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_indices_are_dense_and_ordered() {
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert!(Priority::High < Priority::Normal);
        assert!(Priority::Normal < Priority::Low);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn normalized_clamps_zero_counts() {
        let cfg = ServiceConfig::default()
            .with_shards(0)
            .with_workers_per_shard(0)
            .with_queue_capacity(0)
            .normalized();
        assert_eq!(
            (cfg.shards, cfg.workers_per_shard, cfg.queue_capacity),
            (1, 1, 1)
        );
    }
}
