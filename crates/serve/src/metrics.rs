//! Serving counters and their consistent snapshot.
//!
//! All counters are monotone atomics updated by the serving workers and
//! the admission path; [`ServeMetrics::snapshot`] reads them into a plain
//! [`MetricsSnapshot`] with the derived ratios the load harness records
//! (coalescing ratio, cache hit rate).
//!
//! The metrics double-book onto the workspace observability registry
//! (`rtse-obs`) when constructed with [`ServeMetrics::with_obs`]: cache
//! hits mirror into the `serve.cache_hit` stage counter, so one
//! `Registry::snapshot_json` carries the serving layer alongside the
//! engine stages. Cross-counter coherence with the answer cache's
//! generations is provided by [`ServeSnapshot`] (see
//! [`crate::coherence`]).

use rtse_obs::{ObsHandle, Stage};
use rtse_sync::atomic::{AtomicU64, Ordering};

/// Live serving counters (shared, lock-free).
#[derive(Debug, Default)]
pub struct ServeMetrics {
    submitted: AtomicU64,
    answered: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    rounds: AtomicU64,
    cache_hit_queries: AtomicU64,
    batches: AtomicU64,
    batched_queries: AtomicU64,
    /// Mirror of the cache-hit counter onto the shared stage registry.
    obs: ObsHandle,
}

impl ServeMetrics {
    /// Counters that mirror onto `obs` (`serve.cache_hit`) as they
    /// accumulate. `ServeMetrics::default()` mirrors into a no-op handle.
    pub fn with_obs(obs: ObsHandle) -> Self {
        Self { obs, ..Self::default() }
    }

    pub(crate) fn note_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed); // lint: relaxed-counter
    }

    pub(crate) fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed); // lint: relaxed-counter
    }

    pub(crate) fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed); // lint: relaxed-counter
    }

    pub(crate) fn note_round(&self) {
        self.rounds.fetch_add(1, Ordering::Relaxed); // lint: relaxed-counter
    }

    pub(crate) fn note_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed); // lint: relaxed-counter
        self.batched_queries.fetch_add(size as u64, Ordering::Relaxed); // lint: relaxed-counter
    }

    pub(crate) fn note_answered(&self, cache_hit: bool) {
        self.answered.fetch_add(1, Ordering::Relaxed); // lint: relaxed-counter
        if cache_hit {
            self.cache_hit_queries.fetch_add(1, Ordering::Relaxed); // lint: relaxed-counter
            self.obs.incr(Stage::ServeCacheHit);
        }
    }

    /// Reads every counter. Individual counters are exact; the snapshot as
    /// a whole is only quiescently consistent (take it after the load
    /// drains, as [`crate::serve`] does, for exact cross-counter ratios).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed), // lint: relaxed-counter
            answered: self.answered.load(Ordering::Relaxed),   // lint: relaxed-counter
            shed: self.shed.load(Ordering::Relaxed),           // lint: relaxed-counter
            rejected: self.rejected.load(Ordering::Relaxed),   // lint: relaxed-counter
            rounds: self.rounds.load(Ordering::Relaxed),       // lint: relaxed-counter
            cache_hit_queries: self.cache_hit_queries.load(Ordering::Relaxed), // lint: relaxed-counter
            batches: self.batches.load(Ordering::Relaxed), // lint: relaxed-counter
            batched_queries: self.batched_queries.load(Ordering::Relaxed), // lint: relaxed-counter
        }
    }
}

/// A point-in-time copy of the serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Requests admitted: queued, or answered inside `submit` from the
    /// cache.
    pub submitted: u64,
    /// Requests answered with an estimate.
    pub answered: u64,
    /// Requests shed past their deadline (typed rejection).
    pub shed: u64,
    /// Requests rejected at admission (queue full).
    pub rejected: u64,
    /// OCS→crowd→GSP rounds actually executed.
    pub rounds: u64,
    /// Answered requests served from the slot cache.
    pub cache_hit_queries: u64,
    /// Batches fanned out (each batch shares one round or one cached
    /// round). A request answered inside `submit` is a batch of one.
    pub batches: u64,
    /// Total requests across those batches.
    pub batched_queries: u64,
}

/// One coherent cross-structure view of a serving deployment: the metric
/// counters together with every slot's cache generation, read inside a
/// single [`crate::coherence::Coherence::read`] section so the linked
/// pair (`metrics.rounds`, `Σ generations`) is never torn (see
/// `ServerHandle::coherent_snapshot`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSnapshot {
    /// The serving counters.
    pub metrics: MetricsSnapshot,
    /// Cache generation per slot of the day (0 = never computed).
    pub generations: Vec<u64>,
}

impl ServeSnapshot {
    /// Total rebuilds across all slots. Equals `metrics.rounds` in any
    /// snapshot taken coherently on a server that admits only in-range
    /// slots — the invariant the coherence layer exists to protect.
    pub fn total_generations(&self) -> u64 {
        self.generations.iter().sum()
    }
}

impl MetricsSnapshot {
    /// GSP propagations per answered query: 1.0 means every query paid for
    /// its own round; below 1.0, batching/caching shared rounds across
    /// queries. The paper-facing headline is [`Self::rounds_per_100`].
    pub fn coalescing_ratio(&self) -> f64 {
        self.rounds as f64 / self.answered.max(1) as f64
    }

    /// GSP rounds per 100 queries served (lower = more sharing).
    pub fn rounds_per_100(&self) -> f64 {
        100.0 * self.coalescing_ratio()
    }

    /// Fraction of answered queries served from the slot cache.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache_hit_queries as f64 / self.answered.max(1) as f64
    }

    /// Mean queries per fanned-out batch.
    pub fn mean_batch_size(&self) -> f64 {
        self.batched_queries as f64 / self.batches.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_ratios_derive() {
        let m = ServeMetrics::default();
        for _ in 0..10 {
            m.note_submitted();
        }
        m.note_rejected();
        m.note_shed();
        m.note_round();
        m.note_batch(4);
        m.note_batch(4);
        for i in 0..8 {
            m.note_answered(i >= 2);
        }
        let s = m.snapshot();
        assert_eq!(s.submitted, 10);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.shed, 1);
        assert_eq!(s.rounds, 1);
        assert_eq!(s.answered, 8);
        assert_eq!(s.cache_hit_queries, 6);
        assert!((s.coalescing_ratio() - 1.0 / 8.0).abs() < 1e-12);
        assert!((s.rounds_per_100() - 12.5).abs() < 1e-12);
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.mean_batch_size() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_has_safe_ratios() {
        let s = MetricsSnapshot::default();
        assert!((s.coalescing_ratio()).abs() < 1e-12);
        assert!((s.cache_hit_rate()).abs() < 1e-12);
        assert!((s.mean_batch_size()).abs() < 1e-12);
    }
}
