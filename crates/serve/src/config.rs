//! Serving configuration.

use crowd_rtse_core::OnlineConfig;
use rtse_check::InvariantViolation;
use rtse_data::{SlotOfDay, SLOTS_PER_DAY};
use rtse_obs::ObsHandle;
use std::time::Duration;

/// Longest admissible batch window. Coalescing beyond this adds latency
/// without adding sharing — the answer cache already covers slow repeats.
pub const MAX_BATCH_WINDOW: Duration = Duration::from_secs(10);
/// Longest admissible answer TTL: one slot length. A served estimate must
/// never outlive the 5-minute slot whose traffic it describes.
pub const MAX_TTL: Duration = Duration::from_secs(300);
/// Most serving workers a config may ask for.
pub const MAX_WORKERS: usize = 1024;

/// Knobs of one serving deployment.
///
/// The defaults favor throughput under bursty same-slot load: a couple of
/// milliseconds of coalescing, a queue deep enough to absorb bursts, no
/// deadline (callers opt in per request or set `default_deadline`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// How long a worker holds a batch open for more same-slot arrivals
    /// after the first request is picked up. Only a batch that will
    /// compute a round waits: a request whose slot has a fresh enough
    /// cached round is answered inside `submit`, and a queued batch whose
    /// slot is already fresh is answered at pickup. Zero disables
    /// coalescing-by-waiting (queued same-slot requests still merge).
    pub batch_window: Duration,
    /// Bounded admission queue depth; submissions that must queue beyond
    /// it are rejected with [`crate::ServeError::QueueFull`]. A request the
    /// cache answers inside `submit` never occupies the queue.
    pub queue_depth: usize,
    /// Deadline applied to requests that do not carry their own. `None`
    /// means unlimited.
    pub default_deadline: Option<Duration>,
    /// Answer freshness bound: a cached slot round older than this is
    /// recomputed. Requests may demand stricter freshness via
    /// [`crate::ServeRequest::max_staleness`].
    pub ttl: Duration,
    /// Serving worker threads (batch assemblers/executors). `0` sizes from
    /// `RTSE_THREADS` / host parallelism like [`rtse_pool::ComputePool`].
    pub workers: usize,
    /// Slots whose correlation tables are built *before* the serving loops
    /// start accepting requests. A cold Γ build takes `|R|` Dijkstras; when
    /// it lands inside the first batch's compute it stacks on the batch
    /// window and shows up as a multi-millisecond `serve.queue_wait` tail
    /// for every request queued behind it. Deployments that know their
    /// traffic slots list them here to keep the first rounds warm; empty
    /// (the default) preserves fully-lazy builds.
    pub prewarm_slots: Vec<SlotOfDay>,
    /// Engine configuration used for every shared round.
    pub online: OnlineConfig,
    /// Observability handle the serving layer records into: shared rounds
    /// become `serve.round` spans, per-request queue time becomes
    /// `serve.queue_wait` samples, cache hits mirror into
    /// `serve.cache_hit`. No-op (zero overhead) by default; point it at a
    /// registry shared with the engine's [`CrowdRtse::with_obs`] handle
    /// for one combined per-stage snapshot.
    ///
    /// [`CrowdRtse::with_obs`]: crowd_rtse_core::CrowdRtse::with_obs
    pub obs: ObsHandle,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            batch_window: Duration::from_millis(2),
            queue_depth: 256,
            default_deadline: None,
            ttl: Duration::from_secs(60),
            workers: 0,
            prewarm_slots: Vec::new(),
            online: OnlineConfig::default(),
            obs: ObsHandle::noop(),
        }
    }
}

impl ServeConfig {
    /// Longest per-request deadline this deployment admits. A deadline is
    /// permission to stay queued; letting one run past the TTL would let a
    /// request be *answered* later than the freshness the server promises,
    /// so the bound is the TTL (never below the configured default
    /// deadline, which the operator vouched for explicitly).
    pub fn deadline_bound(&self) -> Duration {
        match self.default_deadline {
            Some(default) => self.ttl.max(default),
            None => self.ttl,
        }
    }

    /// Longest per-request `max_staleness` this deployment admits: the
    /// TTL. The batch freshness bound is the *minimum* over a batch's
    /// members, and a lone request is its own batch — so admitting a
    /// looser budget would let a cached round older than the TTL answer
    /// it. Out-of-bounds budgets are a typed reject at admission
    /// ([`crate::ServeError::StalenessOutOfBounds`]), not a silent clamp.
    pub fn staleness_bound(&self) -> Duration {
        self.ttl
    }
}

impl rtse_check::Validate for ServeConfig {
    fn validate(&self) -> Result<(), InvariantViolation> {
        rtse_check::ensure(self.queue_depth >= 1, "serve.queue_depth_positive", || {
            "queue_depth is 0; the server could never admit a request".into()
        })?;
        rtse_check::ensure(
            self.batch_window <= MAX_BATCH_WINDOW,
            "serve.batch_window_bounded",
            || {
                format!(
                    "batch_window {:?} exceeds the {:?} bound",
                    self.batch_window, MAX_BATCH_WINDOW
                )
            },
        )?;
        rtse_check::ensure(self.ttl <= MAX_TTL, "serve.ttl_within_slot", || {
            format!("ttl {:?} exceeds the slot length ({:?})", self.ttl, MAX_TTL)
        })?;
        rtse_check::ensure(self.workers <= MAX_WORKERS, "serve.workers_bounded", || {
            format!("workers {} exceeds the {MAX_WORKERS} bound", self.workers)
        })?;
        rtse_check::ensure(
            self.prewarm_slots.len() <= SLOTS_PER_DAY,
            "serve.prewarm_bounded",
            || {
                format!(
                    "{} prewarm slots exceed the {SLOTS_PER_DAY} slots of a day",
                    self.prewarm_slots.len()
                )
            },
        )?;
        rtse_check::ensure(
            self.online.theta.is_finite() && self.online.theta > 0.0 && self.online.theta <= 1.0,
            "serve.theta_in_range",
            || format!("theta {} outside (0, 1]", self.online.theta),
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtse_check::Validate;

    #[test]
    fn default_config_is_valid() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn contract_rejects_bad_knobs() {
        let zero_queue = ServeConfig { queue_depth: 0, ..Default::default() };
        assert_eq!(
            zero_queue.validate().expect_err("must fail").invariant,
            "serve.queue_depth_positive"
        );

        let wide_window =
            ServeConfig { batch_window: Duration::from_secs(11), ..Default::default() };
        assert_eq!(
            wide_window.validate().expect_err("must fail").invariant,
            "serve.batch_window_bounded"
        );

        let stale = ServeConfig { ttl: Duration::from_secs(301), ..Default::default() };
        assert_eq!(stale.validate().expect_err("must fail").invariant, "serve.ttl_within_slot");

        let armies = ServeConfig { workers: MAX_WORKERS + 1, ..Default::default() };
        assert_eq!(armies.validate().expect_err("must fail").invariant, "serve.workers_bounded");

        let all_day = ServeConfig {
            prewarm_slots: (0..=SLOTS_PER_DAY).map(|_| SlotOfDay(0)).collect(),
            ..Default::default()
        };
        assert_eq!(all_day.validate().expect_err("must fail").invariant, "serve.prewarm_bounded");

        let mut bad_theta = ServeConfig::default();
        bad_theta.online.theta = 1.5;
        assert_eq!(bad_theta.validate().expect_err("must fail").invariant, "serve.theta_in_range");
    }
}
