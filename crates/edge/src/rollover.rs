//! Slot-rollover prewarm: build the next slot's world before the clock
//! reaches it.
//!
//! The serving layer keys everything by [`SlotOfDay`]: correlation
//! tables, the answer cache, the coherence generations. At a slot
//! boundary every one of those is cold for the new slot, so the first
//! post-boundary query pays `|R|` Dijkstras plus a full shared round —
//! a latency cliff that recurs every 5 minutes, forever. The prewarm
//! loop runs on its own pool thread, watches a [`SlotClock`], and warms
//! the *next* slot (Γ build + one cache-filling round) inside the
//! configured lead window, so by the time real traffic rolls over the
//! slot is indistinguishable from a warm one.

use crate::config::PrewarmConfig;
use crowd_rtse_core::CrowdRtse;
use rtse_data::{SlotOfDay, SLOTS_PER_DAY};
use rtse_graph::RoadId;
use rtse_serve::{ServeRequest, ServerHandle};
use rtse_sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often the prewarm loop re-checks the clock and the shutdown flag.
const POLL: Duration = Duration::from_millis(5);

/// Maps wall-clock time onto slots of the day.
///
/// Benchmarks compress `slot_len` to seconds so one run crosses many
/// boundaries; production uses the paper's 5 minutes. The mapping is
/// pure arithmetic over a fixed epoch, so every shard and the prewarm
/// loop agree on the current slot without coordination.
#[derive(Debug, Clone, Copy)]
pub struct SlotClock {
    epoch: Instant,
    slot_len: Duration,
    base: SlotOfDay,
}

impl SlotClock {
    /// A clock that reads `base_slot` at `epoch` and advances one slot
    /// every `slot_len`.
    pub fn new(epoch: Instant, prewarm: &PrewarmConfig) -> Self {
        Self { epoch, slot_len: prewarm.slot_len, base: prewarm.base_slot }
    }

    fn ticks(&self, now: Instant) -> u128 {
        let nanos = self.slot_len.as_nanos().max(1);
        now.saturating_duration_since(self.epoch).as_nanos() / nanos
    }

    /// The slot the clock reads at `now`.
    pub fn slot_at(&self, now: Instant) -> SlotOfDay {
        let tick = self.ticks(now) % (SLOTS_PER_DAY as u128);
        let index = (u128::from(self.base.0) + tick) % (SLOTS_PER_DAY as u128);
        SlotOfDay(index as u16)
    }

    /// The slot the clock will read after the next boundary.
    pub fn next_slot(&self, now: Instant) -> SlotOfDay {
        let current = self.slot_at(now);
        SlotOfDay((current.0 + 1) % (SLOTS_PER_DAY as u16))
    }

    /// Time remaining until the next slot boundary.
    pub fn until_next(&self, now: Instant) -> Duration {
        let nanos = self.slot_len.as_nanos().max(1);
        let into_slot = now.saturating_duration_since(self.epoch).as_nanos() % nanos;
        let remaining = nanos - into_slot;
        // A u128 nanosecond count within one slot always fits u64.
        Duration::from_nanos(u64::try_from(remaining).unwrap_or(u64::MAX))
    }
}

/// The prewarm loop: once per boundary, inside the lead window, build
/// the next slot's correlation table and run one cache-filling round for
/// it. Exits when `shutdown` is set.
///
/// The cache-filling query goes through the ordinary serving queue, so
/// it shares a round with (rather than races) any early client query for
/// the upcoming slot, and it is dropped like any other request if the
/// server is draining.
pub(crate) fn prewarm_loop(
    engine: &CrowdRtse<'_>,
    handle: &ServerHandle<'_>,
    clock: &SlotClock,
    lead: Duration,
    shutdown: &AtomicBool,
) {
    let mut warmed: Option<SlotOfDay> = None;
    while !shutdown.load(Ordering::Acquire) {
        let now = Instant::now();
        let next = clock.next_slot(now);
        if clock.until_next(now) <= lead && warmed != Some(next) {
            // Γ first: the full table build is the expensive half, and
            // each row is get-or-init, so a concurrent client query for
            // the same slot shares rows instead of duplicating Dijkstras.
            let _ = engine.offline().prewarm(engine.graph(), next);
            let warm = ServeRequest::new(vec![RoadId(0)], next);
            let _ = handle.query(warm);
            warmed = Some(next);
        }
        std::thread::sleep(POLL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(slot_len_ms: u64, base: u16) -> (SlotClock, Instant) {
        let epoch = Instant::now();
        let prewarm = PrewarmConfig {
            slot_len: Duration::from_millis(slot_len_ms),
            lead: Duration::from_millis(1),
            base_slot: SlotOfDay(base),
        };
        (SlotClock::new(epoch, &prewarm), epoch)
    }

    #[test]
    fn clock_advances_one_slot_per_slot_len() {
        let (clock, epoch) = clock(100, 5);
        assert_eq!(clock.slot_at(epoch), SlotOfDay(5));
        assert_eq!(clock.slot_at(epoch + Duration::from_millis(99)), SlotOfDay(5));
        assert_eq!(clock.slot_at(epoch + Duration::from_millis(100)), SlotOfDay(6));
        assert_eq!(clock.slot_at(epoch + Duration::from_millis(350)), SlotOfDay(8));
    }

    #[test]
    fn clock_wraps_at_day_end() {
        let (clock, epoch) = clock(100, (SLOTS_PER_DAY - 1) as u16);
        assert_eq!(clock.next_slot(epoch), SlotOfDay(0));
        assert_eq!(clock.slot_at(epoch + Duration::from_millis(100)), SlotOfDay(0));
    }

    #[test]
    fn until_next_counts_down_within_the_slot() {
        let (clock, epoch) = clock(100, 0);
        let at_30 = clock.until_next(epoch + Duration::from_millis(30));
        assert!(at_30 <= Duration::from_millis(70), "{at_30:?}");
        assert!(at_30 > Duration::from_millis(50), "{at_30:?}");
    }

    #[test]
    fn before_epoch_reads_base_slot() {
        let (clock, epoch) = clock(100, 7);
        // saturating_duration_since clamps pre-epoch reads to the epoch.
        assert_eq!(clock.slot_at(epoch - Duration::from_secs(5)), SlotOfDay(7));
    }
}
