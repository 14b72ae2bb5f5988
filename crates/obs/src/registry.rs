//! The metrics registry and the injectable [`ObsHandle`].
//!
//! A [`Registry`] is a flat array of per-stage cells (counter, histogram
//! and gauge), all atomics: recording never locks, never allocates, and is
//! safe from any pipeline thread. Instrumented code never holds a
//! `Registry` directly — it takes an [`ObsHandle`], which is either a
//! shared handle onto a registry or a no-op. The no-op handle skips
//! every atomic *and* every `Instant::now()` call, so un-instrumented
//! runs pay only an inlined branch on an `Option`; the `noop` cargo
//! feature hard-wires that branch closed at compile time.

use crate::hist::{HistSnapshot, LogLinearHistogram};
use crate::stage::{Stage, StageKind};
use rtse_sync::atomic::{AtomicI64, AtomicU64, Ordering};
use rtse_sync::Arc;
use std::time::{Duration, Instant};

/// One stage's metrics: event count, value/duration histogram, gauge.
#[derive(Debug, Default)]
struct StageCell {
    count: AtomicU64,
    hist: LogLinearHistogram,
    gauge: AtomicI64,
    gauge_max: AtomicI64,
}

/// A registry of per-stage atomic metrics, indexed by [`Stage`].
#[derive(Debug, Default)]
pub struct Registry {
    cells: [StageCell; Stage::COUNT],
}

impl Registry {
    /// A fresh registry with every cell at zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn cell(&self, stage: Stage) -> &StageCell {
        &self.cells[stage as usize]
    }

    /// Adds `n` to the stage's event counter.
    pub fn add(&self, stage: Stage, n: u64) {
        self.cell(stage).count.fetch_add(n, Ordering::Relaxed); // lint: relaxed-counter
    }

    /// Records one value into the stage's histogram (and counts it).
    pub fn record(&self, stage: Stage, value: u64) {
        let cell = self.cell(stage);
        cell.count.fetch_add(1, Ordering::Relaxed); // lint: relaxed-counter
        cell.hist.record(value);
    }

    /// Records one duration, in nanoseconds.
    pub fn record_duration(&self, stage: Stage, d: Duration) {
        self.record(stage, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Moves the stage's gauge by `delta`, tracking the high-water mark.
    pub fn gauge_add(&self, stage: Stage, delta: i64) {
        let cell = self.cell(stage);
        let now = cell.gauge.fetch_add(delta, Ordering::Relaxed).saturating_add(delta); // lint: relaxed-counter
        cell.gauge_max.fetch_max(now, Ordering::Relaxed); // lint: relaxed-counter
    }

    /// The stage's current event count.
    pub fn count(&self, stage: Stage) -> u64 {
        self.cell(stage).count.load(Ordering::Relaxed) // lint: relaxed-counter
    }

    /// The stage's current gauge level.
    pub fn gauge(&self, stage: Stage) -> i64 {
        self.cell(stage).gauge.load(Ordering::Relaxed) // lint: relaxed-counter
    }

    /// A plain copy of every stage's metrics.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            stages: Stage::ALL
                .iter()
                .map(|&stage| {
                    let cell = self.cell(stage);
                    StageSnapshot {
                        stage,
                        count: cell.count.load(Ordering::Relaxed), // lint: relaxed-counter
                        hist: cell.hist.snapshot(),
                        gauge_current: cell.gauge.load(Ordering::Relaxed), // lint: relaxed-counter
                        gauge_max: cell.gauge_max.load(Ordering::Relaxed), // lint: relaxed-counter
                    }
                })
                .collect(),
        }
    }

    /// The full snapshot rendered as one JSON object (see
    /// [`RegistrySnapshot::to_json`]); embedded verbatim into
    /// `BENCH_offline.json` by `exp_offline`.
    pub fn snapshot_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// A point-in-time copy of a whole [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    /// One entry per stage, in [`Stage::ALL`] order.
    pub stages: Vec<StageSnapshot>,
}

/// One stage's snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSnapshot {
    /// Which stage this is.
    pub stage: Stage,
    /// Event count (span entries, recorded values, or counter total).
    pub count: u64,
    /// Histogram of recorded durations (ns) or values.
    pub hist: HistSnapshot,
    /// Current gauge level (gauge stages only; 0 otherwise).
    pub gauge_current: i64,
    /// Gauge high-water mark.
    pub gauge_max: i64,
}

impl RegistrySnapshot {
    /// The snapshot for one stage.
    pub fn stage(&self, stage: Stage) -> &StageSnapshot {
        &self.stages[stage as usize]
    }

    /// Renders `{"stages": {"rtf.slot_fit": {...}, ...}}`. Every stage is
    /// always present (zeros included) so downstream JSON consumers can
    /// rely on the key set; keys follow [`Stage::name`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"stages\": {");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(s.stage.name());
            out.push_str("\": ");
            out.push_str(&s.to_json());
        }
        out.push_str("}}");
        out
    }
}

impl StageSnapshot {
    fn to_json(&self) -> String {
        let kind = self.stage.kind();
        match kind {
            StageKind::Counter => {
                format!("{{\"kind\": \"counter\", \"count\": {}}}", self.count)
            }
            StageKind::Gauge => format!(
                "{{\"kind\": \"gauge\", \"count\": {}, \"current\": {}, \"max\": {}}}",
                self.count, self.gauge_current, self.gauge_max
            ),
            StageKind::Span | StageKind::Value => {
                let unit = if kind == StageKind::Span { "_ns" } else { "" };
                let q = |p: f64| self.hist.quantile(p).unwrap_or(0);
                format!(
                    "{{\"kind\": \"{}\", \"count\": {}, \"sum{unit}\": {}, \
                     \"mean{unit}\": {:.3}, \"min{unit}\": {}, \"p50{unit}\": {}, \
                     \"p90{unit}\": {}, \"p99{unit}\": {}, \"max{unit}\": {}}}",
                    kind.name(),
                    self.count,
                    self.hist.sum,
                    self.hist.mean(),
                    self.hist.min().unwrap_or(0),
                    q(0.50),
                    q(0.90),
                    q(0.99),
                    self.hist.max().unwrap_or(0),
                )
            }
        }
    }
}

/// The injectable observability handle: a shared registry, or a no-op.
///
/// Cheap to clone (an `Option<Arc>`); `Default` is the no-op. Every
/// recording method is a single branch when disabled, and [`Self::span`]
/// skips the clock read entirely.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    registry: Option<Arc<Registry>>,
}

impl ObsHandle {
    /// The disabled handle: every recording call is an inert branch.
    pub fn noop() -> Self {
        Self { registry: None }
    }

    /// An enabled handle onto a fresh private registry.
    pub fn fresh() -> Self {
        Self::from_registry(Arc::new(Registry::new()))
    }

    /// An enabled handle onto a shared registry.
    pub fn from_registry(registry: Arc<Registry>) -> Self {
        Self { registry: Some(registry) }
    }

    /// The underlying registry, if any was attached. Present even under
    /// the `noop` feature (snapshots render, all zeros) so bench plumbing
    /// does not need feature gates.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// Whether recording calls reach a registry.
    pub fn is_enabled(&self) -> bool {
        self.reg().is_some()
    }

    #[inline]
    fn reg(&self) -> Option<&Registry> {
        if cfg!(feature = "noop") {
            None
        } else {
            self.registry.as_deref()
        }
    }

    /// Counts one event.
    #[inline]
    pub fn incr(&self, stage: Stage) {
        if let Some(reg) = self.reg() {
            reg.add(stage, 1);
        }
    }

    /// Counts `n` events.
    #[inline]
    pub fn add(&self, stage: Stage, n: u64) {
        if let Some(reg) = self.reg() {
            reg.add(stage, n);
        }
    }

    /// Records one histogram value.
    #[inline]
    pub fn record(&self, stage: Stage, value: u64) {
        if let Some(reg) = self.reg() {
            reg.record(stage, value);
        }
    }

    /// Records one duration (ns histogram).
    #[inline]
    pub fn record_duration(&self, stage: Stage, d: Duration) {
        if let Some(reg) = self.reg() {
            reg.record_duration(stage, d);
        }
    }

    /// Moves a gauge by `delta`.
    #[inline]
    pub fn gauge_add(&self, stage: Stage, delta: i64) {
        if let Some(reg) = self.reg() {
            reg.gauge_add(stage, delta);
        }
    }

    /// Opens a timed scope recording into `stage` when dropped. Disabled
    /// handles return an inert timer without reading the clock.
    #[inline]
    pub fn span(&self, stage: Stage) -> SpanTimer<'_> {
        SpanTimer { inner: self.reg().map(|reg| (reg, stage, Instant::now())) }
    }
}

/// RAII scope timer: records its lifetime into a stage on drop.
#[must_use = "a span records on drop; binding it to `_` ends it immediately"]
#[derive(Debug)]
pub struct SpanTimer<'r> {
    inner: Option<(&'r Registry, Stage, Instant)>,
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some((reg, stage, start)) = self.inner.take() {
            reg.record_duration(stage, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_records_nothing_and_reads_no_clock() {
        let h = ObsHandle::noop();
        assert!(!h.is_enabled());
        h.incr(Stage::ServeCacheHit);
        h.record(Stage::GspItersToConverge, 7);
        h.gauge_add(Stage::PoolQueueDepth, 3);
        drop(h.span(Stage::GspRound));
        assert!(h.registry().is_none());
    }

    #[test]
    fn enabled_handle_reaches_the_shared_registry() {
        let reg = Arc::new(Registry::new());
        let a = ObsHandle::from_registry(Arc::clone(&reg));
        let b = a.clone();
        a.incr(Stage::ServeCacheHit);
        b.add(Stage::ServeCacheHit, 2);
        b.record(Stage::GspItersToConverge, 12);
        if cfg!(feature = "noop") {
            assert!(!a.is_enabled(), "noop feature must hard-disable recording");
            assert_eq!(reg.count(Stage::ServeCacheHit), 0);
        } else {
            assert_eq!(reg.count(Stage::ServeCacheHit), 3);
            assert_eq!(reg.count(Stage::GspItersToConverge), 1);
            let snap = reg.snapshot();
            assert_eq!(snap.stage(Stage::GspItersToConverge).hist.max(), Some(12));
        }
    }

    #[test]
    fn span_times_its_scope() {
        let h = ObsHandle::fresh();
        {
            let _t = h.span(Stage::OcsSelect);
            std::thread::sleep(Duration::from_millis(2));
        }
        let Some(reg) = h.registry() else { panic!("fresh handle has a registry") };
        if cfg!(feature = "noop") {
            assert_eq!(reg.count(Stage::OcsSelect), 0);
        } else {
            assert_eq!(reg.count(Stage::OcsSelect), 1);
            let snap = reg.snapshot();
            assert!(snap.stage(Stage::OcsSelect).hist.min().unwrap_or(0) >= 1_000_000);
        }
    }

    #[test]
    fn gauge_tracks_level_and_high_water_mark() {
        let h = ObsHandle::fresh();
        h.gauge_add(Stage::PoolQueueDepth, 5);
        h.gauge_add(Stage::PoolQueueDepth, -2);
        h.gauge_add(Stage::PoolQueueDepth, 1);
        let Some(reg) = h.registry() else { panic!("fresh handle has a registry") };
        if !cfg!(feature = "noop") {
            assert_eq!(reg.gauge(Stage::PoolQueueDepth), 4);
            let snap = reg.snapshot();
            assert_eq!(snap.stage(Stage::PoolQueueDepth).gauge_max, 5);
        }
    }

    #[test]
    fn snapshot_json_contains_every_stage_key() {
        let reg = Registry::new();
        reg.record_duration(Stage::RtfSlotFit, Duration::from_micros(250));
        reg.add(Stage::ServeCacheHit, 4);
        let json = reg.snapshot_json();
        for stage in Stage::ALL {
            assert!(
                json.contains(&format!("\"{}\"", stage.name())),
                "snapshot JSON lacks {}",
                stage.name()
            );
        }
        assert!(json.contains("\"kind\": \"span\""));
        assert!(json.contains("\"kind\": \"counter\", \"count\": 4"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
