//! CrowdRTSE observability layer.
//!
//! The pipeline's hot paths — RTF training, correlation-table builds,
//! OCS selection, GSP propagation, the compute pool, and the serving
//! loop — all report into one shared [`Registry`] through an injectable
//! [`ObsHandle`]:
//!
//! * a **static stage taxonomy** ([`Stage`]) keeps the registry a flat
//!   array of atomics and the JSON keys stable;
//! * **bounded log-linear histograms** ([`hist::LogLinearHistogram`])
//!   give p50/p90/p99 with O(1) memory and ≤25% relative error;
//! * **[`SpanTimer`]** scopes time a region and record on drop;
//! * **[`Registry::snapshot_json`]** renders the whole registry as one
//!   JSON object, embedded into `BENCH_offline.json` by `exp_offline`.
//!
//! Instrumentation is opt-in at runtime: the default [`ObsHandle`] is a
//! no-op whose record calls are a single inlined branch and whose spans
//! never read the clock. The `noop` cargo feature closes that branch at
//! compile time for worst-case-sensitive builds; results are bit-
//! identical either way (instrumentation never perturbs estimates — see
//! the facade's `tests/observability.rs`).

pub mod hist;
mod registry;
mod stage;

pub use hist::{HistSnapshot, LogLinearHistogram};
pub use registry::{ObsHandle, Registry, RegistrySnapshot, SpanTimer, StageSnapshot};
pub use stage::{Stage, StageKind};
