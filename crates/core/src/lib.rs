//! CrowdRTSE — the framework engine (Fig. 1 of the paper).
//!
//! Ties the substrates together into the paper's hybrid offline/online
//! architecture:
//!
//! * **Offline** ([`offline`]): train the RTF from historical records and
//!   precompute/caches the per-slot correlation tables `Γ`.
//! * **Online** ([`engine`]): answer a [`SpeedQuery`] in three steps —
//!   OCS selects the crowdsourced roads from the worker-covered set,
//!   the crowd campaign probes them, and GSP propagates the probes over
//!   the network.
//!
//! [`estimator`] adapts GSP to the [`rtse_baselines::Estimator`] interface
//! so the evaluation harness can sweep GSP/LASSO/GRMC/Per uniformly.

pub mod active;
pub mod allocator;
pub mod engine;
pub mod estimator;
pub mod offline;
pub mod query;
pub mod session;

pub use active::{posterior_stds, variance_aware_select};
pub use allocator::plan_daily_budget;
pub use engine::{CrowdRtse, DeltaPolicy, OnlineConfig, PrevRound, SelectionStrategy};
pub use estimator::GspEstimator;
pub use offline::{CorrSubstrate, OfflineArtifacts};
pub use query::{QueryAnswer, QueryError, SpeedQuery};
pub use session::{MonitoringSession, RoundReport, StepError};
