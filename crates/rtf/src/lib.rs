//! RTF — the Realtime Traffic-speed Field (Section IV of the paper).
//!
//! A Gaussian Markov Random Field sharing the traffic network's topology.
//! For every 5-minute slot `t` it holds three parameter families:
//!
//! * `μ_i^t` — expected speed of road `i` in slot `t` (periodic mean);
//! * `σ_i^t` — standard deviation, the *intensity of periodicity* (small σ
//!   = strongly periodic road);
//! * `ρ_ij^t ∈ [0, 1]` — correlation strength of adjacent roads `i, j`.
//!
//! Modules:
//! * [`params`] — the parameter storage ([`RtfModel`]) and derived
//!   quantities (`μ_ij`, `σ_ij²` from Eq. 2);
//! * [`likelihood`] — the joint slot log-likelihood (Eq. 5);
//! * [`gradients`] — analytic partials for the trainer (verified against
//!   finite differences in tests);
//! * [`moments`] — closed-form moment estimation (sample mean/std/Pearson);
//! * [`trainer`] — Alg. 1: cyclic-coordinate-descent gradient ascent with
//!   convergence tracking (the Fig. 5 metric is the max `μ`-gradient);
//! * [`corr_table`] — the offline all-pairs path-correlation table `Γ`
//!   (Eqs. 7–10), with both `MaxProduct` and literal `ReciprocalSum` path
//!   semantics;
//! * [`sparse_corr`] — the floor/top-k pruned CSR variant of Γ for
//!   city-scale networks, plus the [`CorrelationRead`] trait both tables
//!   serve;
//! * [`persistence`] — JSON save/load of trained models.
//!
//! ## Deviation from the paper's Eq. (3)
//!
//! As printed, Eq. (3) omits the Gaussian log-normalizers, which makes the
//! joint likelihood unbounded: `∂L/∂ρ_ij` is globally non-positive, so
//! "maximizing" drives every `ρ` to 0. We restore the `-ln σ²` terms (node
//! and edge), which makes the MLE well-posed and — usefully — makes its
//! stationary point coincide with the moment estimates, giving the trainer
//! an independently checkable target.

pub mod corr_table;
pub mod diagnostics;
pub mod gradients;
mod json;
pub mod likelihood;
pub mod moments;
pub mod params;
pub mod persistence;
pub mod sparse_corr;
pub mod trainer;

pub use corr_table::{CorrelationTable, PathCorrelation};
pub use diagnostics::{evaluate_model, ModelDiagnostics};
pub use moments::moment_estimate;
pub use params::{RtfModel, SlotParams};
pub use sparse_corr::{CorrTable, CorrelationRead, SparseCorrConfig, SparseCorrelationTable};
pub use trainer::{InitStrategy, RtfTrainer, TrainStats, UpdateMode};
