//! # CrowdRTSE
//!
//! A Rust implementation of **"Realtime Traffic Speed Estimation with
//! Sparse Crowdsourced Data"** (ICDE 2018): a hybrid offline/online
//! framework that answers realtime traffic-speed queries by combining a
//! Gaussian-Markov-Random-Field traffic model (RTF) trained on historical
//! data with judicious crowdsourcing (OCS) and belief-propagation-style
//! inference (GSP).
//!
//! This crate is a facade re-exporting the workspace's public API:
//!
//! * [`graph`] — the road-network substrate (CSR graph, Dijkstra, BFS,
//!   generators);
//! * [`data`] — time slots, historical speed stores, the synthetic traffic
//!   generator;
//! * [`rtf`] — the offline model: parameters, likelihood, trainer,
//!   correlation tables;
//! * [`ocs`] — crowdsourced-road selection (Ratio/Objective/Hybrid greedy,
//!   exact solver);
//! * [`gsp`] — graph-based speed propagation (sequential, parallel, and
//!   incremental delta re-propagation from a previous fixed point);
//! * [`pool`] — the shared scoped worker pool (`ComputePool`,
//!   `RTSE_THREADS`) behind every parallel path above;
//! * [`crowd`] — workers, mobility, answers, costs, campaigns, the
//!   gMission scenario;
//! * [`baselines`] — Per, LASSO, GRMC comparators;
//! * [`eval`] — MAPE/FER/DAPE metrics, coverage, tables, timing;
//! * [`core`] — the `CrowdRtse` engine tying everything together;
//! * [`serve`] — the concurrent query-serving layer in front of the
//!   engine (slot-aware micro-batching, answer caching, admission
//!   control with deadline-based load shedding);
//! * [`edge`] — the TCP front-end in front of [`serve`]: length-prefixed
//!   wire protocol with a fail-closed decoder, sharded accept loops,
//!   slot-rollover prewarm, graceful cross-socket drain;
//! * [`obs`] — the observability layer: a stage taxonomy, an injectable
//!   registry of counters/gauges/log-linear histograms, span timers, and
//!   JSON snapshots (near-zero overhead when disabled; force-disable
//!   recording workspace-wide with the `obs-noop` feature);
//! * [`check`] — invariant contracts ([`check::Validate`]) enforced
//!   fail-closed at pipeline boundaries under the `validate` feature.
//!
//! ## Quickstart
//!
//! ```
//! use crowd_rtse::prelude::*;
//!
//! // A small synthetic city with 8 days of history.
//! let graph = crowd_rtse::graph::generators::hong_kong_like(100, 7);
//! let dataset = TrafficGenerator::new(
//!     &graph,
//!     SynthConfig { days: 8, seed: 7, ..SynthConfig::default() },
//! )
//! .generate();
//!
//! // Offline: estimate the RTF (moments; the trainer's CCD is equivalent
//! // here and slower — see `RtfTrainer`).
//! let offline = OfflineArtifacts::from_model(moment_estimate(&graph, &dataset.history));
//! let engine = CrowdRtse::new(&graph, offline);
//!
//! // Online: where are the workers, what does a probe cost, what do we ask?
//! let pool = WorkerPool::spawn(&graph, 50, 0.5, (0.3, 1.5), 42);
//! let costs = uniform_costs(graph.num_roads(), CostRange::C2, 42);
//! let slot = SlotOfDay::from_hm(8, 30);
//! let query = SpeedQuery::new((0u32..20).map(RoadId).collect(), slot);
//! let truth = dataset.ground_truth_snapshot(slot);
//!
//! let answer = engine.answer_query(&query, &pool, &costs, truth, &OnlineConfig::default());
//! assert_eq!(answer.estimates.len(), query.roads.len());
//! ```

pub use crowd_rtse_core as core;
pub use rtse_baselines as baselines;
pub use rtse_check as check;
pub use rtse_crowd as crowd;
pub use rtse_data as data;
pub use rtse_edge as edge;
pub use rtse_eval as eval;
pub use rtse_graph as graph;
pub use rtse_gsp as gsp;
pub use rtse_math as math;
pub use rtse_obs as obs;
pub use rtse_ocs as ocs;
pub use rtse_pool as pool;
pub use rtse_rtf as rtf;
pub use rtse_serve as serve;

/// Everything needed for typical use, importable in one line.
pub mod prelude {
    pub use crowd_rtse_core::{
        merge_queries, plan_daily_budget, variance_aware_select, CorrSubstrate, CrowdRtse,
        DeltaPolicy, GspEstimator, MonitoringSession, OfflineArtifacts, OnlineConfig, PrevRound,
        QueryAnswer, QueryError, RoundReport, SelectionStrategy, SpeedQuery, StepError,
    };
    pub use rtse_baselines::{EstimationContext, Estimator, Grmc, LassoEstimator, Per};
    pub use rtse_check::{InvariantViolation, Validate};
    pub use rtse_crowd::{
        uniform_costs, CostRange, CrowdCampaign, GMissionScenario, GMissionSpec, WorkerPool,
    };
    pub use rtse_data::{
        simulate_fleet, FleetConfig, HistoryStore, SlotOfDay, SpeedRecord, StationNetwork,
        SynthConfig, SynthDataset, TimeSlot, TrafficGenerator, SLOTS_PER_DAY,
    };
    pub use rtse_edge::{
        edge_serve, ClientReply, EdgeClient, EdgeConfig, EdgeError, EdgeHandle, EdgeOutcome,
        PrewarmConfig, RejectCode,
    };
    pub use rtse_eval::{k_hop_coverage, ErrorReport, Table};
    pub use rtse_graph::{Graph, GraphBuilder, Road, RoadClass, RoadId};
    pub use rtse_gsp::{
        exact_map_estimate, propagate_delta, propagate_delta_observed, propagate_warm,
        sample_posterior, DeltaGsp, DeltaResult, GspSolver, PosteriorSummary,
    };
    pub use rtse_obs::{ObsHandle, Registry, Stage};
    pub use rtse_ocs::{
        exact_solve, hybrid_greedy, lazy_objective_greedy, objective_greedy, random_select,
        ratio_greedy, trivial_solution, OcsInstance, Selection,
    };
    pub use rtse_pool::ComputePool;
    pub use rtse_rtf::{
        moment_estimate, CorrTable, CorrelationRead, CorrelationTable, DayType, DayTypeModel,
        IncrementalModel, InitStrategy, PathCorrelation, RtfModel, RtfTrainer, SparseCorrConfig,
        SparseCorrelationTable,
    };
    pub use rtse_serve::{
        serve, ServeConfig, ServeError, ServeOutcome, ServeRequest, ServeWorld, ServedAnswer,
        ServerHandle, TruthSource,
    };
}
