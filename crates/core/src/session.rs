//! Continuous monitoring: repeated estimation rounds over a live day.
//!
//! A deployment doesn't answer one query — it re-estimates every slot
//! while workers move and the budget meter runs. [`MonitoringSession`]
//! owns that loop state: the worker pool (stepped between rounds), the
//! cumulative payment ledger, and the previous round's estimate, which
//! warm-starts the next propagation (see `rtse_gsp::relax`); roads no
//! probe reaches read the current slot's mean.

use crate::engine::{CrowdRtse, OnlineConfig};
use crate::query::SpeedQuery;
use rtse_crowd::WorkerPool;
use rtse_data::SlotOfDay;
use rtse_graph::RoadId;
use rtse_gsp::relax::propagate_warm_observed;
use rtse_ocs::Selection;
use std::error::Error;
use std::fmt;

/// Why a monitoring round could not run ([`MonitoringSession::step`]).
///
/// A malformed round request must surface as a typed error, not a panic
/// or an out-of-bounds access: the serving layer (`rtse-serve`) keeps the
/// process alive across bad requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepError {
    /// The ground-truth snapshot does not cover the network.
    TruthLengthMismatch {
        /// Roads in the session's network.
        expected: usize,
        /// Entries in the provided snapshot.
        got: usize,
    },
    /// A queried road id is not a road of the session's network.
    RoadOutOfRange {
        /// The offending road id.
        road: RoadId,
        /// Roads in the session's network.
        num_roads: usize,
    },
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::TruthLengthMismatch { expected, got } => {
                write!(f, "truth snapshot has {got} entries but the network has {expected} roads")
            }
            StepError::RoadOutOfRange { road, num_roads } => {
                write!(f, "queried road {road} is out of range (network has {num_roads} roads)")
            }
        }
    }
}

impl Error for StepError {}

/// One round's outcome.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// The slot estimated this round.
    pub slot: SlotOfDay,
    /// Full-network estimates.
    pub values: Vec<f64>,
    /// The OCS selection.
    pub selection: Selection,
    /// Payment units spent this round.
    pub paid: u32,
    /// GSP rounds used (warm starts shrink this after round one).
    pub gsp_rounds: usize,
    /// Whether the propagation warm-started from the previous round.
    pub warm_started: bool,
}

/// Stateful multi-round estimation over a day.
pub struct MonitoringSession<'e, 'g> {
    engine: &'e CrowdRtse<'g>,
    config: OnlineConfig,
    pool: WorkerPool,
    costs: Vec<u32>,
    last_values: Option<Vec<f64>>,
    total_paid: u32,
    rounds_run: usize,
}

impl<'e, 'g> MonitoringSession<'e, 'g> {
    /// Starts a session with an initial worker distribution and cost
    /// vector.
    pub fn new(
        engine: &'e CrowdRtse<'g>,
        config: OnlineConfig,
        pool: WorkerPool,
        costs: Vec<u32>,
    ) -> Self {
        assert_eq!(costs.len(), engine.graph().num_roads(), "costs length mismatch");
        Self { engine, config, pool, costs, last_values: None, total_paid: 0, rounds_run: 0 }
    }

    /// Total payment disbursed so far.
    pub fn total_paid(&self) -> u32 {
        self.total_paid
    }

    /// Rounds executed so far.
    pub fn rounds_run(&self) -> usize {
        self.rounds_run
    }

    /// Current worker pool (inspection).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Runs one estimation round for `queried` at `slot` against the given
    /// ground-truth snapshot, then advances worker mobility one step.
    ///
    /// Rejects malformed rounds with a typed [`StepError`] — a truth
    /// snapshot that does not cover the network, or a queried road id
    /// outside it — instead of panicking mid-pipeline. A rejected round
    /// leaves the session untouched: no payment, no mobility step, no
    /// warm-start update.
    pub fn step(
        &mut self,
        queried: &[RoadId],
        slot: SlotOfDay,
        truth: &[f64],
    ) -> Result<RoundReport, StepError> {
        let num_roads = self.engine.graph().num_roads();
        if truth.len() != num_roads {
            return Err(StepError::TruthLengthMismatch { expected: num_roads, got: truth.len() });
        }
        if let Some(&road) = queried.iter().find(|r| r.index() >= num_roads) {
            return Err(StepError::RoadOutOfRange { road, num_roads });
        }
        let query = SpeedQuery::new(queried.to_vec(), slot);
        let candidates = self.pool.covered_roads();
        let selection = self.engine.select_roads(&query, &candidates, &self.costs, &self.config);
        let outcome = self.config.campaign.run(&self.pool, &selection.roads, &self.costs, truth);
        let params = self.engine.offline().model().slot(slot);
        let warm_started = self.last_values.is_some();
        let result = match &self.last_values {
            Some(prev) => propagate_warm_observed(
                &self.config.gsp,
                self.engine.graph(),
                params,
                &outcome.observations,
                prev,
                self.engine.obs(),
            ),
            None => self.config.gsp.propagate_observed(
                self.engine.graph(),
                params,
                &outcome.observations,
                self.engine.obs(),
            ),
        };
        self.total_paid += outcome.paid;
        self.rounds_run += 1;
        self.last_values = Some(result.values.clone());
        self.pool.step(self.engine.graph());
        Ok(RoundReport {
            slot,
            values: result.values,
            selection,
            paid: outcome.paid,
            gsp_rounds: result.rounds,
            warm_started,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::OfflineArtifacts;
    use rtse_crowd::{uniform_costs, CostRange};
    use rtse_data::{SynthConfig, TrafficGenerator};
    use rtse_eval::ErrorReport;
    use rtse_graph::generators::grid;
    use rtse_rtf::moment_estimate;

    fn setup() -> (rtse_graph::Graph, rtse_data::SynthDataset, Vec<u32>) {
        let graph = grid(4, 5);
        let dataset = TrafficGenerator::new(
            &graph,
            SynthConfig { days: 12, seed: 77, ..SynthConfig::default() },
        )
        .generate();
        let costs = uniform_costs(graph.num_roads(), CostRange::C2, 77);
        (graph, dataset, costs)
    }

    #[test]
    fn session_runs_consecutive_rounds() {
        let (graph, dataset, costs) = setup();
        let engine = CrowdRtse::new(
            &graph,
            OfflineArtifacts::from_model(moment_estimate(&graph, &dataset.history)),
        );
        let pool = WorkerPool::spawn(&graph, 40, 0.5, (0.3, 1.0), 3);
        let mut session = MonitoringSession::new(
            &engine,
            OnlineConfig { budget: 15, ..Default::default() },
            pool,
            costs,
        );
        let queried: Vec<RoadId> = graph.road_ids().collect();
        let start = SlotOfDay::from_hm(8, 0);
        let mut reports = Vec::new();
        for k in 0..4u16 {
            let slot = SlotOfDay(start.0 + k);
            let truth = dataset.ground_truth_snapshot(slot);
            reports.push(session.step(&queried, slot, truth).expect("well-formed round"));
        }
        assert_eq!(session.rounds_run(), 4);
        assert!(!reports[0].warm_started);
        assert!(reports[1..].iter().all(|r| r.warm_started));
        // Ledger adds up.
        let sum: u32 = reports.iter().map(|r| r.paid).sum();
        assert_eq!(session.total_paid(), sum);
        // Quality stays sane each round.
        for (k, r) in reports.iter().enumerate() {
            let slot = SlotOfDay(start.0 + k as u16);
            let truth = dataset.ground_truth_snapshot(slot);
            let rep = ErrorReport::evaluate_default(&r.values, truth, &queried);
            assert!(rep.mape < 0.6, "round {k} MAPE {}", rep.mape);
        }
    }

    #[test]
    fn warm_rounds_use_fewer_gsp_iterations_on_average() {
        let (graph, dataset, costs) = setup();
        let engine = CrowdRtse::new(
            &graph,
            OfflineArtifacts::from_model(moment_estimate(&graph, &dataset.history)),
        );
        let mut pool = WorkerPool::spawn(&graph, 60, 0.3, (0.2, 0.6), 5);
        pool.move_probability = 0.05; // nearly static workers: same roads re-probed
        let mut session = MonitoringSession::new(
            &engine,
            OnlineConfig { budget: 20, ..Default::default() },
            pool,
            costs,
        );
        let queried: Vec<RoadId> = graph.road_ids().collect();
        let start = SlotOfDay::from_hm(12, 0);
        let mut cold_rounds = 0usize;
        let mut warm_rounds = Vec::new();
        for k in 0..5u16 {
            let slot = SlotOfDay(start.0 + k);
            let truth = dataset.ground_truth_snapshot(slot);
            let r = session.step(&queried, slot, truth).expect("well-formed round");
            if r.warm_started {
                warm_rounds.push(r.gsp_rounds);
            } else {
                cold_rounds = r.gsp_rounds;
            }
        }
        let warm_avg = warm_rounds.iter().sum::<usize>() as f64 / warm_rounds.len() as f64;
        assert!(warm_avg <= cold_rounds as f64 + 1.0, "warm avg {warm_avg} vs cold {cold_rounds}");
    }

    #[test]
    fn unprobed_rounds_report_their_own_slots_prior() {
        // No workers, so no observations: the warm second round must read
        // its own slot's μ, not the first round's estimate.
        let (graph, dataset, costs) = setup();
        let engine = CrowdRtse::new(
            &graph,
            OfflineArtifacts::from_model(moment_estimate(&graph, &dataset.history)),
        );
        let pool = WorkerPool::spawn(&graph, 0, 0.5, (0.3, 1.0), 1);
        let mut session = MonitoringSession::new(&engine, OnlineConfig::default(), pool, costs);
        let queried: Vec<RoadId> = graph.road_ids().collect();
        let (first, second) = (SlotOfDay::from_hm(3, 0), SlotOfDay::from_hm(8, 0));
        let model = engine.offline().model();
        assert_ne!(model.slot(first).mu, model.slot(second).mu, "the slots must differ");
        session.step(&queried, first, dataset.ground_truth_snapshot(first)).expect("round 1");
        let report =
            session.step(&queried, second, dataset.ground_truth_snapshot(second)).expect("round 2");
        assert!(report.warm_started);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&report.values), bits(&model.slot(second).mu));
    }

    #[test]
    fn workers_move_between_rounds() {
        let (graph, dataset, costs) = setup();
        let engine = CrowdRtse::new(
            &graph,
            OfflineArtifacts::from_model(moment_estimate(&graph, &dataset.history)),
        );
        let pool = WorkerPool::spawn(&graph, 30, 0.5, (0.3, 1.0), 9);
        let before = pool.covered_roads();
        let mut session = MonitoringSession::new(&engine, OnlineConfig::default(), pool, costs);
        let queried = [RoadId(0)];
        let slot = SlotOfDay::from_hm(9, 0);
        let truth = dataset.ground_truth_snapshot(slot).to_vec();
        session.step(&queried, slot, &truth).expect("well-formed round");
        let after = session.pool().covered_roads();
        assert_ne!(before, after, "mobility should change coverage");
    }

    #[test]
    fn malformed_rounds_get_typed_errors_and_leave_session_untouched() {
        let (graph, dataset, costs) = setup();
        let engine = CrowdRtse::new(
            &graph,
            OfflineArtifacts::from_model(moment_estimate(&graph, &dataset.history)),
        );
        let pool = WorkerPool::spawn(&graph, 20, 0.5, (0.3, 1.0), 5);
        let mut session = MonitoringSession::new(&engine, OnlineConfig::default(), pool, costs);
        let slot = SlotOfDay::from_hm(10, 0);
        let n = graph.num_roads();

        // Truth snapshot too short.
        let short = vec![30.0; n - 1];
        let err = session.step(&[RoadId(0)], slot, &short).expect_err("short truth must fail");
        assert_eq!(err, StepError::TruthLengthMismatch { expected: n, got: n - 1 });

        // Queried road beyond the network.
        let truth = dataset.ground_truth_snapshot(slot);
        let bogus = RoadId(n as u32 + 7);
        let err = session.step(&[RoadId(0), bogus], slot, truth).expect_err("bogus road");
        assert_eq!(err, StepError::RoadOutOfRange { road: bogus, num_roads: n });

        // Rejected rounds must not advance the session.
        assert_eq!(session.rounds_run(), 0);
        assert_eq!(session.total_paid(), 0);

        // The session still works after rejections.
        let report = session.step(&[RoadId(0)], slot, truth).expect("valid round");
        assert_eq!(report.slot, slot);
        assert_eq!(session.rounds_run(), 1);
        let msg = StepError::RoadOutOfRange { road: bogus, num_roads: n }.to_string();
        assert!(msg.contains("out of range"), "{msg}");
    }
}
