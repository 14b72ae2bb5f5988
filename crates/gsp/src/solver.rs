//! The GSP solver configuration and the cold propagation (Alg. 5).

use crate::sweep::sweep;
use rtse_graph::{Graph, RoadId};
use rtse_rtf::params::SlotParams;

/// GSP configuration.
///
/// ```
/// use rtse_graph::{generators, RoadId};
/// use rtse_gsp::GspSolver;
/// use rtse_rtf::params::SlotParams;
///
/// let graph = generators::path(4);
/// let params = SlotParams {
///     mu: vec![50.0; 4],
///     sigma: vec![2.0; 4],
///     rho: vec![0.9; 3],
/// };
/// // One probe reports a slowdown; GSP pulls the neighbors toward it.
/// let result = GspSolver::default().propagate(&graph, &params, &[(RoadId(0), 20.0)]);
/// assert!(result.converged);
/// assert_eq!(result.speed(RoadId(0)), 20.0);
/// assert!(result.speed(RoadId(1)) < 50.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GspSolver {
    /// Convergence threshold `ε` on the largest per-round value change.
    pub epsilon: f64,
    /// Hard cap on rounds (the paper argues a constant `Λ` suffices).
    pub max_rounds: usize,
    /// When true, the per-round max-delta trace is recorded in the result.
    pub record_trace: bool,
}

impl Default for GspSolver {
    fn default() -> Self {
        Self { epsilon: 1e-4, max_rounds: 200, record_trace: false }
    }
}

/// Output of a propagation run.
#[derive(Debug, Clone)]
pub struct GspResult {
    /// Estimated speed per road (sampled roads keep their observed value).
    pub values: Vec<f64>,
    /// Rounds executed.
    pub rounds: usize,
    /// Whether `ε` was reached before `max_rounds`.
    pub converged: bool,
    /// Roads unreachable from the sampled set (left at `μ_i^t`).
    pub unreachable: Vec<RoadId>,
    /// Per-round max value change (empty unless `record_trace`).
    pub delta_trace: Vec<f64>,
}

impl GspResult {
    /// Estimate for one road.
    #[inline]
    pub fn speed(&self, r: RoadId) -> f64 {
        self.values[r.index()]
    }
}

impl rtse_check::Validate for GspResult {
    /// Propagation-output contract: every estimate is a finite,
    /// non-negative speed (Eq. 18 interpolates between non-negative
    /// observed speeds and non-negative slot means, so a negative output
    /// means a corrupted model or observation slipped through), the trace
    /// length matches the recorded rounds when present, and unreachable
    /// ids are in-bounds.
    fn validate(&self) -> Result<(), rtse_check::InvariantViolation> {
        use rtse_check::{ensure, ensure_finite};
        ensure_finite(&self.values, "gsp.values_finite")?;
        if let Some(i) = self.values.iter().position(|&v| v < 0.0) {
            return Err(rtse_check::InvariantViolation::new(
                "gsp.values_non_negative",
                format!("estimate for road {i} is {}", self.values[i]),
            ));
        }
        ensure(
            self.delta_trace.is_empty() || self.delta_trace.len() == self.rounds,
            "gsp.trace_len",
            || format!("{} trace entries for {} rounds", self.delta_trace.len(), self.rounds),
        )?;
        if let Some(r) = self.unreachable.iter().find(|r| r.index() >= self.values.len()) {
            return Err(rtse_check::InvariantViolation::new(
                "gsp.unreachable_in_bounds",
                format!("unreachable road {r} but only {} values", self.values.len()),
            ));
        }
        Ok(())
    }
}

impl GspSolver {
    /// Runs Alg. 5: propagates `observations` (pairs of sampled road and
    /// observed speed) over the whole network, starting every other road
    /// at its slot mean.
    ///
    /// # Panics
    /// Panics when an observed road id is out of range or observed twice
    /// with different values, or when the model dimensions disagree with
    /// the graph.
    pub fn propagate(
        &self,
        graph: &Graph,
        params: &SlotParams,
        observations: &[(RoadId, f64)],
    ) -> GspResult {
        self.propagate_observed(graph, params, observations, &rtse_obs::ObsHandle::noop())
    }

    /// [`propagate`](Self::propagate) with instrumentation: the whole run
    /// is timed as one `gsp.round` span and the executed sweep count
    /// lands in the `gsp.iters_to_converge` histogram on `obs`. Estimates
    /// are bit-identical to the unobserved call.
    ///
    /// # Panics
    /// As [`propagate`](Self::propagate).
    pub fn propagate_observed(
        &self,
        graph: &Graph,
        params: &SlotParams,
        observations: &[(RoadId, f64)],
        obs: &rtse_obs::ObsHandle,
    ) -> GspResult {
        sweep(self, graph, params, observations, &params.mu, None, obs).result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::UpdateSchedule;
    use rtse_graph::generators::{grid, path};
    use rtse_rtf::likelihood::{config_log_likelihood, optimal_update};

    fn params_for(graph: &Graph, mu: f64, sigma: f64, rho: f64) -> SlotParams {
        SlotParams {
            mu: vec![mu; graph.num_roads()],
            sigma: vec![sigma; graph.num_roads()],
            rho: vec![rho; graph.num_edges()],
        }
    }

    #[test]
    fn no_observations_returns_means() {
        let g = path(4);
        let p = params_for(&g, 42.0, 2.0, 0.8);
        let r = GspSolver::default().propagate(&g, &p, &[]);
        assert!(r.converged);
        assert_eq!(r.rounds, 0);
        assert!(r.values.iter().all(|&v| v == 42.0));
        assert_eq!(r.unreachable.len(), 4);
    }

    #[test]
    fn observed_roads_keep_their_values() {
        let g = path(4);
        let p = params_for(&g, 40.0, 3.0, 0.7);
        let r = GspSolver::default().propagate(&g, &p, &[(RoadId(1), 25.0)]);
        assert_eq!(r.speed(RoadId(1)), 25.0);
        assert!(r.converged);
    }

    #[test]
    fn propagation_pulls_neighbors_toward_observation() {
        let g = path(5);
        let p = params_for(&g, 50.0, 3.0, 0.9);
        // Strong negative shock observed at the middle road.
        let r = GspSolver::default().propagate(&g, &p, &[(RoadId(2), 20.0)]);
        // Neighbors move below their mean, decaying with distance.
        assert!(r.speed(RoadId(1)) < 50.0);
        assert!(r.speed(RoadId(3)) < 50.0);
        assert!(r.speed(RoadId(0)) < 50.0);
        assert!(
            r.speed(RoadId(2)) < r.speed(RoadId(1)) && r.speed(RoadId(1)) < r.speed(RoadId(0)),
            "effect must decay with hops: {:?}",
            r.values
        );
    }

    #[test]
    fn weak_correlation_limits_propagation() {
        let g = path(3);
        let strong = params_for(&g, 50.0, 3.0, 0.95);
        let weak = params_for(&g, 50.0, 3.0, 0.05);
        let obs = [(RoadId(0), 20.0)];
        let rs = GspSolver::default().propagate(&g, &strong, &obs);
        let rw = GspSolver::default().propagate(&g, &weak, &obs);
        let pull_strong = 50.0 - rs.speed(RoadId(1));
        let pull_weak = 50.0 - rw.speed(RoadId(1));
        assert!(
            pull_strong > pull_weak,
            "strong ρ pull {pull_strong} should exceed weak {pull_weak}"
        );
    }

    #[test]
    fn converges_to_coordinate_wise_fixed_point() {
        let g = grid(3, 3);
        let p = params_for(&g, 30.0, 2.0, 0.8);
        let solver = GspSolver { epsilon: 1e-10, max_rounds: 2000, record_trace: true };
        let r = solver.propagate(&g, &p, &[(RoadId(0), 20.0), (RoadId(8), 45.0)]);
        assert!(r.converged);
        // At the fixed point every non-observed road equals its Eq. (18)
        // argmax.
        for road in g.road_ids() {
            if road == RoadId(0) || road == RoadId(8) {
                continue;
            }
            let best = optimal_update(&g, &p, &r.values, road);
            assert!(
                (best - r.speed(road)).abs() < 1e-6,
                "road {road}: {} vs argmax {best}",
                r.speed(road)
            );
        }
    }

    #[test]
    fn likelihood_non_decreasing_over_rounds() {
        let g = grid(3, 4);
        let p = params_for(&g, 40.0, 2.5, 0.85);
        let obs = [(RoadId(0), 28.0), (RoadId(11), 55.0)];
        // Manually replicate rounds and track the likelihood.
        let mut values = p.mu.clone();
        for &(r, v) in &obs {
            values[r.index()] = v;
        }
        let schedule = UpdateSchedule::new(&g, &[RoadId(0), RoadId(11)]);
        let mut last = config_log_likelihood(&g, &p, &values);
        for _ in 0..20 {
            for layer in schedule.layers() {
                for &r in layer {
                    values[r.index()] = optimal_update(&g, &p, &values, r);
                }
            }
            let ll = config_log_likelihood(&g, &p, &values);
            assert!(ll + 1e-9 >= last, "likelihood regressed: {last} -> {ll}");
            last = ll;
        }
    }

    #[test]
    fn disconnected_component_stays_at_mean() {
        let mut b = rtse_graph::GraphBuilder::new();
        for i in 0..5 {
            b.add_road(rtse_graph::RoadClass::Local, (i as f64, 0.0));
        }
        b.add_edge(RoadId(0), RoadId(1));
        b.add_edge(RoadId(3), RoadId(4)); // separate island
        let g = b.build();
        let p = params_for(&g, 35.0, 2.0, 0.9);
        let r = GspSolver::default().propagate(&g, &p, &[(RoadId(0), 10.0)]);
        assert_eq!(r.speed(RoadId(3)), 35.0);
        assert_eq!(r.speed(RoadId(4)), 35.0);
        assert!(r.unreachable.contains(&RoadId(3)));
        // But the connected neighbor moved.
        assert!(r.speed(RoadId(1)) < 35.0);
    }

    #[test]
    fn trace_recorded_and_decreasing() {
        let g = path(6);
        let p = params_for(&g, 45.0, 2.0, 0.9);
        let solver = GspSolver { record_trace: true, ..Default::default() };
        let r = solver.propagate(&g, &p, &[(RoadId(0), 20.0)]);
        assert_eq!(r.delta_trace.len(), r.rounds);
        assert!(r.delta_trace.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    #[should_panic(expected = "conflicting observations")]
    fn conflicting_observations_rejected() {
        let g = path(2);
        let p = params_for(&g, 40.0, 2.0, 0.5);
        GspSolver::default().propagate(&g, &p, &[(RoadId(0), 10.0), (RoadId(0), 20.0)]);
    }
}
