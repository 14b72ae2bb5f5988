//! Warm-started propagation.
//!
//! Realtime estimation is incremental: the next 5-minute round's solution
//! is close to the previous one, and late-arriving probes refine an
//! existing estimate. Starting the sweep from the previous values instead
//! of the slot means cuts rounds substantially.

use crate::solver::{GspResult, GspSolver};
use crate::sweep::sweep;
use rtse_graph::{Graph, RoadId};
use rtse_obs::ObsHandle;
use rtse_rtf::params::SlotParams;

/// Alg. 5 initialized from `warm_start` instead of the slot means.
///
/// Sampled roads snap to their observed values and roads no observation
/// reaches take their slot means, as in the cold solver; every scheduled
/// road begins at its warm-start value. Both runs stop at the first round
/// that moves no value by `ε` or more, so they approach the same fixed
/// point from different sides and need not agree bit for bit; from
/// `warm_start = μ` the run is bit-identical to [`GspSolver::propagate`].
///
/// # Panics
/// Panics when `warm_start.len()` differs from the road count, and on the
/// observation and dimension checks of [`GspSolver::propagate`].
pub fn propagate_warm(
    solver: &GspSolver,
    graph: &Graph,
    params: &SlotParams,
    observations: &[(RoadId, f64)],
    warm_start: &[f64],
) -> GspResult {
    propagate_warm_observed(solver, graph, params, observations, warm_start, &ObsHandle::noop())
}

/// [`propagate_warm`] with instrumentation: one `gsp.round` span for the
/// run plus the sweep count in `gsp.iters_to_converge`, mirroring
/// [`GspSolver::propagate_observed`]. Estimates are bit-identical to the
/// unobserved call.
///
/// # Panics
/// As [`propagate_warm`].
pub fn propagate_warm_observed(
    solver: &GspSolver,
    graph: &Graph,
    params: &SlotParams,
    observations: &[(RoadId, f64)],
    warm_start: &[f64],
    obs: &ObsHandle,
) -> GspResult {
    assert_eq!(warm_start.len(), graph.num_roads(), "warm start length mismatch");
    sweep(solver, graph, params, observations, warm_start, None, obs).result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtse_graph::generators::{grid, path};

    fn params_for(graph: &Graph, mu: f64, sigma: f64, rho: f64) -> SlotParams {
        SlotParams {
            mu: vec![mu; graph.num_roads()],
            sigma: vec![sigma; graph.num_roads()],
            rho: vec![rho; graph.num_edges()],
        }
    }

    #[test]
    fn warm_start_agrees_with_cold_after_new_observation() {
        // Adding an observation changes the BFS schedule, so round counts
        // are not comparable — but the fixed point must agree.
        let g = grid(5, 5);
        let p = params_for(&g, 40.0, 2.5, 0.9);
        let solver = GspSolver { epsilon: 1e-9, max_rounds: 10_000, record_trace: false };
        let first = solver.propagate(&g, &p, &[(RoadId(0), 25.0)]);
        assert!(first.converged);
        let obs2 = [(RoadId(0), 25.0), (RoadId(24), 50.0)];
        let cold = solver.propagate(&g, &p, &obs2);
        let warm = propagate_warm(&solver, &g, &p, &obs2, &first.values);
        assert!(cold.converged && warm.converged);
        for r in g.road_ids() {
            assert!((cold.speed(r) - warm.speed(r)).abs() < 1e-5, "road {r}");
        }
    }

    #[test]
    fn warm_start_faster_for_perturbed_values_of_same_set() {
        // The realtime case: the next 5-minute round re-probes the same
        // roads with slightly different readings. Warm starting from the
        // previous solution must converge in (weakly) fewer rounds.
        let g = grid(5, 5);
        let p = params_for(&g, 40.0, 2.5, 0.9);
        let solver = GspSolver { epsilon: 1e-9, max_rounds: 10_000, record_trace: false };
        let obs1 = [(RoadId(0), 25.0), (RoadId(24), 50.0)];
        let first = solver.propagate(&g, &p, &obs1);
        assert!(first.converged);
        let obs2 = [(RoadId(0), 25.6), (RoadId(24), 49.1)];
        let cold = solver.propagate(&g, &p, &obs2);
        let warm = propagate_warm(&solver, &g, &p, &obs2, &first.values);
        assert!(cold.converged && warm.converged);
        for r in g.road_ids() {
            assert!((cold.speed(r) - warm.speed(r)).abs() < 1e-5, "road {r}");
        }
        assert!(
            warm.rounds < cold.rounds,
            "warm rounds {} should beat cold {}",
            warm.rounds,
            cold.rounds
        );
    }

    #[test]
    fn warm_start_identical_observations_is_near_noop() {
        let g = grid(4, 4);
        let p = params_for(&g, 35.0, 2.0, 0.8);
        let solver = GspSolver { epsilon: 1e-8, max_rounds: 5_000, record_trace: false };
        let obs = [(RoadId(3), 28.0)];
        let first = solver.propagate(&g, &p, &obs);
        let again = propagate_warm(&solver, &g, &p, &obs, &first.values);
        assert!(again.rounds <= 2, "re-solving a solved system: {} rounds", again.rounds);
    }

    #[test]
    fn warm_start_resets_unreachable_roads_to_the_prior() {
        // Two islands, 0-1-2 and 3-4, probed on the first only: the
        // second island must read μ, not the seed it was handed.
        let mut b = rtse_graph::GraphBuilder::new();
        for i in 0..5 {
            b.add_road(rtse_graph::RoadClass::Local, (i as f64, 0.0));
        }
        b.add_edge(RoadId(0), RoadId(1));
        b.add_edge(RoadId(1), RoadId(2));
        b.add_edge(RoadId(3), RoadId(4));
        let g = b.build();
        let p = params_for(&g, 40.0, 2.0, 0.9);
        let solver = GspSolver::default();
        let seed = [11.0, 12.0, 13.0, 14.0, 15.0];
        let warm = propagate_warm(&solver, &g, &p, &[(RoadId(0), 20.0)], &seed);
        assert_eq!(warm.speed(RoadId(3)).to_bits(), 40.0_f64.to_bits());
        assert_eq!(warm.speed(RoadId(4)).to_bits(), 40.0_f64.to_bits());
        assert_eq!(warm.unreachable, vec![RoadId(3), RoadId(4)]);
        // No observations at all: every road is unreachable.
        let empty = propagate_warm(&solver, &g, &p, &[], &seed);
        assert!(empty.values.iter().all(|v| v.to_bits() == 40.0_f64.to_bits()));
    }

    #[test]
    #[should_panic(expected = "observation for unknown road")]
    fn warm_start_rejects_out_of_range_observations() {
        let g = path(3);
        let p = params_for(&g, 40.0, 2.0, 0.8);
        propagate_warm(&GspSolver::default(), &g, &p, &[(RoadId(3), 30.0)], &p.mu);
    }

    #[test]
    #[should_panic(expected = "conflicting observations for r0")]
    fn warm_start_rejects_conflicting_observations() {
        let g = path(3);
        let p = params_for(&g, 40.0, 2.0, 0.8);
        let obs = [(RoadId(0), 10.0), (RoadId(0), 20.0)];
        propagate_warm(&GspSolver::default(), &g, &p, &obs, &p.mu);
    }
}
