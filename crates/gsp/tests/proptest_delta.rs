//! Equivalence wall for delta re-propagation ([`rtse_gsp::propagate_delta`]).
//!
//! Three properties pin the delta solver to the full one:
//!
//! * **ε = 0 is exact.** Full-sweep mode runs the same Gauss–Seidel
//!   recurrence as [`rtse_gsp::propagate_warm`] from the same seed, so the
//!   results must be bit-identical on every road — any divergence means
//!   the frontier machinery leaked into the arithmetic. Warm from `μ` is
//!   likewise bit-identical to the cold solver.
//! * **ε > 0 is a refinement, not an approximation of a different fixed
//!   point.** Seeding from a converged previous round and perturbing the
//!   observations, the delta run must land within solver tolerance of the
//!   cold full run on the new observations, for arbitrary topology and
//!   change sets (moved readings, added probes, removed probes via the
//!   `changed` hint).
//! * **Delta chases the cold fixed point.** On a 12×12 grid, a delta run
//!   seeded from one round agrees with a cold solve of the next within
//!   tolerance on every road.

use proptest::prelude::*;
use rtse_graph::generators::grid;
use rtse_graph::{Graph, GraphBuilder, RoadClass, RoadId};
use rtse_gsp::{propagate_delta, propagate_warm, DeltaGsp, GspSolver};
use rtse_rtf::params::SlotParams;

const N: usize = 14;

fn random_graph(edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new();
    for i in 0..N {
        b.add_road(RoadClass::Secondary, (i as f64, 0.0));
    }
    for &(x, y) in edges {
        if x != y {
            b.add_edge(RoadId(x), RoadId(y));
        }
    }
    b.build()
}

fn params_for(graph: &Graph, mu: f64, sigma: f64, rho: f64) -> SlotParams {
    SlotParams {
        mu: vec![mu; graph.num_roads()],
        sigma: vec![sigma; graph.num_roads()],
        rho: vec![rho; graph.num_edges()],
    }
}

/// Dedups an observation list by road (first reading wins) so random
/// index/speed pairs never trip the solver's conflicting-observation check.
fn dedup_obs(raw: &[(u32, f64)]) -> Vec<(RoadId, f64)> {
    let mut seen = [false; N];
    let mut obs = Vec::new();
    for &(r, v) in raw {
        let i = r as usize % N;
        if !seen[i] {
            seen[i] = true;
            obs.push((RoadId(i as u32), v));
        }
    }
    obs
}

proptest! {
    /// ε = 0 (full-sweep mode) is bit-identical to warm full propagation
    /// from the same previous values, for arbitrary topology, observation
    /// sets, previous rounds, and `changed` hints (which full-sweep mode
    /// must ignore entirely).
    #[test]
    fn epsilon_zero_is_bit_identical_to_warm_full(
        edges in proptest::collection::vec((0u32..N as u32, 0u32..N as u32), 0..40),
        raw_obs in proptest::collection::vec((0u32..N as u32, 5.0..80.0f64), 0..6),
        prev in proptest::collection::vec(5.0..80.0f64, N),
        hints in proptest::collection::vec(0u32..N as u32, 0..4),
        mu in 20.0..60.0f64,
        sigma in 0.5..3.0f64,
        rho in 0.05..0.95f64,
    ) {
        let g = random_graph(&edges);
        let p = params_for(&g, mu, sigma, rho);
        let obs = dedup_obs(&raw_obs);
        let changed: Vec<RoadId> = hints.into_iter().map(RoadId).collect();
        let base = GspSolver { epsilon: 1e-6, max_rounds: 200, record_trace: true };

        let warm = propagate_warm(&base, &g, &p, &obs, &prev);
        let solver = DeltaGsp { base, epsilon: 0.0 };
        let delta = propagate_delta(&solver, &g, &p, &obs, &prev, &changed);

        prop_assert!(delta.full_sweep, "ε = 0 must select full-sweep mode");
        prop_assert_eq!(delta.skipped, 0, "full-sweep mode must not skip roads");
        prop_assert_eq!(delta.result.rounds, warm.rounds, "round counts differ");
        prop_assert_eq!(delta.result.converged, warm.converged);
        prop_assert_eq!(&delta.result.delta_trace, &warm.delta_trace);
        for r in g.road_ids() {
            let (d, w) = (delta.result.speed(r), warm.speed(r));
            prop_assert!(
                d.to_bits() == w.to_bits(),
                "speed({}) differs: delta {} vs warm {}", r, d, w
            );
        }
        let cold = base.propagate(&g, &p, &obs);
        let warm_from_mu = propagate_warm(&base, &g, &p, &obs, &p.mu);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&cold.values), bits(&warm_from_mu.values));
    }
}

proptest! {
    /// ε > 0: seeded from the converged previous round, a delta run over a
    /// perturbed observation set (moved readings plus optionally one added
    /// and one removed probe) lands within solver tolerance of the cold
    /// full propagation over the same new observations.
    #[test]
    fn perturbed_rounds_match_cold_within_tolerance(
        edges in proptest::collection::vec((0u32..N as u32, 0u32..N as u32), 0..40),
        raw_obs in proptest::collection::vec((0u32..N as u32, 5.0..80.0f64), 1..6),
        nudges in proptest::collection::vec(-4.0..4.0f64, 6),
        added in 0u32..N as u32,
        add_speed in 5.0..80.0f64,
        drop_first in 0u8..2,
        delta_eps in 1e-9..1e-3f64,
        mu in 20.0..60.0f64,
        sigma in 0.5..3.0f64,
        rho in 0.05..0.95f64,
    ) {
        let g = random_graph(&edges);
        let p = params_for(&g, mu, sigma, rho);
        let base = GspSolver { epsilon: 1e-7, max_rounds: 2_000, record_trace: false };

        let obs_a = dedup_obs(&raw_obs);
        let first = base.propagate(&g, &p, &obs_a);
        prop_assert!(first.converged);

        // New round: nudge every reading, maybe drop the first probe,
        // maybe add a new one.
        let mut obs_b: Vec<(RoadId, f64)> = obs_a
            .iter()
            .zip(&nudges)
            .map(|(&(r, v), &n)| (r, (v + n).max(1.0)))
            .collect();
        let mut changed = Vec::new();
        if drop_first == 1 {
            let (dropped, _) = obs_b.remove(0);
            changed.push(dropped);
        }
        if !obs_b.iter().any(|&(r, _)| r == RoadId(added)) {
            obs_b.push((RoadId(added), add_speed));
        }

        let cold = base.propagate(&g, &p, &obs_b);
        let solver = DeltaGsp { base, epsilon: delta_eps };
        let delta = propagate_delta(&solver, &g, &p, &obs_b, &first.values, &changed);
        prop_assert!(cold.converged && delta.result.converged);
        for r in g.road_ids() {
            let (d, c) = (delta.result.speed(r), cold.speed(r));
            prop_assert!(
                (d - c).abs() < 1e-3,
                "speed({}) drifted: delta {} vs cold {}", r, d, c
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// On a 12×12 grid, a delta run seeded from the previous round (one
    /// moved reading, maybe one added probe) and a cold full solve of the
    /// new round agree on the fixed point within tolerance.
    #[test]
    fn delta_matches_cold_full_on_a_grid(
        obs_a in 0u32..144,
        obs_b in 0u32..144,
        nudge in -3.0..3.0f64,
    ) {
        let g = grid(12, 12);
        let p = params_for(&g, 45.0, 2.0, 0.85);
        let base = GspSolver { epsilon: 1e-8, max_rounds: 2_000, record_trace: false };

        let first_obs = [(RoadId(obs_a), 30.0)];
        let first = base.propagate(&g, &p, &first_obs);
        prop_assert!(first.converged);

        let mut obs = vec![(RoadId(obs_a), 30.0 + nudge)];
        if obs_b != obs_a {
            obs.push((RoadId(obs_b), 55.0));
        }
        let cold = base.propagate(&g, &p, &obs);
        let solver = DeltaGsp { base, epsilon: 1e-6 };
        let delta = propagate_delta(&solver, &g, &p, &obs, &first.values, &[]);
        prop_assert!(cold.converged && delta.result.converged);
        for r in g.road_ids() {
            let (d, f) = (delta.result.speed(r), cold.speed(r));
            prop_assert!(
                (d - f).abs() < 1e-4,
                "speed({}) differs from the cold full run: {} vs {}", r, d, f
            );
        }
    }
}
