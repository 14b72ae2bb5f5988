//! Engine-level equivalence wall for [`DeltaPolicy::Delta`].
//!
//! The gsp crate proves `propagate_delta` against the full solvers in
//! isolation (`crates/gsp/tests/proptest_delta.rs`); these tests pin the
//! *wired* path — OCS selection, crowd campaign, and the Γ substrate in
//! front of the GSP step — on both [`CorrSubstrate::Dense`] and
//! [`CorrSubstrate::Sparse`]:
//!
//! * seeding a ε = 0 delta round from the slot prior is bit-identical to
//!   the cold full round (`propagate_warm(μ)` and the cold init are the
//!   same recurrence from the same start);
//! * a second round of the same slot seeded from the first one's
//!   published values lands within solver tolerance of the full
//!   recomputation while provably skipping relaxations
//!   (`gsp.delta_skipped` > 0 in the obs registry);
//! * a dimension-mismatched seed and [`DeltaPolicy::Full`] both fall back
//!   to the cold path bit-exactly.
//!
//! CI runs this suite under `RTSE_THREADS=1` and `=4` (with and without
//! `validate`), which exercises the pooled correlation builds behind
//! `corr_table` at both widths.

use crowd_rtse_core::{
    CorrSubstrate, CrowdRtse, DeltaPolicy, OfflineArtifacts, OnlineConfig, PrevRound, SpeedQuery,
};
use rtse_crowd::{uniform_costs, CostRange, WorkerPool};
use rtse_data::{SlotOfDay, SynthConfig, SynthDataset, TrafficGenerator};
use rtse_graph::generators::grid;
use rtse_graph::{Graph, RoadId};
use rtse_obs::{ObsHandle, Registry, Stage};
use rtse_rtf::SparseCorrConfig;
use std::sync::Arc;

struct World {
    graph: Graph,
    dataset: SynthDataset,
    costs: Vec<u32>,
}

fn world(seed: u64) -> World {
    let graph = grid(5, 6);
    let cfg = SynthConfig { days: 15, seed, ..SynthConfig::default() };
    let dataset = TrafficGenerator::new(&graph, cfg).generate();
    let costs = uniform_costs(graph.num_roads(), CostRange::C2, seed);
    World { graph, dataset, costs }
}

fn substrates() -> [CorrSubstrate; 2] {
    [CorrSubstrate::Dense, CorrSubstrate::Sparse(SparseCorrConfig::default())]
}

fn engine_with(w: &World, substrate: CorrSubstrate) -> CrowdRtse<'_> {
    let offline =
        OfflineArtifacts::from_model(rtse_rtf::moment_estimate(&w.graph, &w.dataset.history))
            .with_substrate(substrate);
    CrowdRtse::new(&w.graph, offline)
}

#[test]
fn prior_seeded_epsilon_zero_round_is_bit_identical_to_cold() {
    let w = world(101);
    let slot = SlotOfDay::from_hm(8, 30);
    let query = SpeedQuery::new((0u32..12).map(RoadId).collect(), slot);
    let pool = WorkerPool::spawn(&w.graph, 40, 0.5, (0.3, 1.0), 7);
    let truth = w.dataset.ground_truth_snapshot(slot);
    for substrate in substrates() {
        let e = engine_with(&w, substrate);
        let full = e.answer_query(&query, &pool, &w.costs, truth, &OnlineConfig::default());
        let mu = e.offline().model().slot(slot).mu.clone();
        let config =
            OnlineConfig { delta: DeltaPolicy::Delta { epsilon: 0.0 }, ..Default::default() };
        let prev = PrevRound { values: &mu, observations: &[] };
        let delta = e.answer_query_warm(&query, &pool, &w.costs, truth, &config, Some(prev));
        assert_eq!(full.observations, delta.observations, "{substrate:?}: campaigns diverged");
        for (i, (f, d)) in full.all_values.iter().zip(&delta.all_values).enumerate() {
            assert_eq!(
                f.to_bits(),
                d.to_bits(),
                "{substrate:?}: road {i} differs: full {f} vs delta {d}"
            );
        }
    }
}

#[test]
fn second_round_matches_full_within_tolerance_and_skips_relaxations() {
    let w = world(103);
    let slot = SlotOfDay::from_hm(18, 0);
    let query = SpeedQuery::new((0u32..15).map(RoadId).collect(), slot);
    let pool = WorkerPool::spawn(&w.graph, 45, 0.5, (0.3, 1.0), 11);
    let truth: Vec<f64> = w.dataset.ground_truth_snapshot(slot).to_vec();
    for substrate in substrates() {
        let reg = Arc::new(Registry::new());
        let e = engine_with(&w, substrate).with_obs(ObsHandle::from_registry(reg.clone()));
        let first = e.answer_query(&query, &pool, &w.costs, &truth, &OnlineConfig::default());
        // The world moved between rounds: one road the campaign actually
        // probed slowed sharply. Everything else is unchanged, so most of
        // the network's inputs are identical.
        let moved = first.observations.first().expect("campaign probed at least one road").0;
        let mut truth2 = truth.clone();
        truth2[moved.index()] *= 0.6;
        let full2 = e.answer_query(&query, &pool, &w.costs, &truth2, &OnlineConfig::default());

        let config =
            OnlineConfig { delta: DeltaPolicy::Delta { epsilon: 1e-6 }, ..Default::default() };
        let prev = PrevRound { values: &first.all_values, observations: &first.observations };
        let skipped_before = reg.count(Stage::GspDeltaSkipped);
        let delta2 = e.answer_query_warm(&query, &pool, &w.costs, &truth2, &config, Some(prev));
        assert_eq!(full2.observations, delta2.observations, "{substrate:?}: campaigns diverged");
        for (i, (f, d)) in full2.all_values.iter().zip(&delta2.all_values).enumerate() {
            assert!((f - d).abs() < 1e-3, "{substrate:?}: road {i} drifted: full {f} vs delta {d}");
        }
        if e.obs().is_enabled() {
            // Under obs-noop every registry stays at zero.
            assert!(
                reg.count(Stage::GspDeltaSkipped) > skipped_before,
                "{substrate:?}: a localized change must skip relaxations"
            );
            assert_eq!(
                reg.count(Stage::GspDeltaFrontier),
                1,
                "{substrate:?}: frontier not recorded"
            );
        }
    }
}

#[test]
fn mismatched_seed_and_full_policy_fall_back_to_cold() {
    let w = world(107);
    let slot = SlotOfDay::from_hm(12, 0);
    let query = SpeedQuery::new((3u32..10).map(RoadId).collect(), slot);
    let pool = WorkerPool::spawn(&w.graph, 30, 0.5, (0.3, 1.0), 5);
    let truth = w.dataset.ground_truth_snapshot(slot);
    let e = engine_with(&w, CorrSubstrate::Dense);
    let cold = e.answer_query(&query, &pool, &w.costs, truth, &OnlineConfig::default());

    // Wrong-dimension seed under a delta policy: silently a full round.
    let short = vec![40.0; w.graph.num_roads() - 1];
    let config = OnlineConfig { delta: DeltaPolicy::Delta { epsilon: 1e-6 }, ..Default::default() };
    let prev = PrevRound { values: &short, observations: &[] };
    let fallback = e.answer_query_warm(&query, &pool, &w.costs, truth, &config, Some(prev));

    // Full policy ignores a perfectly good seed.
    let full_policy = OnlineConfig { delta: DeltaPolicy::Full, ..Default::default() };
    let seed = PrevRound { values: &cold.all_values, observations: &cold.observations };
    let ignored = e.answer_query_warm(&query, &pool, &w.costs, truth, &full_policy, Some(seed));

    for (i, c) in cold.all_values.iter().enumerate() {
        assert_eq!(c.to_bits(), fallback.all_values[i].to_bits(), "fallback road {i}");
        assert_eq!(c.to_bits(), ignored.all_values[i].to_bits(), "full-policy road {i}");
    }
}
