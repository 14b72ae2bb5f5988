//! Engine-level wall for Γ rows built on demand.
//!
//! A dense [`CorrelationTable`] builds each row on its first read, so a
//! cold slot's round pays only the rows its OCS solve reads. These tests
//! pin the wired path:
//!
//! * a fixed-seed query set answered on a lazy engine and on an engine
//!   whose tables were prewarmed whole gives identical selections and
//!   bit-identical `all_values`;
//! * a cold slot's first round builds no rows beyond `R^q`, each
//!   component solve's `R^c`, and the candidates rejected at commit;
//! * threads racing the first read of one cold row build it once and all
//!   read the same bits.

use crowd_rtse_core::{CrowdRtse, OfflineArtifacts, OnlineConfig, SelectionStrategy, SpeedQuery};
use rtse_crowd::{uniform_costs, CostRange, WorkerPool};
use rtse_data::{SlotOfDay, SynthConfig, SynthDataset, TrafficGenerator};
use rtse_graph::generators::hong_kong_like;
use rtse_graph::{Graph, RoadId};
use rtse_obs::{ObsHandle, Stage};
use rtse_rtf::{CorrTable, CorrelationTable, RtfModel};
use std::collections::BTreeSet;
use std::sync::Barrier;

const ROADS: usize = 160;
const QUERY_SIZES: [usize; 5] = [1, 4, 8, 16, 33];

struct World {
    graph: Graph,
    dataset: SynthDataset,
    costs: Vec<u32>,
    model: RtfModel,
}

fn world(seed: u64) -> World {
    let graph = hong_kong_like(ROADS, seed);
    let cfg = SynthConfig { days: 12, seed, ..SynthConfig::default() };
    let dataset = TrafficGenerator::new(&graph, cfg).generate();
    let costs = uniform_costs(graph.num_roads(), CostRange::C2, seed);
    let model = rtse_rtf::moment_estimate(&graph, &dataset.history);
    World { graph, dataset, costs, model }
}

fn slots() -> [SlotOfDay; 3] {
    [SlotOfDay::from_hm(7, 45), SlotOfDay::from_hm(12, 0), SlotOfDay::from_hm(18, 20)]
}

/// `k` distinct roads spread over the network, different per slot.
fn query(slot: SlotOfDay, k: usize) -> SpeedQuery {
    let roads = (0..k).map(|i| RoadId::from((i * 37 + slot.index() * 11) % ROADS)).collect();
    SpeedQuery::new(roads, slot)
}

fn dense(table: &CorrTable) -> &CorrelationTable {
    match table {
        CorrTable::Dense(t) => t,
        CorrTable::Sparse(_) => panic!("the default substrate is dense"),
    }
}

#[test]
fn lazy_and_prewarmed_engines_answer_bit_identically() {
    let w = world(2018);
    let pool = WorkerPool::spawn(&w.graph, 70, 0.5, (0.3, 1.0), 9);
    let config = OnlineConfig::default();
    let lazy = CrowdRtse::new(&w.graph, OfflineArtifacts::from_model(w.model.clone()));
    let warm = CrowdRtse::new(&w.graph, OfflineArtifacts::from_model(w.model.clone()));
    for slot in slots() {
        let full = warm.offline().prewarm(&w.graph, slot);
        assert_eq!(dense(&full).rows_built(), ROADS, "prewarm builds every row");
    }
    let mut cold_rows = Vec::new();
    for slot in slots() {
        let truth = w.dataset.ground_truth_snapshot(slot);
        for k in QUERY_SIZES {
            let q = query(slot, k);
            let a = lazy.answer_query(&q, &pool, &w.costs, truth, &config);
            let b = warm.answer_query(&q, &pool, &w.costs, truth, &config);
            assert_eq!(a.selection.roads, b.selection.roads, "slot {slot:?} |R^q| = {k}");
            assert_eq!(a.selection.spent, b.selection.spent, "slot {slot:?} |R^q| = {k}");
            assert_eq!(a.selection.value.to_bits(), b.selection.value.to_bits());
            assert_eq!(a.observations, b.observations, "slot {slot:?} |R^q| = {k}");
            assert_eq!(a.all_values.len(), b.all_values.len());
            for (i, (x, y)) in a.all_values.iter().zip(&b.all_values).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "slot {slot:?} |R^q| = {k}: road {i}");
            }
        }
        cold_rows.push(dense(&lazy.offline().corr_table(&w.graph, slot)).rows_built());
    }
    for (slot, rows) in slots().iter().zip(&cold_rows) {
        assert!(*rows < ROADS, "slot {slot:?}: five queries built {rows} of {ROADS} rows");
    }
}

#[test]
fn a_cold_round_builds_only_the_rows_its_solve_reads() {
    let w = world(7);
    let pool = WorkerPool::spawn(&w.graph, 70, 0.5, (0.3, 1.0), 3);
    let candidates = pool.covered_roads();
    let config = OnlineConfig::default();
    let reference = CrowdRtse::new(&w.graph, OfflineArtifacts::from_model(w.model.clone()));
    for slot in slots() {
        let truth = w.dataset.ground_truth_snapshot(slot);
        let full = reference.offline().prewarm(&w.graph, slot);
        for k in QUERY_SIZES {
            let q = query(slot, k);
            let lazy = CrowdRtse::new(&w.graph, OfflineArtifacts::from_model(w.model.clone()));
            lazy.answer_query(&q, &pool, &w.costs, truth, &config);
            let built = dense(&lazy.offline().corr_table(&w.graph, slot)).rows_built();

            // Hybrid runs both component solves; each reads its own R^c
            // and the candidates it rejected at commit, which are
            // redundant against that R^c.
            let mut allowed: BTreeSet<RoadId> = q.roads.iter().copied().collect();
            for strategy in [SelectionStrategy::Ratio, SelectionStrategy::Objective] {
                let component = OnlineConfig { strategy, ..config };
                let sel = reference.select_roads(&q, &candidates, &w.costs, &component);
                allowed.extend(sel.roads.iter().copied());
                allowed.extend(
                    candidates
                        .iter()
                        .copied()
                        .filter(|&r| sel.roads.iter().any(|&c| full.corr(r, c) > config.theta)),
                );
            }
            assert!(
                built <= allowed.len(),
                "slot {slot:?} |R^q| = {k}: built {built} rows, at most {} allowed",
                allowed.len()
            );
        }
    }
}

#[test]
fn racing_first_reads_of_a_cold_row_build_it_once() {
    let w = world(31);
    let obs = ObsHandle::fresh();
    let engine = CrowdRtse::new(&w.graph, OfflineArtifacts::from_model(w.model.clone()))
        .with_obs(obs.clone());
    let slot = SlotOfDay::from_hm(9, 15);
    let table = engine.offline().corr_table(&w.graph, slot);
    let table = dense(&table);
    let road = RoadId(17);
    assert_eq!(table.rows_built(), 0, "a new slot's table starts empty");

    const RACERS: usize = 4;
    let start = Barrier::new(RACERS);
    let reads: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RACERS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    table.row(road).iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    for r in &reads[1..] {
        assert_eq!(r, &reads[0], "every racer reads the same bits");
    }
    assert_eq!(table.rows_built(), 1, "the race builds one row");
    if obs.is_enabled() {
        let reg = obs.registry().expect("enabled handle has a registry");
        assert_eq!(reg.count(Stage::CorrDijkstraRow), 1, "one corr.dijkstra_row span");
    }
    let full = CorrelationTable::build(&w.graph, &w.model, slot, Default::default());
    let want: Vec<u64> = full.row(road).iter().map(|v| v.to_bits()).collect();
    assert_eq!(reads[0], want, "the raced row equals the fully built one");
}
