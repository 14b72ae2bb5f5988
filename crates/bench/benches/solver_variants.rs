//! Ablation benches for solver variants:
//! * plain vs lazy Objective-Greedy (identical output, fewer gain probes);
//! * GSP Gauss–Seidel vs exact conjugate-gradient MAP.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtse_bench::{semi_syn_world, THETA_TUNED};
use rtse_data::SlotOfDay;
use rtse_graph::RoadId;
use rtse_gsp::{exact_map_estimate, GspSolver};
use rtse_ocs::{lazy_objective_greedy, objective_greedy, OcsInstance};
use rtse_rtf::{CorrelationTable, PathCorrelation};
use std::hint::black_box;

fn bench_variants(c: &mut Criterion) {
    let world = semi_syn_world(607, 8, 2018);
    let slot = SlotOfDay::from_hm(8, 30);
    let corr =
        CorrelationTable::build(&world.graph, &world.model, slot, PathCorrelation::MaxProduct);
    let params = world.model.slot(slot);

    let mut group = c.benchmark_group("greedy_variants");
    for budget in [30u32, 150] {
        let inst = OcsInstance {
            sigma: &params.sigma,
            corr: &corr,
            queried: &world.queried_51,
            candidates: &world.all_roads,
            costs: &world.costs_c1,
            budget,
            theta: THETA_TUNED,
        };
        assert_eq!(lazy_objective_greedy(&inst), objective_greedy(&inst));
        group.bench_with_input(BenchmarkId::new("plain", budget), &inst, |b, inst| {
            b.iter(|| black_box(objective_greedy(inst)))
        });
        group.bench_with_input(BenchmarkId::new("lazy", budget), &inst, |b, inst| {
            b.iter(|| black_box(lazy_objective_greedy(inst)))
        });
    }
    group.finish();

    let truth = world.dataset.ground_truth_snapshot(slot);
    let observations: Vec<(RoadId, f64)> = (0..60)
        .map(|i| {
            let r = RoadId::from(i * world.graph.num_roads() / 60);
            (r, truth[r.index()])
        })
        .collect();
    let mut group = c.benchmark_group("gsp_variants");
    group.bench_function("gauss_seidel", |b| {
        let solver = GspSolver::default();
        b.iter(|| black_box(solver.propagate(&world.graph, params, &observations)))
    });
    group.bench_function("exact_cg", |b| {
        b.iter(|| black_box(exact_map_estimate(&world.graph, params, &observations)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_variants
}
criterion_main!(benches);
