//! Criterion micro-benches for GSP (Fig. 4b): propagation time vs number
//! of observed roads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtse_bench::semi_syn_world;
use rtse_data::SlotOfDay;
use rtse_graph::RoadId;
use rtse_gsp::GspSolver;
use std::hint::black_box;

fn bench_gsp(c: &mut Criterion) {
    let world = semi_syn_world(607, 8, 2018);
    let slot = SlotOfDay::from_hm(8, 30);
    let params = world.model.slot(slot);
    let truth = world.dataset.ground_truth_snapshot(slot);

    let mut group = c.benchmark_group("gsp_fig4b");
    for observed in [10usize, 30, 60, 120] {
        let observations: Vec<(RoadId, f64)> = (0..observed)
            .map(|i| {
                let r = RoadId::from(i * world.graph.num_roads() / observed);
                (r, truth[r.index()])
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("sequential", observed),
            &observations,
            |b, obs| {
                let solver = GspSolver::default();
                b.iter(|| black_box(solver.propagate(&world.graph, params, obs)))
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gsp
}
criterion_main!(benches);
