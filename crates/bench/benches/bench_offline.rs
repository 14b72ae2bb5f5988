//! Criterion micro-benches for the pooled offline pipeline: serial vs
//! pooled correlation-table build and full-day RTF training at several
//! thread counts. Speedups are bounded by host cores — see EXPERIMENTS.md
//! ("Threading knobs").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtse_bench::semi_syn_world;
use rtse_data::SlotOfDay;
use rtse_graph::components::grow_connected_subset;
use rtse_graph::RoadId;
use rtse_pool::ComputePool;
use rtse_rtf::{CorrelationTable, PathCorrelation, RtfTrainer};
use std::hint::black_box;

const THREADS: [usize; 3] = [1, 2, 4];

fn bench_offline(c: &mut Criterion) {
    let world = semi_syn_world(300, 6, 2018);
    let slot = SlotOfDay::from_hm(8, 30);

    let mut group = c.benchmark_group("offline_pool");
    for threads in THREADS {
        group.bench_with_input(BenchmarkId::new("corr_table", threads), &threads, |b, &n| {
            let pool = ComputePool::new(n);
            b.iter(|| {
                black_box(CorrelationTable::build_with_pool(
                    &world.graph,
                    &world.model,
                    slot,
                    PathCorrelation::MaxProduct,
                    &pool,
                ))
            })
        });
    }

    let keep = grow_connected_subset(&world.graph, RoadId(0), 60).unwrap();
    let (sub, _) = world.graph.induced_subgraph(&keep);
    let history = world.dataset.history.project_roads(&keep);
    for threads in THREADS {
        group.bench_with_input(BenchmarkId::new("train_all_slots", threads), &threads, |b, &n| {
            let trainer = RtfTrainer { max_iters: 2, threads: n, ..Default::default() };
            b.iter(|| black_box(trainer.train(&sub, &history)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_offline
}
criterion_main!(benches);
