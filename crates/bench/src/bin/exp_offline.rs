//! Offline-pipeline parallel speedup: serial vs pooled wall clock for the
//! two hot paths routed through `rtse_pool::ComputePool` — the
//! correlation-table build (one Dijkstra per road) and full-day RTF
//! training (288 independent slot fits) — plus the delta-vs-full GSP
//! round.
//!
//! Results are printed as a table and recorded in `BENCH_offline.json`
//! (in the working directory) together with the host parallelism, so the
//! committed numbers are honest about the machine that produced them: on
//! a single-core host every speedup is ≈ 1× by construction, and the
//! multi-thread rows only demonstrate that the pooled paths add no
//! correctness or pathological scheduling cost. Re-run on a multi-core
//! host to reproduce real speedups (see EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release -p rtse-bench --bin exp_offline [--quick]
//! ```

use rtse_bench::{quick_mode, semi_syn_world};
use rtse_data::SlotOfDay;
use rtse_eval::{time_mean, Table};
use rtse_graph::components::grow_connected_subset;
use rtse_graph::RoadId;
use rtse_gsp::{propagate_delta, propagate_delta_observed, DeltaGsp, DeltaResult, GspSolver};
use rtse_obs::ObsHandle;
use rtse_pool::ComputePool;
use rtse_rtf::{CorrelationTable, PathCorrelation, RtfTrainer};

const THREAD_SWEEP: [usize; 3] = [2, 4, 8];

struct Measurement {
    stage: &'static str,
    serial_ms: f64,
    /// `(threads, wall ms)` per pooled run.
    pooled: Vec<(usize, f64)>,
}

/// Delta-vs-full timing for the single-moved-observation round.
struct DeltaTiming {
    full_ms: f64,
    delta_ms: f64,
    epsilon: f64,
    run: DeltaResult,
}

fn main() {
    let (roads, days, reps) = if quick_mode() { (150, 4, 2) } else { (600, 8, 3) };
    let world = semi_syn_world(roads, days, 2018);
    let slot = SlotOfDay::from_hm(8, 30);
    let mut measurements = Vec::new();

    // 1. Correlation-table build: one Dijkstra per road, row-sliced.
    let corr = |threads: usize| {
        let pool = ComputePool::new(threads);
        std::hint::black_box(CorrelationTable::build_with_pool(
            &world.graph,
            &world.model,
            slot,
            PathCorrelation::MaxProduct,
            &pool,
        ));
    };
    measurements.push(sweep("corr_table_build", reps, corr));

    // 2. Full-day RTF training (288 slot fits) on a smaller subnetwork so
    //    the serial baseline stays affordable.
    let sub_size = (roads / 4).max(40);
    let keep = grow_connected_subset(&world.graph, RoadId(0), sub_size)
        .expect("hong_kong_like is connected");
    let (sub, _) = world.graph.induced_subgraph(&keep);
    let history = world.dataset.history.project_roads(&keep);
    let train = |threads: usize| {
        let trainer = RtfTrainer { max_iters: 5, threads, ..Default::default() };
        std::hint::black_box(trainer.train(&sub, &history));
    };
    measurements.push(sweep("rtf_train_all_slots", 1, train));

    // 3. Delta re-propagation: the realtime-serving case where one
    //    observation moved between rounds. Cold full solve vs a delta run
    //    seeded from the previous fixed point on the same network.
    let params = world.model.slot(slot);
    let observations: Vec<(RoadId, f64)> = world
        .queried_33
        .iter()
        .map(|&r| (r, world.dataset.today.snapshot(0, slot)[r.index()]))
        .collect();
    let serial = GspSolver { epsilon: 1e-9, max_rounds: 100, record_trace: false };
    let full_ms = time_mean(reps, || {
        std::hint::black_box(serial.propagate(&world.graph, params, &observations));
    })
    .as_secs_f64()
        * 1e3;
    let prev = serial.propagate(&world.graph, params, &observations);
    assert!(prev.converged, "the offline world's GSP round must converge");
    let mut moved = observations.clone();
    moved[0].1 += 1.5;
    let delta_solver = DeltaGsp { base: serial, epsilon: 1e-6 };
    let delta_ms = time_mean(reps, || {
        std::hint::black_box(propagate_delta(
            &delta_solver,
            &world.graph,
            params,
            &moved,
            &prev.values,
            &[],
        ));
    })
    .as_secs_f64()
        * 1e3;
    let delta_run = propagate_delta(&delta_solver, &world.graph, params, &moved, &prev.values, &[]);
    assert!(delta_run.skipped > 0, "a single moved observation must skip relaxations");
    println!(
        "delta re-propagation: {delta_ms:.2} ms vs {full_ms:.2} ms full ({:.1}x), \
         {} of {} visits skipped",
        full_ms / delta_ms,
        delta_run.skipped,
        delta_run.evaluated + delta_run.skipped,
    );

    let mut t = Table::new(
        "Offline pipeline: serial vs pooled wall clock",
        &["stage", "serial ms", "2T ms", "4T ms", "8T ms", "4T speedup"],
    );
    for m in &measurements {
        let ms_at = |n: usize| {
            m.pooled
                .iter()
                .find(|&&(t, _)| t == n)
                .map_or_else(|| "-".to_string(), |&(_, ms)| format!("{ms:.1}"))
        };
        let speedup4 = m
            .pooled
            .iter()
            .find(|&&(t, _)| t == 4)
            .map_or_else(|| "-".to_string(), |&(_, ms)| format!("{:.2}x", m.serial_ms / ms));
        t.push_row(vec![
            m.stage.to_string(),
            format!("{:.1}", m.serial_ms),
            ms_at(2),
            ms_at(4),
            ms_at(8),
            speedup4,
        ]);
    }
    println!("{}", t.render());

    let host_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host parallelism: {host_threads} (speedups are bounded by physical cores; \
         ~1x is expected on a single-core host)"
    );

    // Instrumented pass: run each stage once through a fresh stage
    // registry so the committed JSON carries a per-stage breakdown
    // (span counts, mean/p50/p90/p99 nanoseconds), and time the
    // correlation build with the no-op handle vs the live registry to
    // keep the instrumentation overhead honest and on record.
    let obs = ObsHandle::fresh();
    let pool = ComputePool::from_env();
    let noop_ms = time_mean(reps, || {
        std::hint::black_box(CorrelationTable::build_observed(
            &world.graph,
            &world.model,
            slot,
            PathCorrelation::MaxProduct,
            &pool,
            &ObsHandle::noop(),
        ));
    })
    .as_secs_f64()
        * 1e3;
    let enabled_ms = time_mean(reps, || {
        std::hint::black_box(CorrelationTable::build_observed(
            &world.graph,
            &world.model,
            slot,
            PathCorrelation::MaxProduct,
            &pool,
            &obs,
        ));
    })
    .as_secs_f64()
        * 1e3;
    let trainer = RtfTrainer { max_iters: 5, threads: 0, ..Default::default() };
    std::hint::black_box(trainer.train_with_obs(&sub, &history, &obs));
    let base = GspSolver { epsilon: 1e-9, max_rounds: 100, record_trace: false };
    std::hint::black_box(base.propagate_observed(&world.graph, params, &observations, &obs));
    std::hint::black_box(propagate_delta_observed(
        &delta_solver,
        &world.graph,
        params,
        &moved,
        &prev.values,
        &[],
        &obs,
    ));
    let obs_json = obs.registry().map(|r| r.snapshot_json());
    println!(
        "instrumented corr build: {enabled_ms:.1} ms vs {noop_ms:.1} ms no-op \
         (per-stage breakdown recorded in the JSON)"
    );

    let delta = DeltaTiming { full_ms, delta_ms, epsilon: delta_solver.epsilon, run: delta_run };
    let json = render_json(
        roads,
        days,
        reps,
        host_threads,
        &measurements,
        &delta,
        obs_json.as_deref(),
        noop_ms,
        enabled_ms,
    );
    let out = "BENCH_offline.json";
    std::fs::write(out, json).expect("writing BENCH_offline.json");
    println!("wrote {out}");
}

/// Times `f` serially (1 thread) and at each sweep width.
fn sweep(stage: &'static str, reps: usize, f: impl Fn(usize)) -> Measurement {
    let ms = |threads: usize| time_mean(reps, || f(threads)).as_secs_f64() * 1e3;
    let serial_ms = ms(1);
    let pooled = THREAD_SWEEP.iter().map(|&n| (n, ms(n))).collect();
    Measurement { stage, serial_ms, pooled }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    roads: usize,
    days: usize,
    reps: usize,
    host_threads: usize,
    measurements: &[Measurement],
    delta: &DeltaTiming,
    obs_json: Option<&str>,
    obs_noop_ms: f64,
    obs_enabled_ms: f64,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"offline_parallel_speedup\",\n");
    s.push_str(&format!(
        "  \"host\": {{ \"available_parallelism\": {host_threads}, \"rtse_threads_env\": {} }},\n",
        std::env::var("RTSE_THREADS").map_or_else(|_| "null".into(), |v| format!("\"{v}\""))
    ));
    s.push_str(&format!(
        "  \"config\": {{ \"roads\": {roads}, \"days\": {days}, \"reps\": {reps} }},\n"
    ));
    s.push_str("  \"note\": \"speedups are bounded by host cores; on a 1-core host ~1x is the honest expectation — see EXPERIMENTS.md for multicore reproduction\",\n");
    s.push_str("  \"stages\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        s.push_str(&format!(
            "    {{ \"stage\": \"{}\", \"serial_ms\": {:.3}, \"pooled\": [",
            m.stage, m.serial_ms
        ));
        for (j, &(threads, ms)) in m.pooled.iter().enumerate() {
            s.push_str(&format!(
                "{{ \"threads\": {threads}, \"ms\": {ms:.3}, \"speedup\": {:.3} }}",
                m.serial_ms / ms
            ));
            if j + 1 < m.pooled.len() {
                s.push_str(", ");
            }
        }
        s.push_str(" ] }");
        if i + 1 < measurements.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"delta_speedup\": {{ \"stage\": \"gsp_propagate\", \"epsilon\": {}, \
         \"full_ms\": {:.3}, \"delta_ms\": {:.3}, \"speedup\": {:.3}, \"rounds\": {}, \
         \"scheduled\": {}, \"frontier\": {}, \"evaluated\": {}, \"skipped\": {}, \
         \"note\": \"one moved observation re-propagated from the previous fixed point vs a \
         cold full solve\" }},\n",
        delta.epsilon,
        delta.full_ms,
        delta.delta_ms,
        delta.full_ms / delta.delta_ms,
        delta.run.result.rounds,
        delta.run.scheduled,
        delta.run.frontier,
        delta.run.evaluated,
        delta.run.skipped,
    ));
    s.push_str(&format!(
        "  \"obs_overhead\": {{ \"stage\": \"corr_table_build\", \"noop_ms\": {obs_noop_ms:.3}, \
         \"enabled_ms\": {obs_enabled_ms:.3} }},\n"
    ));
    s.push_str(&format!("  \"obs\": {}\n", obs_json.unwrap_or("null")));
    s.push_str("}\n");
    s
}
