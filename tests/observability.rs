//! Deterministic instrumentation tests: the observability layer must
//! report *exact* stage counts for a fixed-seed pipeline run — at any
//! pool width — and must not perturb a single output bit.
//!
//! Count assertions are guarded by `ObsHandle::is_enabled()`: under the
//! facade's `obs-noop` feature, cargo feature unification disables
//! recording workspace-wide and every registry stays at zero.

use crowd_rtse::prelude::*;

fn trained_world(seed: u64) -> (Graph, SynthDataset, Vec<u32>, crowd_rtse::rtf::RtfModel) {
    let graph = crowd_rtse::graph::generators::grid(4, 5);
    let dataset =
        TrafficGenerator::new(&graph, SynthConfig { days: 10, seed, ..SynthConfig::default() })
            .generate();
    let costs = uniform_costs(graph.num_roads(), CostRange::C2, seed);
    let model = moment_estimate(&graph, &dataset.history);
    (graph, dataset, costs, model)
}

/// One fixed-seed offline→OCS→GSP run records exactly the counts the
/// pipeline's structure dictates, and the counts are identical at pool
/// width 1 and 4 (explicit widths — `threads: 0` would read the same
/// `RTSE_THREADS` the widths stand in for).
#[test]
fn fixed_seed_pipeline_records_exact_stage_counts_at_widths_1_and_4() {
    let (graph, dataset, costs, _) = trained_world(2018);
    let n_roads = graph.num_roads() as u64;
    let rounds = 3usize;
    let mut per_width: Vec<Vec<u64>> = Vec::new();

    for threads in [1usize, 4] {
        let obs = ObsHandle::fresh();
        if !obs.is_enabled() {
            return; // obs-noop build: every registry stays at zero
        }

        // Offline: full-day training, instrumented.
        let trainer = RtfTrainer { max_iters: 3, threads, ..Default::default() };
        let (model, _stats) = trainer.train_with_obs(&graph, &dataset.history, &obs);

        // Online: one engine, one session, `rounds` same-slot steps (each
        // correlation row builds once and is cached afterwards; every road
        // is queried, so every row is read).
        let engine =
            CrowdRtse::new(&graph, OfflineArtifacts::from_model(model)).with_obs(obs.clone());
        let pool = WorkerPool::spawn(&graph, 40, 0.5, (0.3, 1.0), 7);
        let mut session = MonitoringSession::new(
            &engine,
            OnlineConfig { budget: 15, ..Default::default() },
            pool,
            costs.clone(),
        );
        let queried: Vec<RoadId> = graph.road_ids().collect();
        let slot = SlotOfDay::from_hm(8, 30);
        for _ in 0..rounds {
            let truth = dataset.ground_truth_snapshot(slot);
            session.step(&queried, slot, truth).expect("well-formed round");
        }

        let reg = obs.registry().expect("enabled handle has a registry");
        assert_eq!(reg.count(Stage::RtfSlotFit), SLOTS_PER_DAY as u64, "one fit per slot of day");
        assert_eq!(reg.count(Stage::CorrDijkstraRow), n_roads, "one Dijkstra row per road");
        assert_eq!(
            reg.count(Stage::GspRound),
            session.rounds_run() as u64,
            "one gsp.round span per session round"
        );
        assert_eq!(reg.count(Stage::OcsSelect), rounds as u64, "one OCS solve per round");
        assert_eq!(reg.count(Stage::GspItersToConverge), rounds as u64);
        // pool.jobs is per work item regardless of pool width: 288 slot
        // fits. The Γ rows are built on their first read inside the OCS
        // solve, on the round's own thread, so they are not pool jobs.
        assert_eq!(reg.count(Stage::PoolJobs), SLOTS_PER_DAY as u64);
        assert_eq!(reg.gauge(Stage::PoolQueueDepth), 0, "queue depth returns to zero");

        per_width.push(vec![
            reg.count(Stage::RtfSlotFit),
            reg.count(Stage::CorrDijkstraRow),
            reg.count(Stage::GspRound),
            reg.count(Stage::OcsSelect),
            reg.count(Stage::PoolJobs),
        ]);
    }

    assert_eq!(per_width[0], per_width[1], "stage counts must not depend on pool width");
}

/// Serial-equivalence regression: estimates are bit-identical with a live
/// registry attached vs the no-op handle. Instrumentation may observe the
/// pipeline; it may not steer it.
#[test]
fn instrumented_and_noop_estimates_are_bit_identical() {
    let (graph, dataset, costs, model) = trained_world(31);
    let slot = SlotOfDay::from_hm(17, 0);
    let truth = dataset.ground_truth_snapshot(slot);
    let query = SpeedQuery::new((0u32..12).map(RoadId).collect(), slot);
    let config = OnlineConfig { budget: 20, ..Default::default() };

    let run = |obs: ObsHandle| {
        let engine =
            CrowdRtse::new(&graph, OfflineArtifacts::from_model(model.clone())).with_obs(obs);
        let pool = WorkerPool::spawn(&graph, 35, 0.5, (0.3, 1.0), 11);
        let answer = engine.answer_query(&query, &pool, &costs, truth, &config);

        // A warm-started session exercises the other propagation path.
        let pool = WorkerPool::spawn(&graph, 35, 0.5, (0.3, 1.0), 11);
        let mut session = MonitoringSession::new(&engine, config, pool, costs.clone());
        let queried: Vec<RoadId> = graph.road_ids().collect();
        let mut values = answer.all_values;
        for _ in 0..2 {
            let report = session.step(&queried, slot, truth).expect("well-formed round");
            values.extend_from_slice(&report.values);
        }
        values
    };

    let instrumented = run(ObsHandle::fresh());
    let noop = run(ObsHandle::noop());
    assert_eq!(instrumented.len(), noop.len());
    for (i, (a, b)) in instrumented.iter().zip(noop.iter()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "estimate {i} diverged under instrumentation");
    }
}

/// The serving layer's registry mirror agrees with the serve metrics'
/// own bookkeeping, and the coherent snapshot's invariant holds at drain.
#[test]
fn serve_stage_counters_match_the_serve_metrics() {
    let (graph, dataset, costs, model) = trained_world(77);
    let obs = ObsHandle::fresh();
    let engine = CrowdRtse::new(&graph, OfflineArtifacts::from_model(model)).with_obs(obs.clone());
    let workers = WorkerPool::spawn(&graph, 30, 0.5, (0.3, 1.0), 5);
    let world = crowd_rtse::serve::ServeWorld { workers: &workers, costs: &costs, truth: &dataset };
    let config = ServeConfig { obs: obs.clone(), ..ServeConfig::default() };

    let slots = [SlotOfDay::from_hm(8, 0), SlotOfDay::from_hm(8, 0), SlotOfDay::from_hm(9, 0)];
    let outcome = serve(&engine, &world, &config, |handle| {
        for (i, &slot) in slots.iter().enumerate() {
            let roads = vec![RoadId(i as u32), RoadId(i as u32 + 3)];
            handle.query(ServeRequest::new(roads, slot)).expect("no-deadline query is answered");
        }
        let snap = handle.coherent_snapshot();
        assert_eq!(
            snap.metrics.rounds,
            snap.total_generations(),
            "every round publication advances exactly one slot generation"
        );
        snap
    })
    .expect("serve deploys");

    let metrics = outcome.metrics;
    assert_eq!(metrics.answered, slots.len() as u64);
    if obs.is_enabled() {
        let reg = obs.registry().expect("enabled handle has a registry");
        assert_eq!(
            reg.count(Stage::ServeCacheHit),
            metrics.cache_hit_queries,
            "registry mirror must agree with the cache's own hit counter"
        );
        assert_eq!(reg.count(Stage::ServeRound), metrics.rounds, "one serve.round span per round");
        assert_eq!(
            reg.count(Stage::ServeQueueWait),
            metrics.answered,
            "queue wait sampled once per answered no-deadline request"
        );
    }
}

/// Forced same-slot recomputes under `DeltaPolicy::Delta`: every query
/// sets `max_staleness` to zero and names a different road, so each one
/// runs a new round whose OCS selection moves a little. Every round after
/// the slot's first seeds from the previous one, so `gsp.delta_frontier`
/// records once per seeded round, and a change that stays local skips
/// relaxations a full sweep would pay.
#[test]
fn serve_delta_rounds_record_one_frontier_per_seeded_round() {
    let graph = crowd_rtse::graph::generators::hong_kong_like(120, 2018);
    let dataset =
        TrafficGenerator::new(&graph, crowd_rtse::data::scenario::volatile(4, 2018)).generate();
    let costs = uniform_costs(graph.num_roads(), CostRange::C2, 2018);
    let obs = ObsHandle::fresh();
    let model = moment_estimate(&graph, &dataset.history);
    let engine = CrowdRtse::new(&graph, OfflineArtifacts::from_model(model)).with_obs(obs.clone());
    let workers = WorkerPool::spawn(&graph, 60, 0.5, (0.3, 1.0), 2018);
    let world = crowd_rtse::serve::ServeWorld { workers: &workers, costs: &costs, truth: &dataset };
    let slot = SlotOfDay::from_hm(8, 30);
    let config = ServeConfig {
        batch_window: std::time::Duration::ZERO,
        workers: 1,
        prewarm_slots: vec![slot],
        online: OnlineConfig {
            budget: 30,
            delta: DeltaPolicy::Delta { epsilon: 1e-6 },
            ..Default::default()
        },
        obs: obs.clone(),
        ..ServeConfig::default()
    };

    const ROUNDS: u64 = 6;
    let outcome = serve(&engine, &world, &config, |handle| {
        for q in 0..ROUNDS as u32 {
            let request = ServeRequest::new(vec![RoadId(q * 7)], slot)
                .with_max_staleness(std::time::Duration::ZERO);
            handle.query(request).expect("forced delta rounds are always answered");
        }
    })
    .expect("serve deploys");

    assert_eq!(outcome.metrics.rounds, ROUNDS, "zero staleness recomputes every query");
    if obs.is_enabled() {
        let reg = obs.registry().expect("enabled handle has a registry");
        assert_eq!(
            reg.count(Stage::GspDeltaFrontier),
            ROUNDS - 1,
            "every round after the slot's first seeds from its predecessor"
        );
        assert!(
            reg.count(Stage::GspDeltaSkipped) > 0,
            "single-road-change rounds must skip relaxations a full sweep would pay"
        );
    }
}

/// The TCP front-end's stage counters are exact for a fixed workload:
/// one `edge.accept` per connection, one `edge.frame_decode` span per
/// complete frame off the wire, and the `edge.conn_active` gauge back to
/// zero once every socket has been drained and closed.
#[test]
fn edge_stage_counters_are_exact_for_a_fixed_workload() {
    let (graph, dataset, costs, model) = trained_world(99);
    let obs = ObsHandle::fresh();
    if !obs.is_enabled() {
        return; // obs-noop build: every registry stays at zero
    }
    let engine = CrowdRtse::new(&graph, OfflineArtifacts::from_model(model)).with_obs(obs.clone());
    let workers = WorkerPool::spawn(&graph, 30, 0.5, (0.3, 1.0), 5);
    let world = crowd_rtse::serve::ServeWorld { workers: &workers, costs: &costs, truth: &dataset };
    let serve_cfg = ServeConfig { obs: obs.clone(), ..ServeConfig::default() };
    let edge_cfg = EdgeConfig { shards: 2, obs: obs.clone(), ..EdgeConfig::default() };

    const CONNS: u64 = 3;
    const FRAMES_PER_CONN: u64 = 4;
    let outcome = edge_serve(&engine, &world, &serve_cfg, &edge_cfg, |edge| {
        for c in 0..CONNS {
            let mut client = EdgeClient::connect(edge.addr()).expect("connect");
            for i in 0..FRAMES_PER_CONN {
                let reply = client
                    .query(vec![(c as u32 + i as u32) % 7], 60 + c as u16, None, None)
                    .expect("reply");
                assert!(matches!(reply, crowd_rtse::edge::ClientReply::Answer(_)), "got {reply:?}");
            }
        }
    })
    .expect("edge deploys");

    assert_eq!(outcome.edge_metrics.accepted, CONNS);
    assert_eq!(outcome.edge_metrics.queries, CONNS * FRAMES_PER_CONN);
    assert_eq!(outcome.edge_metrics.answers, CONNS * FRAMES_PER_CONN);

    let reg = obs.registry().expect("enabled handle has a registry");
    assert_eq!(reg.count(Stage::EdgeAccept), CONNS, "one edge.accept per connection");
    assert_eq!(
        reg.count(Stage::EdgeFrameDecode),
        CONNS * FRAMES_PER_CONN,
        "one edge.frame_decode span per complete frame"
    );
    assert_eq!(reg.gauge(Stage::EdgeConnActive), 0, "conn gauge returns to zero at drain");
    // Write spans depend on flush batching; at least one write happened.
    assert!(reg.count(Stage::EdgeWrite) >= 1, "at least one edge.write span");
}
