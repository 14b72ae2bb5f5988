//! Acceptance tests for the serving layer: batched/cached answers are
//! bit-identical to fresh engine answers, coalescing strictly shares GSP
//! rounds across concurrent clients, and overload/lateness surface as
//! typed errors — never as stale estimates or silent drops.

use crowd_rtse_core::{CrowdRtse, OfflineArtifacts, OnlineConfig, SpeedQuery};
use proptest::prelude::*;
use rtse_crowd::{uniform_costs, CostRange, WorkerPool};
use rtse_data::{SlotOfDay, SynthConfig, SynthDataset, TrafficGenerator};
use rtse_graph::generators::grid;
use rtse_graph::{Graph, RoadId};
use rtse_serve::{serve, ServeConfig, ServeError, ServeRequest, ServeWorld};
use std::time::{Duration, Instant};

struct Fixture {
    graph: Graph,
    dataset: SynthDataset,
    pool: WorkerPool,
    costs: Vec<u32>,
}

fn fixture(seed: u64) -> Fixture {
    let graph = grid(4, 5);
    let cfg = SynthConfig { days: 8, seed, ..SynthConfig::small_test() };
    let dataset = TrafficGenerator::new(&graph, cfg).generate();
    let pool = WorkerPool::spawn(&graph, 40, 0.5, (0.3, 1.0), seed.wrapping_add(7));
    let costs = uniform_costs(graph.num_roads(), CostRange::C2, seed);
    Fixture { graph, dataset, pool, costs }
}

fn engine(f: &Fixture) -> CrowdRtse<'_> {
    let model = rtse_rtf::moment_estimate(&f.graph, &f.dataset.history);
    CrowdRtse::new(&f.graph, OfflineArtifacts::from_model(model))
}

fn world<'w>(f: &'w Fixture) -> ServeWorld<'w> {
    ServeWorld { workers: &f.pool, costs: &f.costs, truth: &f.dataset }
}

/// Serving config with deterministic knobs for tests: no timing-dependent
/// batch window (batching is staged via pause/resume), one serving loop.
fn test_config() -> ServeConfig {
    ServeConfig {
        batch_window: Duration::ZERO,
        workers: 1,
        online: OnlineConfig { budget: 15, ..Default::default() },
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A served answer is bit-identical to a fresh `answer_query` for the
    /// same canonical query, slot, and seed: serving adds concurrency
    /// machinery, never numerics.
    #[test]
    fn served_answer_is_bit_identical_to_fresh_engine_answer(
        seed in 0u64..200,
        slot in 0u16..288,
        first in 0usize..15,
        len in 1usize..6,
    ) {
        let f = fixture(seed);
        let e = engine(&f);
        let roads: Vec<RoadId> = (first..first + len).map(|i| RoadId(i as u32)).collect();
        let slot = SlotOfDay(slot);
        let config = test_config();

        let served = serve(&e, &world(&f), &config, |handle| {
            handle.query(ServeRequest::new(roads.clone(), slot))
        })
        .expect("server starts")
        .value
        .expect("query answered");

        let query = SpeedQuery::new(roads, slot);
        let fresh = e.answer_query(
            &query,
            &f.pool,
            &f.costs,
            f.dataset.ground_truth_snapshot(slot),
            &config.online,
        );
        prop_assert_eq!(&served.roads, &query.roads);
        // Bit-identity, not approximate equality: the shared round and the
        // fresh answer must be the same floats.
        prop_assert_eq!(&served.estimates, &fresh.estimates);
        prop_assert_eq!(served.generation, 1);
        prop_assert!(!served.cache_hit);
    }
}

/// Staged same-slot burst: all requests coalesce into one batch whose
/// shared round equals a fresh `answer_query` over the merged query —
/// every waiter's estimates are bit-identical reads from it.
#[test]
fn paused_burst_coalesces_into_one_round_with_merged_query_semantics() {
    let f = fixture(11);
    let e = engine(&f);
    let slot = SlotOfDay(96);
    let config = test_config();
    let clients: Vec<Vec<RoadId>> =
        (0..6).map(|i| (i..i + 4).map(|r| RoadId(r as u32)).collect()).collect();

    let outcome = serve(&e, &world(&f), &config, |handle| {
        handle.pause();
        let tickets: Vec<_> = clients
            .iter()
            .map(|roads| handle.submit(ServeRequest::new(roads.clone(), slot)).expect("admitted"))
            .collect();
        assert_eq!(handle.queue_len(), clients.len());
        handle.resume();
        tickets.into_iter().map(|t| t.wait().expect("answered")).collect::<Vec<_>>()
    })
    .expect("server starts");

    let union: Vec<RoadId> = (0..9).map(RoadId).collect();
    let merged = SpeedQuery::new(union, slot);
    let fresh = e.answer_query(
        &merged,
        &f.pool,
        &f.costs,
        f.dataset.ground_truth_snapshot(slot),
        &config.online,
    );

    for (answer, roads) in outcome.value.iter().zip(&clients) {
        assert_eq!(answer.batch_size, clients.len());
        assert_eq!(&answer.roads, roads);
        let expected: Vec<f64> = roads.iter().map(|r| fresh.all_values[r.index()]).collect();
        assert_eq!(answer.estimates, expected, "batched answer must read the shared round");
    }
    let m = outcome.metrics;
    assert_eq!(m.answered, clients.len() as u64);
    assert_eq!(m.rounds, 1, "one staged burst must cost exactly one GSP round");
    assert!(m.coalescing_ratio() < 1.0);
    assert_eq!(m.shed, 0);
}

/// A repeat query within the TTL hits the slot cache and returns the
/// generating round's floats bit-identically; the second query costs no
/// GSP round.
#[test]
fn cache_hits_are_bit_identical_and_cost_no_round() {
    let f = fixture(23);
    let e = engine(&f);
    let slot = SlotOfDay(140);
    let roads: Vec<RoadId> = vec![RoadId(2), RoadId(5), RoadId(9)];
    let config = test_config();

    let outcome = serve(&e, &world(&f), &config, |handle| {
        let first = handle.query(ServeRequest::new(roads.clone(), slot)).expect("answered");
        let second = handle.query(ServeRequest::new(roads.clone(), slot)).expect("answered");
        (first, second)
    })
    .expect("server starts");

    let (first, second) = outcome.value;
    assert!(!first.cache_hit);
    assert!(second.cache_hit, "repeat within TTL must hit");
    assert_eq!(first.generation, second.generation);
    assert_eq!(first.estimates, second.estimates, "cache hit must share the round's floats");
    let m = outcome.metrics;
    assert_eq!(m.rounds, 1);
    assert_eq!(m.answered, 2);
    assert!(m.cache_hit_rate() > 0.0);
    assert!(m.coalescing_ratio() < 1.0);
}

/// `max_staleness: ZERO` opts out of the cache: a new generation is
/// computed even though a fresh entry exists.
#[test]
fn zero_staleness_forces_a_new_generation() {
    let f = fixture(29);
    let e = engine(&f);
    let slot = SlotOfDay(30);
    let roads = vec![RoadId(1), RoadId(3)];
    let config = test_config();

    let outcome = serve(&e, &world(&f), &config, |handle| {
        let warm = handle.query(ServeRequest::new(roads.clone(), slot)).expect("answered");
        let fresh = handle
            .query(ServeRequest::new(roads.clone(), slot).with_max_staleness(Duration::ZERO))
            .expect("answered");
        (warm, fresh)
    })
    .expect("server starts");

    let (warm, fresh) = outcome.value;
    assert_eq!(warm.generation, 1);
    assert_eq!(fresh.generation, 2, "zero staleness must recompute");
    assert!(!fresh.cache_hit);
    // Determinism: the recomputed round is still the same floats.
    assert_eq!(warm.estimates, fresh.estimates);
    assert_eq!(outcome.metrics.rounds, 2);
}

/// Requests past their deadline are shed with the typed error before any
/// estimate is produced for them — a late client never receives a stale
/// or late answer.
#[test]
fn expired_requests_shed_with_typed_errors_never_estimates() {
    let f = fixture(37);
    let e = engine(&f);
    let slot = SlotOfDay(200);
    let config = test_config();

    let outcome = serve(&e, &world(&f), &config, |handle| {
        handle.pause();
        let doomed = handle
            .submit(ServeRequest::new(vec![RoadId(0)], slot).with_deadline(Duration::ZERO))
            .expect("admitted");
        let alive = handle.submit(ServeRequest::new(vec![RoadId(1)], slot)).expect("admitted");
        handle.resume();
        (doomed.wait(), alive.wait())
    })
    .expect("server starts");

    let (doomed, alive) = outcome.value;
    match doomed {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        other => panic!("expired request must get the typed deadline error, got {other:?}"),
    }
    assert!(alive.is_ok(), "deadline-free request in the same batch still answered");
    let m = outcome.metrics;
    assert_eq!(m.shed, 1);
    assert_eq!(m.answered, 1);
    assert_eq!(m.submitted, 2, "every admitted request is accounted: answered or shed");
}

/// Admission control: the bounded queue rejects overflow with the typed
/// error and the backpressure signal tracks occupancy; drained requests
/// are still answered.
#[test]
fn full_queue_rejects_with_typed_error_and_backpressure_signal() {
    let f = fixture(43);
    let e = engine(&f);
    let slot = SlotOfDay(60);
    let config = ServeConfig { queue_depth: 2, ..test_config() };

    let outcome = serve(&e, &world(&f), &config, |handle| {
        handle.pause();
        let a = handle.submit(ServeRequest::new(vec![RoadId(0)], slot)).expect("admitted");
        let b = handle.submit(ServeRequest::new(vec![RoadId(1)], slot)).expect("admitted");
        assert!((handle.pressure() - 1.0).abs() < 1e-12, "queue is full");
        let overflow = handle.submit(ServeRequest::new(vec![RoadId(2)], slot));
        assert_eq!(overflow.err(), Some(ServeError::QueueFull { depth: 2 }));
        handle.resume();
        (a.wait(), b.wait())
    })
    .expect("server starts");

    let (a, b) = outcome.value;
    assert!(a.is_ok() && b.is_ok(), "admitted requests are answered on drain");
    assert_eq!(outcome.metrics.rejected, 1);
}

/// A request for a fresh slot is answered inside `submit`: it needs no
/// worker, no queue slot and no batch window. The only worker is held in
/// a cold batch's 500 ms window and a second cold request fills the
/// queue, yet the hit comes back at once; a cold request still gets
/// `QueueFull`.
#[test]
fn a_hit_needs_no_worker_queue_slot_or_window() {
    let f = fixture(67);
    let e = engine(&f);
    let (warm, a, b, d) = (SlotOfDay(40), SlotOfDay(41), SlotOfDay(42), SlotOfDay(43));
    let config =
        ServeConfig { queue_depth: 1, batch_window: Duration::from_millis(500), ..test_config() };

    let outcome = serve(&e, &world(&f), &config, |handle| {
        handle.query(ServeRequest::new(vec![RoadId(1)], warm)).expect("warm-up answered");
        let rounds = handle.metrics().rounds;
        let cold_a = handle.submit(ServeRequest::new(vec![RoadId(2)], a)).expect("admitted");
        // The only worker has picked A up and holds its window open.
        while handle.queue_len() > 0 {
            std::thread::yield_now();
        }
        let cold_b = handle.submit(ServeRequest::new(vec![RoadId(3)], b)).expect("admitted");

        let started = Instant::now();
        let hit = handle.query(ServeRequest::new(vec![RoadId(4)], warm)).expect("hit answered");
        let took = started.elapsed();
        assert!(took < Duration::from_millis(50), "a hit waited {took:?}");
        assert!(hit.cache_hit);
        assert_eq!(hit.batch_size, 1);
        assert_eq!(hit.generation, 1);
        assert_eq!(handle.metrics().rounds, rounds, "a hit costs no round");

        let overflow = handle.submit(ServeRequest::new(vec![RoadId(5)], d));
        assert_eq!(overflow.err(), Some(ServeError::QueueFull { depth: 1 }));
        (cold_a.wait(), cold_b.wait())
    })
    .expect("server starts");

    let (a, b) = outcome.value;
    assert!(a.is_ok() && b.is_ok(), "the queued misses are answered afterwards");
}

/// Requests for a stale slot still wait out the window and share one
/// round: answering fresh slots early leaves coalescing of misses intact.
#[test]
fn requests_for_a_stale_slot_still_share_one_round() {
    let f = fixture(71);
    let e = engine(&f);
    let slot = SlotOfDay(150);
    let racers = 4;
    let config = ServeConfig { batch_window: Duration::from_millis(500), ..test_config() };

    let outcome = serve(&e, &world(&f), &config, |handle| {
        handle.query(ServeRequest::new(vec![RoadId(0)], slot)).expect("warm-up answered");
        let start = std::sync::Barrier::new(racers);
        std::thread::scope(|scope| {
            let tasks: Vec<_> = (0..racers)
                .map(|i| {
                    let (handle, start) = (&handle, &start);
                    scope.spawn(move || {
                        start.wait();
                        let roads = vec![RoadId(i as u32 + 1)];
                        handle.query(
                            ServeRequest::new(roads, slot).with_max_staleness(Duration::ZERO),
                        )
                    })
                })
                .collect();
            tasks
                .into_iter()
                .map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect::<Vec<_>>()
        })
    })
    .expect("server starts");

    for answer in outcome.value {
        let answer = answer.expect("answered");
        assert_eq!(answer.generation, 2);
        assert!(!answer.cache_hit);
        assert_eq!(answer.batch_size, racers, "the stale-slot requests shared one batch");
    }
    assert_eq!(outcome.metrics.rounds, 2);
}

/// A paused server answers nothing, cache hits included: a request for a
/// fresh slot queues until `resume`, then comes back as a hit.
#[test]
fn pause_holds_cache_hits_too() {
    let f = fixture(73);
    let e = engine(&f);
    let slot = SlotOfDay(180);
    let config = test_config();

    let outcome = serve(&e, &world(&f), &config, |handle| {
        handle.query(ServeRequest::new(vec![RoadId(0)], slot)).expect("warm-up answered");
        handle.pause();
        let ticket = handle.submit(ServeRequest::new(vec![RoadId(1)], slot)).expect("admitted");
        assert_eq!(handle.queue_len(), 1, "a paused server queues a hit");
        assert!(ticket.poll().is_none(), "a paused server answers nothing");
        handle.resume();
        ticket.wait()
    })
    .expect("server starts");

    let answer = outcome.value.expect("answered after resume");
    assert!(answer.cache_hit);
    assert_eq!(answer.generation, 1);
}

/// Malformed requests are rejected at admission with typed errors: empty
/// road lists (via `SpeedQuery::try_new`), out-of-range roads, and
/// out-of-range slots.
#[test]
fn admission_rejects_malformed_requests_with_typed_errors() {
    let f = fixture(47);
    let e = engine(&f);
    let num_roads = f.graph.num_roads();
    let config = test_config();

    let outcome = serve(&e, &world(&f), &config, |handle| {
        let empty = handle.submit(ServeRequest::new(vec![], SlotOfDay(0)));
        assert_eq!(empty.err(), Some(ServeError::EmptyQuery));

        let bogus_road =
            handle.submit(ServeRequest::new(vec![RoadId(num_roads as u32)], SlotOfDay(0)));
        assert_eq!(
            bogus_road.err(),
            Some(ServeError::RoadOutOfRange { road: RoadId(num_roads as u32), num_roads })
        );

        let bogus_slot = handle.submit(ServeRequest::new(vec![RoadId(0)], SlotOfDay(288)));
        assert_eq!(bogus_slot.err(), Some(ServeError::SlotOutOfRange { slot: SlotOfDay(288) }));
    })
    .expect("server starts");
    assert_eq!(outcome.metrics.submitted, 0);
}

/// A bad deployment is rejected up front with typed errors, not panics:
/// invalid config and world dimension mismatches.
#[test]
fn bad_deployments_are_rejected_up_front() {
    let f = fixture(53);
    let e = engine(&f);

    let bad_config = ServeConfig { queue_depth: 0, ..test_config() };
    let err = serve(&e, &world(&f), &bad_config, |_| ()).expect_err("rejected");
    assert!(matches!(err, ServeError::InvalidConfig(_)), "got {err:?}");

    let short_costs = vec![1u32; f.graph.num_roads() - 1];
    let bad_world = ServeWorld { workers: &f.pool, costs: &short_costs, truth: &f.dataset };
    let err = serve(&e, &bad_world, &test_config(), |_| ()).expect_err("rejected");
    assert_eq!(
        err,
        ServeError::WorldMismatch {
            what: "costs",
            expected: f.graph.num_roads(),
            got: f.graph.num_roads() - 1,
        }
    );
}

/// The headline acceptance criterion: N ≥ 8 concurrent clients querying
/// the same slot are served with strictly fewer GSP propagations than
/// queries, and every answer is a bit-identical read from a shared round.
#[test]
fn eight_concurrent_clients_share_rounds_and_floats() {
    let f = fixture(59);
    let e = engine(&f);
    let slot = SlotOfDay(110);
    let clients = 8;
    let config = ServeConfig { workers: 2, ..test_config() };

    let outcome = serve(&e, &world(&f), &config, |handle| {
        handle.pause();
        let answers: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|i| {
                    let handle = &handle;
                    scope.spawn(move || {
                        let roads = vec![RoadId(i as u32), RoadId((i + 2) as u32)];
                        handle.query(ServeRequest::new(roads, slot))
                    })
                })
                .collect();
            // All clients are admitted (blocked waiting) before any batch
            // is assembled, so sharing is guaranteed, not timing luck.
            while handle.queue_len() < clients {
                std::thread::yield_now();
            }
            handle.resume();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        answers
    })
    .expect("server starts");

    let answers: Vec<_> =
        outcome.value.into_iter().map(|a| a.expect("every client answered")).collect();
    assert_eq!(answers.len(), clients);

    // All answers come from the same generation of the same slot round, so
    // shared roads carry the same floats across clients.
    for pair in answers.windows(2) {
        assert_eq!(pair[0].generation, pair[1].generation);
        for (i, &road) in pair[0].roads.iter().enumerate() {
            if let Some(v) = pair[1].estimate_for(road) {
                assert!(pair[0].estimates[i] == v, "shared roads must carry identical floats");
            }
        }
    }
    let m = outcome.metrics;
    assert_eq!(m.answered, clients as u64);
    assert_eq!(m.shed, 0);
    assert!(
        m.rounds < m.answered,
        "{} rounds for {} queries: concurrency must share propagations",
        m.rounds,
        m.answered
    );
}

/// Steady unstaged load: concurrent clients cycle over several slots, and
/// every query is answered with nothing shed or rejected. The coherent
/// snapshot's `rounds == Σ generations` holds while the clients are still
/// querying and again after they join.
#[test]
fn steady_multi_slot_clients_are_all_answered_with_coherent_snapshots() {
    let f = fixture(61);
    let e = engine(&f);
    let slots = [SlotOfDay(36), SlotOfDay(102), SlotOfDay(156), SlotOfDay(216)];
    let (clients, per_client) = (6usize, 6usize);
    let config = ServeConfig { workers: 2, ..test_config() };

    let outcome = serve(&e, &world(&f), &config, |handle| {
        let served_once = std::sync::Barrier::new(clients + 1);
        std::thread::scope(|scope| {
            let tasks: Vec<_> = (0..clients)
                .map(|c| {
                    let (handle, served_once, slots) = (&handle, &served_once, &slots);
                    scope.spawn(move || {
                        for q in 0..per_client {
                            let roads = vec![RoadId(((c * 3 + q) % 20) as u32)];
                            let slot = slots[(c + q) % slots.len()];
                            let answer = handle.query(ServeRequest::new(roads, slot));
                            if q == 0 {
                                served_once.wait();
                            }
                            answer.expect("no-deadline steady load is always answered");
                        }
                    })
                })
                .collect();
            // Every client has been answered once and still has queries to
            // send: snapshot until the last one finishes.
            served_once.wait();
            loop {
                let snap = handle.coherent_snapshot();
                assert_eq!(
                    snap.metrics.rounds,
                    snap.total_generations(),
                    "coherent snapshot tore under live load"
                );
                if tasks.iter().all(|t| t.is_finished()) {
                    break;
                }
                std::thread::yield_now();
            }
            for t in tasks {
                t.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            }
        });
        handle.coherent_snapshot()
    })
    .expect("server starts");

    let drained = outcome.value;
    assert_eq!(drained.metrics.rounds, drained.total_generations(), "diverged after join");
    let m = outcome.metrics;
    assert_eq!(m.answered, (clients * per_client) as u64);
    assert_eq!((m.shed, m.rejected), (0, 0), "no-deadline load sheds and rejects nothing");
    assert!(m.cache_hit_queries > 0, "repeat slots within the TTL hit the cache");
}

/// `prewarm_slots` builds the listed slots' correlation tables before the
/// run closure (and therefore before any admission): the engine's obs
/// registry already holds one `corr.dijkstra_row` span per road per listed
/// slot at run start, and the first query of a prewarmed slot triggers no
/// further Dijkstra rows.
#[test]
fn prewarm_builds_corr_tables_before_admission() {
    let f = fixture(11);
    let obs = rtse_obs::ObsHandle::fresh();
    if !obs.is_enabled() {
        return; // obs-noop build: every registry stays at zero
    }
    let model = rtse_rtf::moment_estimate(&f.graph, &f.dataset.history);
    let artifacts = OfflineArtifacts::from_model(model).with_obs(obs.clone());
    let e = CrowdRtse::new(&f.graph, artifacts);
    let slot = SlotOfDay::from_hm(8, 30);
    let config = ServeConfig { prewarm_slots: vec![slot, slot], ..test_config() };
    let rows = |o: &rtse_obs::ObsHandle| {
        o.registry().map_or(0, |r| r.count(rtse_obs::Stage::CorrDijkstraRow))
    };
    let n = f.graph.num_roads() as u64;
    let outcome = serve(&e, &world(&f), &config, |handle| {
        let at_start = rows(&obs);
        let ticket = handle
            .submit(ServeRequest {
                roads: vec![RoadId(0)],
                slot,
                deadline: None,
                max_staleness: None,
            })
            .expect("admit");
        ticket.wait().expect("answer");
        (at_start, rows(&obs))
    })
    .expect("serve");
    let (at_start, after_query) = outcome.value;
    assert_eq!(at_start, n, "duplicate prewarm slots coalesce into one build");
    assert_eq!(after_query, n, "prewarmed slot's first query must not rebuild");
}
