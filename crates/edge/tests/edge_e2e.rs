//! End-to-end tests over a real loopback socket: wire answers match
//! in-process answers, hostile budgets are typed rejects that never
//! reach the queue, protocol violations tear the connection down with a
//! typed `GoAway`, and drain answers every accepted request — no socket
//! is closed with a query still unanswered.

use crowd_rtse_core::{CrowdRtse, OfflineArtifacts, OnlineConfig};
use rtse_crowd::{uniform_costs, CostRange, WorkerPool};
use rtse_data::{SlotOfDay, SynthConfig, SynthDataset, TrafficGenerator};
use rtse_edge::frame::{
    decode_frame, encode_frame, DecodeLimits, Frame, GoAwayCode, QueryFrame, RejectCode,
};
use rtse_edge::{edge_serve, ClientReply, EdgeClient, EdgeConfig, PrewarmConfig};
use rtse_graph::generators::grid;
use rtse_graph::{Graph, RoadId};
use rtse_serve::{ServeConfig, ServeError, ServeRequest, ServeWorld};
use std::io::{Read, Write};
use std::net::TcpStream;
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

fn world(f: &Fixture) -> ServeWorld<'_> {
    ServeWorld { workers: &f.pool, costs: &f.costs, truth: &f.dataset }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        batch_window: Duration::ZERO,
        workers: 1,
        online: OnlineConfig { budget: 15, ..Default::default() },
        ..Default::default()
    }
}

fn edge_config() -> EdgeConfig {
    EdgeConfig { shards: 1, ..Default::default() }
}

#[test]
fn wire_answers_match_in_process_answers() {
    let f = fixture(11);
    let e = engine(&f);
    let outcome = edge_serve(&e, &world(&f), &serve_config(), &edge_config(), |edge| {
        let slot = SlotOfDay(100);
        let roads = vec![0u32, 3, 7];
        let mut client = EdgeClient::connect(edge.addr()).expect("connect");
        let reply = client.query(roads.clone(), slot.0, None, None).expect("reply");
        let ClientReply::Answer(wire) = reply else { panic!("expected answer, got {reply:?}") };

        // The same query in-process shares the cached round, so the wire
        // answer must be bit-identical to it.
        let local = edge
            .serve()
            .query(ServeRequest::new(roads.iter().copied().map(RoadId).collect(), slot))
            .expect("in-process answer");
        assert_eq!(wire.slot, slot.0);
        assert_eq!(wire.generation, local.generation);
        assert!(local.cache_hit, "second ask of the slot must hit the cache");
        let wire_bits: Vec<u64> = wire.speeds.iter().map(|s| s.to_bits()).collect();
        let local_bits: Vec<u64> = local.estimates.iter().map(|s| s.to_bits()).collect();
        assert_eq!(wire_bits, local_bits, "wire answers must be bit-identical");
        assert_eq!(wire.roads, roads);
    })
    .expect("edge_serve");
    assert_eq!(outcome.edge_metrics.accepted, 1);
    assert_eq!(outcome.edge_metrics.queries, 1);
    assert_eq!(outcome.edge_metrics.answers, 1);
    assert_eq!(outcome.edge_metrics.rejects, 0);
}

/// A wire query for a fresh slot is answered without waiting for the
/// batch window: only a batch that computes waits it out.
#[test]
fn a_wire_hit_does_not_wait_for_the_window() {
    let f = fixture(23);
    let e = engine(&f);
    let serve_cfg = ServeConfig { batch_window: Duration::from_millis(500), ..serve_config() };
    edge_serve(&e, &world(&f), &serve_cfg, &edge_config(), |edge| {
        let mut client = EdgeClient::connect(edge.addr()).expect("connect");
        let first = client.query(vec![0, 4], 120, None, None).expect("reply");
        assert!(matches!(first, ClientReply::Answer(_)), "expected answer, got {first:?}");

        let started = Instant::now();
        let reply = client.query(vec![2, 9], 120, None, None).expect("reply");
        let took = started.elapsed();
        let ClientReply::Answer(a) = reply else { panic!("expected answer, got {reply:?}") };
        assert!(a.cache_hit, "the second query of the slot must hit the cache");
        assert!(took < Duration::from_millis(50), "a wire hit waited {took:?}");
    })
    .expect("edge_serve");
}

#[test]
fn hostile_budgets_are_typed_rejects_and_never_reach_the_queue() {
    let f = fixture(12);
    let e = engine(&f);
    let serve_cfg = serve_config();
    let outcome = edge_serve(&e, &world(&f), &serve_cfg, &edge_config(), |edge| {
        let mut client = EdgeClient::connect(edge.addr()).expect("connect");

        // A deadline budget of ~28 hours: typed reject, not a request
        // parked in the queue for a day.
        let reply = client.query(vec![0], 10, Some(100_000_000), None).expect("reply");
        let ClientReply::Reject(r) = reply else { panic!("expected reject, got {reply:?}") };
        assert_eq!(r.code, RejectCode::DeadlineOutOfBounds);

        // A staleness budget past the TTL would let a stale cached round
        // answer (batch freshness is the min over members): typed reject.
        let reply = client.query(vec![0], 10, None, Some(100_000_000)).expect("reply");
        let ClientReply::Reject(r) = reply else { panic!("expected reject, got {reply:?}") };
        assert_eq!(r.code, RejectCode::StalenessOutOfBounds);

        // Nothing was admitted: the serving layer saw zero submissions.
        assert_eq!(edge.serve().metrics().submitted, 0);

        // The serving layer enforces the same bounds for in-process
        // callers (defense in depth behind the edge's wire check).
        let in_process = edge.serve().submit(
            ServeRequest::new(vec![RoadId(0)], SlotOfDay(10))
                .with_max_staleness(serve_cfg.staleness_bound() + Duration::from_secs(1)),
        );
        assert!(
            matches!(in_process, Err(ServeError::StalenessOutOfBounds { .. })),
            "got {in_process:?}"
        );
        let in_process = edge.serve().submit(
            ServeRequest::new(vec![RoadId(0)], SlotOfDay(10))
                .with_deadline(serve_cfg.deadline_bound() + Duration::from_secs(1)),
        );
        assert!(
            matches!(in_process, Err(ServeError::DeadlineOutOfBounds { .. })),
            "got {in_process:?}"
        );
    })
    .expect("edge_serve");
    assert_eq!(outcome.edge_metrics.bounds_rejects, 2);
    assert_eq!(outcome.edge_metrics.rejects, 2);
    assert_eq!(outcome.edge_metrics.answers, 0);
    assert_eq!(outcome.serve_metrics.submitted, 0);
}

#[test]
fn out_of_range_roads_and_slots_reject_over_the_wire() {
    let f = fixture(13);
    let e = engine(&f);
    edge_serve(&e, &world(&f), &serve_config(), &edge_config(), |edge| {
        let mut client = EdgeClient::connect(edge.addr()).expect("connect");
        let reply = client.query(vec![1_000_000], 10, None, None).expect("reply");
        let ClientReply::Reject(r) = reply else { panic!("expected reject, got {reply:?}") };
        assert_eq!(r.code, RejectCode::RoadOutOfRange);

        let reply = client.query(vec![0], 2000, None, None).expect("reply");
        let ClientReply::Reject(r) = reply else { panic!("expected reject, got {reply:?}") };
        assert_eq!(r.code, RejectCode::SlotOutOfRange);
    })
    .expect("edge_serve");
}

/// Reads frames from a raw socket until EOF; returns them all.
fn read_all_frames(stream: &mut TcpStream) -> Vec<Frame> {
    let limits = DecodeLimits::for_max_roads(4096);
    let mut buf = Vec::new();
    let mut frames = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        while let Some((frame, n)) = decode_frame(&buf, limits).expect("server bytes are protocol")
        {
            buf.drain(..n);
            frames.push(frame);
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read: {e}"),
        }
    }
    assert!(buf.is_empty(), "trailing partial frame after EOF");
    frames
}

#[test]
fn drain_answers_every_accepted_request_then_says_goaway() {
    let f = fixture(14);
    let e = engine(&f);
    const IN_FLIGHT: u64 = 8;
    let frames = edge_serve(&e, &world(&f), &serve_config(), &edge_config(), |edge| {
        let mut stream = TcpStream::connect(edge.addr()).expect("connect");

        // Hold the serving workers so all eight queries are still queued
        // (accepted, unanswered) when shutdown begins.
        edge.serve().pause();
        let mut wire = Vec::new();
        for id in 1..=IN_FLIGHT {
            encode_frame(
                &Frame::Query(QueryFrame {
                    request_id: id,
                    deadline_ms: None,
                    max_staleness_ms: None,
                    slot: 42,
                    roads: vec![0, 1],
                }),
                &mut wire,
            );
        }
        stream.write_all(&wire).expect("send queries");

        // Wait until the edge has admitted all of them into the queue.
        let deadline = Instant::now() + Duration::from_secs(10);
        while edge.serve().queue_len() < IN_FLIGHT as usize {
            assert!(Instant::now() < deadline, "queries never reached the queue");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Release the workers and return immediately: shutdown races the
        // eight in-flight requests. Drain must resolve every one onto
        // the wire before the socket closes.
        edge.serve().resume();
        stream
    })
    .map(|outcome| {
        let mut stream = outcome.value;
        let frames = read_all_frames(&mut stream);
        assert_eq!(outcome.edge_metrics.queries, IN_FLIGHT);
        assert_eq!(
            outcome.edge_metrics.answers + outcome.edge_metrics.rejects,
            IN_FLIGHT,
            "every accepted request must resolve on the wire"
        );
        frames
    })
    .expect("edge_serve");

    // All eight replies (answers, by construction nothing could deadline)
    // followed by exactly one typed GoAway(ShuttingDown).
    let mut seen_ids: Vec<u64> = frames
        .iter()
        .filter_map(|f| match f {
            Frame::Answer(a) => Some(a.request_id),
            Frame::Reject(r) => Some(r.request_id),
            _ => None,
        })
        .collect();
    seen_ids.sort_unstable();
    assert_eq!(seen_ids, (1..=IN_FLIGHT).collect::<Vec<_>>());
    let goaways: Vec<_> = frames
        .iter()
        .filter_map(|f| match f {
            Frame::GoAway(g) => Some(g.code),
            _ => None,
        })
        .collect();
    assert_eq!(goaways, vec![GoAwayCode::ShuttingDown]);
    match frames.last() {
        Some(Frame::GoAway(_)) => {}
        other => panic!("GoAway must be the final frame, got {other:?}"),
    }
}

#[test]
fn garbage_bytes_get_a_typed_goaway_and_a_close() {
    let f = fixture(15);
    let e = engine(&f);
    edge_serve(&e, &world(&f), &serve_config(), &edge_config(), |edge| {
        let mut stream = TcpStream::connect(edge.addr()).expect("connect");
        stream.write_all(b"GET / HTTP/1.1\r\nHost: not-rtse\r\n\r\n").expect("send");
        let frames = read_all_frames(&mut stream);
        assert_eq!(frames.len(), 1, "one GoAway then close, got {frames:?}");
        match &frames[0] {
            Frame::GoAway(g) => assert_eq!(g.code, GoAwayCode::ProtocolError),
            other => panic!("expected GoAway, got {other:?}"),
        }
    })
    .expect("edge_serve");
}

#[test]
fn oversized_length_prefix_is_rejected_from_the_header_alone() {
    let f = fixture(16);
    let e = engine(&f);
    edge_serve(&e, &world(&f), &serve_config(), &edge_config(), |edge| {
        let mut stream = TcpStream::connect(edge.addr()).expect("connect");
        // A valid-looking header claiming a 1 GiB payload — and not one
        // byte of payload behind it. The server must reject now, from
        // the header, rather than buffer toward 1 GiB.
        let mut header = Vec::new();
        encode_frame(
            &Frame::Query(QueryFrame {
                request_id: 1,
                deadline_ms: None,
                max_staleness_ms: None,
                slot: 0,
                roads: vec![0],
            }),
            &mut header,
        );
        header.truncate(rtse_edge::HEADER_LEN);
        header[16..20].copy_from_slice(&(1u32 << 30).to_be_bytes());
        stream.write_all(&header).expect("send");
        let frames = read_all_frames(&mut stream);
        match frames.first() {
            Some(Frame::GoAway(g)) => assert_eq!(g.code, GoAwayCode::ProtocolError),
            other => panic!("expected GoAway, got {other:?}"),
        }
    })
    .expect("edge_serve");
}

#[test]
fn idle_connections_are_closed_with_a_typed_goaway() {
    let f = fixture(17);
    let e = engine(&f);
    let edge_cfg =
        EdgeConfig { shards: 1, idle_timeout: Duration::from_millis(50), ..Default::default() };
    let outcome = edge_serve(&e, &world(&f), &serve_config(), &edge_cfg, |edge| {
        let mut stream = TcpStream::connect(edge.addr()).expect("connect");
        // Say nothing; the server must hang up with IdleTimeout.
        let frames = read_all_frames(&mut stream);
        assert_eq!(frames.len(), 1, "got {frames:?}");
        match &frames[0] {
            Frame::GoAway(g) => assert_eq!(g.code, GoAwayCode::IdleTimeout),
            other => panic!("expected GoAway, got {other:?}"),
        }
    })
    .expect("edge_serve");
    assert_eq!(outcome.edge_metrics.idle_closed, 1);
}

#[test]
fn sharded_accept_serves_concurrent_clients() {
    let f = fixture(18);
    let e = engine(&f);
    let edge_cfg = EdgeConfig { shards: 3, ..Default::default() };
    let outcome = edge_serve(&e, &world(&f), &serve_config(), &edge_cfg, |edge| {
        let mut clients: Vec<EdgeClient> =
            (0..9).map(|_| EdgeClient::connect(edge.addr()).expect("connect")).collect();
        for (i, client) in clients.iter_mut().enumerate() {
            let reply =
                client.query(vec![i as u32 % 4], 10 + (i as u16 % 3), None, None).expect("reply");
            assert!(matches!(reply, ClientReply::Answer(_)), "got {reply:?}");
        }
    })
    .expect("edge_serve");
    assert_eq!(outcome.edge_metrics.accepted, 9);
    assert_eq!(outcome.edge_metrics.answers, 9);
}

/// Steady no-deadline load over many open connections: 64 clients on 4
/// shards, four queries each over the prewarmed slots, with a queue deep
/// enough for all of them. Everything is answered and nothing is
/// rejected; every connection is accepted cleanly and, once drained, the
/// `edge.conn_active` gauge is back at zero.
#[test]
fn sixty_four_connections_on_four_shards_are_all_answered() {
    const CONNS: usize = 64;
    const PER_CONN: usize = 4;
    let f = fixture(20);
    let obs = rtse_obs::ObsHandle::fresh();
    let e = engine(&f).with_obs(obs.clone());
    let slots = [SlotOfDay(36), SlotOfDay(102), SlotOfDay(156), SlotOfDay(216)];
    let serve_cfg = ServeConfig {
        queue_depth: CONNS * PER_CONN,
        prewarm_slots: slots.to_vec(),
        obs: obs.clone(),
        ..serve_config()
    };
    let edge_cfg = EdgeConfig { shards: 4, obs: obs.clone(), ..Default::default() };
    let outcome = edge_serve(&e, &world(&f), &serve_cfg, &edge_cfg, |edge| {
        let clients: Vec<EdgeClient> =
            (0..CONNS).map(|_| EdgeClient::connect(edge.addr()).expect("connect")).collect();
        std::thread::scope(|scope| {
            let tasks: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(c, mut client)| {
                    let slot = slots[c % slots.len()].0;
                    scope.spawn(move || {
                        (0..PER_CONN)
                            .map(|q| {
                                let roads = vec![((c * 3 + q) % 20) as u32];
                                client.query(roads, slot, None, None).expect("reply")
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for task in tasks {
                for reply in task.join().unwrap_or_else(|e| std::panic::resume_unwind(e)) {
                    assert!(matches!(reply, ClientReply::Answer(_)), "got {reply:?}");
                }
            }
        });
    })
    .expect("edge_serve");

    let m = outcome.edge_metrics;
    assert_eq!(m.accepted, CONNS as u64);
    assert_eq!(m.answers, (CONNS * PER_CONN) as u64);
    assert_eq!((m.rejects, m.protocol_errors), (0, 0));
    assert_eq!(outcome.serve_metrics.rejected, 0);
    if let Some(reg) = obs.registry() {
        assert_eq!(reg.gauge(rtse_obs::Stage::EdgeConnActive), 0, "conn gauge drains to zero");
    }
}

/// Overload over the wire: with serving paused and a queue of two, six
/// connections each send one query with a 20 ms deadline. Four overflow
/// the queue and two expire in it, and every one of the six comes back
/// as a typed reject — never an answer.
#[test]
fn overload_comes_back_as_typed_rejects_on_the_wire() {
    const CONNS: usize = 6;
    const DEPTH: usize = 2;
    const DEADLINE_MS: u32 = 20;
    let f = fixture(21);
    let e = engine(&f);
    let serve_cfg = ServeConfig { queue_depth: DEPTH, ..serve_config() };
    let outcome = edge_serve(&e, &world(&f), &serve_cfg, &edge_config(), |edge| {
        edge.serve().pause();
        let clients: Vec<EdgeClient> =
            (0..CONNS).map(|_| EdgeClient::connect(edge.addr()).expect("connect")).collect();
        std::thread::scope(|scope| {
            let tasks: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(c, mut client)| {
                    scope.spawn(move || {
                        client.query(vec![c as u32], 70, Some(DEADLINE_MS), None).expect("reply")
                    })
                })
                .collect();
            // Two admitted and four turned away; once the admitted pair's
            // deadline has passed, let the workers pick them up.
            let wait_limit = Instant::now() + Duration::from_secs(10);
            while edge.serve().queue_len() < DEPTH
                || edge.serve().metrics().rejected < (CONNS - DEPTH) as u64
            {
                assert!(Instant::now() < wait_limit, "the queue never filled");
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(u64::from(DEADLINE_MS) + 5));
            edge.serve().resume();
            let codes: Vec<RejectCode> = tasks
                .into_iter()
                .map(|t| match t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)) {
                    ClientReply::Reject(r) => r.code,
                    ClientReply::Answer(a) => panic!("overload must not answer: {a:?}"),
                })
                .collect();
            let count = |code| codes.iter().filter(|&&c| c == code).count();
            assert_eq!(count(RejectCode::QueueFull), CONNS - DEPTH);
            assert_eq!(count(RejectCode::DeadlineExceeded), DEPTH);
        });
    })
    .expect("edge_serve");
    assert_eq!(outcome.edge_metrics.answers, 0);
    assert_eq!(outcome.edge_metrics.rejects, CONNS as u64);
    let serve = outcome.serve_metrics;
    assert_eq!((serve.rejected, serve.shed), ((CONNS - DEPTH) as u64, DEPTH as u64));
}

#[test]
fn rollover_prewarm_fills_the_next_slot_before_the_boundary() {
    let f = fixture(19);
    let e = engine(&f);
    let edge_cfg = EdgeConfig {
        shards: 1,
        prewarm: Some(PrewarmConfig {
            slot_len: Duration::from_millis(400),
            lead: Duration::from_millis(200),
            base_slot: SlotOfDay(50),
        }),
        ..Default::default()
    };
    edge_serve(&e, &world(&f), &serve_config(), &edge_cfg, |edge| {
        let clock = edge.clock().expect("prewarm configured");
        // Wait into the lead window of the first boundary, then verify
        // the *next* slot's cache generation went live before any client
        // ever asked for it.
        let deadline = Instant::now() + Duration::from_secs(15);
        let warmed = loop {
            let now = Instant::now();
            let next = clock.next_slot(now);
            if edge.serve().cache_generation(next) >= 1 {
                break next;
            }
            assert!(Instant::now() < deadline, "prewarm never warmed the next slot");
            std::thread::sleep(Duration::from_millis(5));
        };
        // Past the boundary, the first wire query for the warmed slot is
        // answered from the round the prewarm left behind.
        std::thread::sleep(clock.until_next(Instant::now()));
        let mut client = EdgeClient::connect(edge.addr()).expect("connect");
        let reply = client.query(vec![0, 5], warmed.0, None, None).expect("reply");
        let ClientReply::Answer(a) = reply else { panic!("expected answer, got {reply:?}") };
        assert!(a.cache_hit, "the boundary query must hit the prewarmed round");
    })
    .expect("edge_serve");
}

#[test]
fn duplicate_request_ids_pipelined_on_one_conn_each_get_their_answer() {
    // The protocol does not forbid a client from reusing a request id
    // across pipelined frames on one connection. The edge must treat each
    // frame as its own request: neither query may be dropped or answered
    // with the other's road list.
    let f = fixture(23);
    let e = engine(&f);
    const DUP_ID: u64 = 7;
    let sent: [Vec<u32>; 3] = [vec![0, 1], vec![2, 3], vec![1, 2, 3]];
    let frames = edge_serve(&e, &world(&f), &serve_config(), &edge_config(), |edge| {
        let mut stream = TcpStream::connect(edge.addr()).expect("connect");

        // Hold the workers so all three frames are admitted before any
        // is answered — the duplicate ids genuinely coexist in flight.
        edge.serve().pause();
        let mut wire = Vec::new();
        for roads in &sent {
            encode_frame(
                &Frame::Query(QueryFrame {
                    request_id: DUP_ID,
                    deadline_ms: None,
                    max_staleness_ms: None,
                    slot: 42,
                    roads: roads.clone(),
                }),
                &mut wire,
            );
        }
        stream.write_all(&wire).expect("send queries");
        let deadline = Instant::now() + Duration::from_secs(10);
        while edge.serve().queue_len() < sent.len() {
            assert!(Instant::now() < deadline, "queries never reached the queue");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Drain-at-shutdown resolves every accepted request on the wire.
        edge.serve().resume();
        stream
    })
    .map(|outcome| {
        let mut stream = outcome.value;
        let frames = read_all_frames(&mut stream);
        assert_eq!(outcome.edge_metrics.queries, sent.len() as u64);
        assert_eq!(
            outcome.edge_metrics.answers,
            sent.len() as u64,
            "every duplicate-id request must be answered"
        );
        frames
    })
    .expect("edge_serve");

    let mut answered: Vec<Vec<u32>> = frames
        .iter()
        .filter_map(|frame| match frame {
            Frame::Answer(a) => {
                assert_eq!(a.request_id, DUP_ID, "answers must echo the reused id");
                assert_eq!(a.roads.len(), a.speeds.len());
                Some(a.roads.clone())
            }
            Frame::Reject(r) => panic!("unexpected reject: {:?}", r.code),
            _ => None,
        })
        .collect();

    // Multiset equality: each pipelined query got an answer for its own
    // road list — duplicate ids did not mis-route or coalesce replies.
    let mut expected = sent.to_vec();
    answered.sort();
    expected.sort();
    assert_eq!(answered, expected);
    assert!(
        matches!(frames.last(), Some(Frame::GoAway(g)) if g.code == GoAwayCode::ShuttingDown),
        "connection must end with a shutdown goaway"
    );
}
