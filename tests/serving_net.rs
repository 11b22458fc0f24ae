//! Network front-end stress contract (`cerl-net`): hundreds of
//! concurrent socket clients — bursty pipeliners, slow readers,
//! mid-stream disconnects, hostile frames, deadline floods — against
//! one reactor thread, with every successful response bitwise-checked
//! against the in-process engine, and hot swaps plus shard rebalances
//! executing under live socket load with **zero serve faults**.
//!
//! These tests are part of the release-mode CI lane: they are
//! correctness tests first (bitwise payloads, typed rejections,
//! fault-class counters) and load tests second. No wall-clock
//! assertions — on a one-CPU host the reactor and the inference pool
//! time-share, so only counters and payloads are trustworthy.

use cerl::net::wire::{self, FrameReader};
use cerl::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn quick_cfg() -> CerlConfig {
    let mut cfg = CerlConfig::quick_test();
    cfg.train.epochs = 5;
    cfg.memory_size = 80;
    cfg
}

fn quick_stream(domains: usize) -> DomainStream {
    let gen = SyntheticGenerator::new(
        SyntheticConfig {
            n_units: 300,
            ..SyntheticConfig::small()
        },
        71,
    );
    DomainStream::synthetic(&gen, domains, 0, 71)
}

fn stage1_engine(stream: &DomainStream) -> CerlEngine {
    let mut engine = CerlEngineBuilder::new(quick_cfg())
        .seed(17)
        .build()
        .unwrap();
    engine
        .observe(&stream.domain(0).train, &stream.domain(0).val)
        .unwrap();
    engine
}

/// Connect with retries: hundreds of simultaneous connects can
/// transiently overflow the accept backlog on a one-CPU host.
fn connect_retry(addr: SocketAddr) -> NetClient {
    for _ in 0..100 {
        match NetClient::connect(addr) {
            Ok(client) => return client,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    panic!("could not connect to {addr}");
}

fn assert_bitwise(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: row {i} differs");
    }
}

/// Value of an un-labelled counter/gauge line in a Prometheus-style
/// exposition (`name value`).
fn metric_value(exposition: &str, name: &str) -> Option<u64> {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
}

/// Hundreds of concurrently-open connections hammer one reactor:
/// bursty pipeliners, a slow-reading thread, hostile frames (corrupt
/// magic, oversized length prefix, truncated-then-close), and
/// mid-stream disconnects — interleaved with healthy traffic whose
/// every response must be bitwise identical to the in-process engine.
#[test]
fn hundreds_of_concurrent_clients_are_served_bitwise_identically() {
    const THREADS: usize = 6;
    const CLIENTS_PER_THREAD: usize = 40;
    const ROUNDS: usize = 3;
    const PIPELINE: usize = 2;

    let stream = quick_stream(1);
    let serving = Arc::new(ServingEngine::new(stage1_engine(&stream)));
    let scheduler = Arc::new(BatchScheduler::new(
        Arc::clone(&serving),
        BatchConfig {
            max_wait: Duration::from_millis(2),
            queue_capacity: 8192,
            ..BatchConfig::default()
        },
    ));
    // Observability plane rides along under full load: 1-in-4 request
    // tracing plus a live admin listener scraped mid-stress.
    let ring = TraceRing::new(4096, 4);
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::Scheduler(Arc::clone(&scheduler)),
        NetServerConfig {
            admin_bind: Some("127.0.0.1:0".into()),
            trace: Some(Arc::clone(&ring)),
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let admin_addr = server.admin_addr().unwrap();

    // Eight distinct request shapes; client c uses shape c % 8.
    let base = &stream.domain(0).test.x;
    let slices: Vec<Matrix> = (0..8).map(|k| base.slice_rows(k * 4, k * 4 + 4)).collect();
    let refs: Vec<Vec<f64>> = slices
        .iter()
        .map(|x| serving.predict_ite(x).unwrap())
        .collect();

    let verified_ok = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let slices = &slices;
            let refs = &refs;
            let verified_ok = Arc::clone(&verified_ok);
            scope.spawn(move || {
                // Open the whole herd first so all connections are
                // simultaneously live, then run pipelined rounds.
                let mut clients: Vec<NetClient> = (0..CLIENTS_PER_THREAD)
                    .map(|_| connect_retry(addr))
                    .collect();
                for round in 0..ROUNDS {
                    for (c, client) in clients.iter_mut().enumerate() {
                        let shape = (t * CLIENTS_PER_THREAD + c) % 8;
                        let x = &slices[shape];
                        for _ in 0..PIPELINE {
                            client.send_request(&vec![0; x.rows()], x, None).unwrap();
                        }
                    }
                    for (c, client) in clients.iter_mut().enumerate() {
                        let shape = (t * CLIENTS_PER_THREAD + c) % 8;
                        for _ in 0..PIPELINE {
                            // Thread 0 reads slowly: its sockets hold
                            // server-side responses longer than the rest.
                            if t == 0 {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            match client.recv_response().unwrap() {
                                WireResponse::Ite { ite, .. } => {
                                    assert_bitwise(
                                        &ite,
                                        &refs[shape],
                                        &format!("thread {t} client {c} round {round}"),
                                    );
                                    verified_ok.fetch_add(1, Ordering::Relaxed);
                                }
                                WireResponse::Error { status, detail, .. } => {
                                    panic!("healthy client rejected: {status:?}: {detail}")
                                }
                            }
                        }
                    }
                }

                // Hostile peer 1: plausible length prefix, garbage body.
                let mut corrupt = connect_retry(addr);
                let mut frame = 24u32.to_le_bytes().to_vec();
                frame.extend(std::iter::repeat_n(0xAB, 24));
                corrupt.send_raw(&frame).unwrap();
                match corrupt.recv_response().unwrap() {
                    WireResponse::Error { status, .. } => {
                        assert_eq!(status, WireStatus::MalformedRequest)
                    }
                    other => panic!("corrupt frame accepted: {other:?}"),
                }
                assert!(
                    corrupt.recv_response().is_err(),
                    "server should close a corrupt connection"
                );

                // Hostile peer 2: length prefix past the frame cap.
                let mut oversized = connect_retry(addr);
                oversized
                    .send_raw(&((64 << 20) as u32).to_le_bytes())
                    .unwrap();
                match oversized.recv_response().unwrap() {
                    WireResponse::Error { status, .. } => {
                        assert_eq!(status, WireStatus::MalformedRequest)
                    }
                    other => panic!("oversized prefix accepted: {other:?}"),
                }

                // Hostile peer 3: truncated frame, then vanish. No
                // response is owed; the server just reclaims the slot.
                let mut truncated = connect_retry(addr);
                truncated.send_raw(&64u32.to_le_bytes()).unwrap();
                truncated.send_raw(&[0u8; 10]).unwrap();
                drop(truncated);

                // Mid-stream disconnect: pipeline work, never read it.
                let mut ghost = connect_retry(addr);
                let x = &slices[t % 8];
                ghost.send_request(&vec![0; x.rows()], x, None).unwrap();
                ghost.send_request(&vec![0; x.rows()], x, None).unwrap();
                drop(ghost);
            });
        }

        // Observer: while the herd is live, probe the UDP health
        // socket and scrape the admin plane — watching must never
        // perturb serving.
        scope.spawn(move || {
            let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
            udp.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut buf = [0u8; 64];
            let mut admin = connect_retry(admin_addr);
            for _ in 0..3 {
                udp.send_to(b"ping", addr).unwrap();
                let (n, _) = udp.recv_from(&mut buf).unwrap();
                let reply = std::str::from_utf8(&buf[..n]).unwrap();
                assert!(reply.starts_with("ok:1:"), "udp probe: {reply}");

                assert!(admin.health().unwrap().starts_with("ok:1:"));
                let metrics = admin.scrape_metrics().unwrap();
                assert!(metrics.contains("# TYPE cerl_net_requests_total counter"));
                assert!(
                    metrics.contains("cerl_net_conn_requests_total{conn="),
                    "mid-stress scrape should list live per-connection rows"
                );
                // The accounting header is always present; span lines
                // only appear once a sampled span retires, which the
                // final dump below asserts on.
                assert!(admin.trace_dump().unwrap().starts_with("trace seen="));
                std::thread::sleep(Duration::from_millis(20));
            }
        });
    });

    // Ghost responses land asynchronously even after every client
    // thread has joined; scrape the admin plane until the exposition
    // and the in-process snapshot agree on a quiescent count.
    let mut admin = connect_retry(admin_addr);
    let (metrics, snap) = {
        let mut last = None;
        for _ in 0..200 {
            let metrics = admin.scrape_metrics().unwrap();
            let snap = server.stats();
            let ok = metric_value(&metrics, "cerl_net_responses_ok_total").unwrap();
            let requests = metric_value(&metrics, "cerl_net_requests_total").unwrap();
            if ok == snap.responses_ok && requests == snap.requests {
                last = Some((metrics, snap));
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        last.expect("admin exposition never agreed with the stats snapshot")
    };
    let expected_ok = THREADS * CLIENTS_PER_THREAD * ROUNDS * PIPELINE;
    // The scraped totals cover every bitwise-verified response (ghost
    // responses may add a few on top — they were served correctly to
    // sockets nobody read).
    assert!(
        metric_value(&metrics, "cerl_net_responses_ok_total").unwrap() >= expected_ok as u64,
        "scraped ok-responses below the bitwise-verified count"
    );
    assert!(metrics.contains("cerl_net_conn_requests_total{conn="));
    assert!(metrics.contains("# TYPE cerl_serve_queue_wait_seconds histogram"));
    assert!(snap.admin_requests >= 7, "both admin clients were counted");
    // Each thread holds all of its clients open at once.
    assert!(snap.peak_connections >= CLIENTS_PER_THREAD as u64);

    // 1-in-4 sampled spans: no drops at this capacity, every stamp
    // sequence monotone.
    let trace = ring.stats();
    assert!(trace.sampled >= (expected_ok / 4) as u64);
    assert_eq!(trace.dropped, 0);
    let spans = ring.dump(4096);
    assert!(!spans.is_empty());
    assert!(spans.iter().all(|s| s.is_monotone()), "non-monotone span");
    assert_eq!(verified_ok.load(Ordering::Relaxed), expected_ok);
    assert!(
        snap.responses_ok >= expected_ok as u64,
        "ok responses {} < verified {}",
        snap.responses_ok,
        expected_ok
    );
    // Two hostile peers per thread earn a typed MalformedRequest; the
    // truncated peer never completes a frame, so it earns nothing.
    assert_eq!(snap.malformed, (THREADS * 2) as u64);
    assert_eq!(snap.rejected_client, snap.malformed);
    assert_eq!(
        snap.rejected_serve, 0,
        "hostile or disconnecting clients must never register as serve faults"
    );
    // Every peer that read a response was necessarily accepted: the
    // clients plus the corrupt-magic and oversized peers, and the two
    // admin connections (admin accepts count too). The ghost and
    // truncated peers drop their sockets without waiting, so their
    // accept events may still be queued when this snapshot is taken.
    let guaranteed = (THREADS * (CLIENTS_PER_THREAD + 2) + 2) as u64;
    let ceiling = (THREADS * (CLIENTS_PER_THREAD + 4) + 2) as u64;
    assert!(
        snap.accepted >= guaranteed && snap.accepted <= ceiling,
        "accepted {} outside [{guaranteed}, {ceiling}]",
        snap.accepted
    );
    server.shutdown().unwrap();
}

/// A hot swap lands while socket traffic is in full flight: every
/// response is bitwise attributable to exactly one engine version, the
/// version a connection observes never moves backwards, and requests
/// sent after the swap returns are answered by the successor.
#[test]
fn hot_swap_under_socket_load_keeps_every_answer_attributable() {
    let stream = quick_stream(2);
    let engine = stage1_engine(&stream);
    let x = stream.domain(0).test.x.slice_rows(0, 8);

    let expected_v1 = engine.predict_ite(&x).unwrap();
    let successor = {
        let mut replica = engine.clone();
        replica
            .observe(&stream.domain(1).train, &stream.domain(1).val)
            .unwrap();
        replica
    };
    let expected_v2 = successor.predict_ite(&x).unwrap();
    assert_ne!(expected_v1, expected_v2, "stage-2 model should differ");

    let serving = Arc::new(ServingEngine::new(engine));
    let scheduler = Arc::new(BatchScheduler::new(
        Arc::clone(&serving),
        BatchConfig {
            max_wait: Duration::from_millis(2),
            queue_capacity: 8192,
            ..BatchConfig::default()
        },
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::Scheduler(Arc::clone(&scheduler)),
        NetServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    let swapped = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for t in 0..4 {
            let x = &x;
            let expected_v1 = &expected_v1;
            let expected_v2 = &expected_v2;
            let swapped = Arc::clone(&swapped);
            scope.spawn(move || {
                let mut client = connect_retry(addr);
                let mut seen_v2 = false;
                let mut post_swap = 0;
                loop {
                    let sent_after_swap = swapped.load(Ordering::SeqCst);
                    let ite = client.predict(&vec![0; x.rows()], x, None).unwrap();
                    let is_v1 = ite
                        .iter()
                        .zip(expected_v1)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    let is_v2 = ite
                        .iter()
                        .zip(expected_v2)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        is_v1 || is_v2,
                        "thread {t}: response matches neither engine version"
                    );
                    if is_v2 {
                        seen_v2 = true;
                    } else {
                        assert!(!seen_v2, "thread {t}: version went backwards");
                        assert!(
                            !sent_after_swap,
                            "thread {t}: request sent after swap served by old engine"
                        );
                    }
                    if sent_after_swap {
                        post_swap += 1;
                        if post_swap >= 3 {
                            break;
                        }
                    }
                }
            });
        }

        std::thread::sleep(Duration::from_millis(40));
        serving.swap_engine(successor);
        swapped.store(true, Ordering::SeqCst);
    });

    let snap = server.stats();
    assert_eq!(snap.rejected_serve, 0);
    assert_eq!(snap.rejected_client, 0);
    assert_eq!(snap.responses_ok, snap.requests);
    assert_eq!(serving.stats().swaps, 1);
    server.shutdown().unwrap();
}

/// A deadline flood behind a slow request is shed with typed
/// `Deadline` responses before reaching the inference pool; whatever
/// does get admitted is still answered bitwise-correctly, and a
/// well-behaved client on another connection is never starved.
#[test]
fn deadline_floods_are_shed_not_served_late() {
    const FLOOD: usize = 30;

    let stream = quick_stream(1);
    let serving = Arc::new(ServingEngine::new(stage1_engine(&stream)));
    let scheduler = Arc::new(BatchScheduler::new(
        Arc::clone(&serving),
        BatchConfig {
            max_wait: Duration::from_millis(2),
            queue_capacity: 8192,
            ..BatchConfig::default()
        },
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::Scheduler(Arc::clone(&scheduler)),
        NetServerConfig {
            // A tiny admission window makes the flood queue behind the
            // slow request instead of pouring into the backend.
            max_inflight_per_conn: 2,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let base = &stream.domain(0).test.x;
    let idx: Vec<usize> = (0..8192).map(|i| i % base.rows()).collect();
    let big = base.select_rows(&idx);
    let big_ref = serving.predict_ite(&big).unwrap();
    let small = base.slice_rows(0, 4);
    let small_ref = serving.predict_ite(&small).unwrap();

    /// Releases the polite client when the flood half finishes or
    /// panics, so a failed assertion fails the test instead of hanging
    /// it.
    struct StopOnDrop(Arc<AtomicBool>);
    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    std::thread::scope(|scope| {
        // A polite client keeps round-tripping on its own connection
        // throughout the flood; it must never see an error.
        let done = Arc::new(AtomicBool::new(false));
        let polite_done = Arc::clone(&done);
        let _stop_polite = StopOnDrop(done);
        let small_ref = &small_ref;
        let small_c = &small;
        scope.spawn(move || {
            let mut client = connect_retry(addr);
            let mut served = 0u32;
            while !polite_done.load(Ordering::SeqCst) || served < 5 {
                let ite = client
                    .predict(&vec![0; small_c.rows()], small_c, None)
                    .unwrap();
                assert_bitwise(&ite, small_ref, "polite client during flood");
                served += 1;
            }
        });

        // The slow request and the flood go out in one write, so the
        // flood is decoded while the slow request's forward pass runs:
        // an idle batch collector runs a request at once, so a flood
        // that arrived after that pass ended would be admitted in time.
        let mut flood = connect_retry(addr);
        let big_id = 1;
        let flood_ids: Vec<u64> = (2..=FLOOD as u64 + 1).collect();
        let mut frames = Vec::new();
        for (request_id, x, deadline_ms) in
            std::iter::once((big_id, &big, 0)).chain(flood_ids.iter().map(|&id| (id, &small, 1)))
        {
            wire::encode_request(
                &WireRequest {
                    request_id,
                    deadline_ms,
                    cols: x.cols() as u32,
                    tags: vec![0; x.rows()],
                    covariates: x.as_slice().to_vec(),
                },
                &mut frames,
            );
        }
        flood.send_raw(&frames).unwrap();

        let mut ok = 0usize;
        let mut shed = 0usize;
        let mut seen = std::collections::HashMap::new();
        for _ in 0..=FLOOD {
            let response = flood.recv_response().unwrap();
            match response {
                WireResponse::Ite { request_id, ite } => {
                    if request_id == big_id {
                        assert_bitwise(&ite, &big_ref, "slow request");
                    } else {
                        assert!(flood_ids.contains(&request_id));
                        assert_bitwise(&ite, small_ref, "admitted flood request");
                        ok += 1;
                    }
                    assert!(seen.insert(request_id, true).is_none());
                }
                WireResponse::Error {
                    request_id,
                    status,
                    detail,
                } => {
                    assert_eq!(
                        status,
                        WireStatus::Deadline,
                        "unexpected rejection: {detail}"
                    );
                    assert!(flood_ids.contains(&request_id));
                    assert!(detail.contains("1 ms"), "{detail}");
                    shed += 1;
                    assert!(seen.insert(request_id, false).is_none());
                }
            }
        }
        assert_eq!(
            ok + shed,
            FLOOD,
            "every flooded request gets exactly one answer"
        );
        assert!(
            shed > 0,
            "a 1 ms deadline behind an 8192-row request must shed"
        );
    });

    let snap = server.stats();
    assert!(snap.deadline_shed > 0);
    assert_eq!(snap.rejected_client, snap.deadline_shed);
    assert_eq!(snap.rejected_serve, 0);
    server.shutdown().unwrap();
}

/// A reader that uploads a huge pipeline and then refuses to read trips
/// write backpressure: the reactor stops reading that socket instead of
/// buffering without bound, a fast client stays fully served meanwhile,
/// and once the slow reader finally drains, every one of its responses
/// is intact and bitwise-correct.
#[test]
fn slow_readers_trip_write_backpressure_without_blocking_fast_clients() {
    const SLOW_REQUESTS: usize = 24;
    const SLOW_ROWS: usize = 4096;

    let stream = quick_stream(1);
    let serving = Arc::new(ServingEngine::new(stage1_engine(&stream)));
    let scheduler = Arc::new(BatchScheduler::new(
        Arc::clone(&serving),
        BatchConfig {
            max_wait: Duration::from_millis(2),
            queue_capacity: 8192,
            ..BatchConfig::default()
        },
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::Scheduler(Arc::clone(&scheduler)),
        NetServerConfig {
            // Shrink the kernel send buffer and the high-water mark so
            // a non-reading peer trips the pause deterministically.
            send_buffer_bytes: Some(4096),
            write_high_water: 64 * 1024,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let base = &stream.domain(0).test.x;
    let idx: Vec<usize> = (0..SLOW_ROWS).map(|i| i % base.rows()).collect();
    let big = base.select_rows(&idx);
    let big_ref = serving.predict_ite(&big).unwrap();
    let small = base.slice_rows(0, 4);
    let small_ref = serving.predict_ite(&small).unwrap();

    // The slow reader is split in two: a writer half that uploads the
    // whole pipeline (blocking on TCP once the server pauses reads) and
    // a reader half that stays idle long enough for the backlog to
    // build, then drains everything.
    let stream_w = TcpStream::connect(addr).unwrap();
    stream_w.set_nodelay(true).unwrap();
    let mut stream_r = stream_w.try_clone().unwrap();

    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut stream_w = stream_w;
            let mut frame = Vec::new();
            for id in 1..=SLOW_REQUESTS as u64 {
                frame.clear();
                wire::encode_request(
                    &WireRequest {
                        request_id: id,
                        deadline_ms: 0,
                        cols: big.cols() as u32,
                        tags: vec![0; big.rows()],
                        covariates: big.as_slice().to_vec(),
                    },
                    &mut frame,
                );
                stream_w.write_all(&frame).unwrap();
            }
        });

        // While the slow reader's backlog builds, a fast client on its
        // own connection keeps getting served.
        let mut fast = connect_retry(addr);
        for i in 0..15 {
            let ite = fast.predict(&vec![0; small.rows()], &small, None).unwrap();
            assert_bitwise(&ite, &small_ref, &format!("fast client round {i}"));
            std::thread::sleep(Duration::from_millis(10));
        }

        // Now drain the slow connection: all responses, in order,
        // bitwise-identical to the in-process reference.
        let mut reader = FrameReader::new();
        let mut buf = [0u8; 64 * 1024];
        let mut received = 0u64;
        while received < SLOW_REQUESTS as u64 {
            if let Some(payload) = reader.next_frame().unwrap() {
                match wire::decode_response(&payload).unwrap() {
                    WireResponse::Ite { request_id, ite } => {
                        received += 1;
                        assert_eq!(request_id, received, "responses arrive in order");
                        assert_bitwise(&ite, &big_ref, "slow reader drain");
                    }
                    WireResponse::Error { status, detail, .. } => {
                        panic!("slow reader rejected: {status:?}: {detail}")
                    }
                }
                continue;
            }
            let n = stream_r.read(&mut buf).unwrap();
            assert!(n > 0, "server closed the slow connection early");
            reader.extend(&buf[..n]);
        }
    });

    let snap = server.stats();
    assert!(
        snap.backpressure_pauses >= 1,
        "a {SLOW_REQUESTS}x{SLOW_ROWS}-row unread pipeline must trip the high-water pause"
    );
    assert_eq!(snap.rejected_serve, 0);
    assert_eq!(snap.rejected_client, 0);
    assert_eq!(snap.responses_ok, SLOW_REQUESTS as u64 + 15);
    server.shutdown().unwrap();
}

/// A scheduler backend answers one connection's pipelined requests in
/// submission order, even when they all complete in one batch and the
/// reactor retires them from one poll.
#[test]
fn pipelined_responses_arrive_in_submission_order() {
    const PIPELINED: usize = 8;
    // Past the scheduler's inline bound (16 rows), so every request is
    // queued for the collector whatever the timing.
    const ROWS: usize = 20;

    let stream = quick_stream(1);
    let serving = Arc::new(ServingEngine::new(stage1_engine(&stream)));
    let scheduler = Arc::new(BatchScheduler::new(
        Arc::clone(&serving),
        BatchConfig::default(),
    ));
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::Scheduler(Arc::clone(&scheduler)),
        NetServerConfig::default(),
    )
    .unwrap();

    // Park the collector in one large pass, so the pipeline queues
    // behind it in full and runs as the next batch.
    let base = &stream.domain(0).test.x;
    let idx: Vec<usize> = (0..60_000).map(|i| i % base.rows()).collect();
    let parked = scheduler.submit(base.select_rows(&idx)).unwrap();
    while scheduler.stats().batches == 0 {
        std::thread::yield_now();
    }

    let slices: Vec<Matrix> = (0..PIPELINED)
        .map(|i| base.slice_rows(i, i + ROWS))
        .collect();
    let mut frames = Vec::new();
    for (i, x) in slices.iter().enumerate() {
        wire::encode_request(
            &WireRequest {
                request_id: i as u64 + 1,
                deadline_ms: 0,
                cols: x.cols() as u32,
                tags: vec![0; x.rows()],
                covariates: x.as_slice().to_vec(),
            },
            &mut frames,
        );
    }
    let mut client = connect_retry(server.local_addr());
    client.send_raw(&frames).unwrap();
    assert!(parked.wait().is_ok());

    for (i, x) in slices.iter().enumerate() {
        match client.recv_response().unwrap() {
            WireResponse::Ite { request_id, ite } => {
                assert_eq!(request_id, i as u64 + 1, "responses arrive in order");
                assert_bitwise(&ite, &serving.predict_ite(x).unwrap(), "pipelined");
            }
            WireResponse::Error { status, detail, .. } => {
                panic!("pipelined request rejected: {status:?}: {detail}")
            }
        }
    }
    let stats = scheduler.stats();
    assert_eq!(stats.batches, 2, "the pipeline must run as one batch");
    assert_eq!(stats.max_batch_requests, PIPELINED as u64);
    server.shutdown().unwrap();
}

/// A live fleet behind the socket front-end goes through a shard hot
/// swap and then a full dual-route rebalance while mixed-domain scatter
/// traffic is in flight: every row of every response is bitwise
/// attributable to one of the two engine generations, and the move
/// completes with zero serve faults.
#[test]
fn rebalance_under_socket_load_with_zero_serve_faults() {
    let stream = quick_stream(2);
    let engine = stage1_engine(&stream);
    let successor = {
        let mut replica = engine.clone();
        replica
            .observe(&stream.domain(1).train, &stream.domain(1).val)
            .unwrap();
        replica
    };

    let x = stream.domain(0).test.x.slice_rows(0, 8);
    let tags: Vec<u64> = (0..x.rows() as u64).map(|i| i % 2).collect();
    let gen_a = engine.predict_ite(&x).unwrap();
    let gen_b = successor.predict_ite(&x).unwrap();
    assert_ne!(gen_a, gen_b);

    let map = ShardMap::from_pairs(2, &[(0, 0), (1, 1)]).unwrap();
    let router = Arc::new(
        ShardRouter::with_batching(
            vec![engine.clone(), engine.clone()],
            map,
            BatchConfig {
                max_wait: Duration::from_millis(1),
                queue_capacity: 8192,
                ..BatchConfig::default()
            },
        )
        .unwrap(),
    );
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::Router(Arc::clone(&router)),
        NetServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for t in 0..3 {
            let x = &x;
            let tags = &tags;
            let gen_a = &gen_a;
            let gen_b = &gen_b;
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut client = connect_retry(addr);
                while !done.load(Ordering::SeqCst) {
                    let ite = client.predict(tags, x, None).unwrap();
                    for (i, got) in ite.iter().enumerate() {
                        assert!(
                            got.to_bits() == gen_a[i].to_bits()
                                || got.to_bits() == gen_b[i].to_bits(),
                            "thread {t} row {i}: answer from no known engine generation"
                        );
                    }
                }
            });
        }

        // Choreograph fleet surgery under live scatter load.
        std::thread::sleep(Duration::from_millis(30));
        router.swap_shard_engine(1, successor.clone()).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        router.begin_rebalance(1, 0, successor.clone()).unwrap();
        std::thread::sleep(Duration::from_millis(30)); // dual-route window
        router.commit_rebalance().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        done.store(true, Ordering::SeqCst);
    });

    // After the commit, shard 0 runs the successor and owns both
    // domains: a fresh request is pure second-generation.
    let mut client = connect_retry(addr);
    let ite = client.predict(&tags, &x, None).unwrap();
    assert_bitwise(&ite, &gen_b, "post-rebalance scatter");

    let snap = server.stats();
    assert_eq!(snap.rejected_serve, 0, "fleet surgery must not shed load");
    assert_eq!(snap.rejected_client, 0);
    assert_eq!(snap.responses_ok, snap.requests);
    server.shutdown().unwrap();
}
