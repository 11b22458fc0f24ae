//! The sharded marketing fleet, served over a real TCP socket: a
//! [`NetServer`] reactor on loopback fronting a two-city
//! [`ShardRouter`], hammered by **1000+ concurrently-open client
//! connections** mixing single-city batched requests with cross-city
//! scatter requests — while one shard hot-swaps to a retrained engine
//! mid-traffic.
//!
//! Alongside the healthy herd run the abusive clients every real
//! front-end meets: a deadline flooder pipelining hundreds of 1 ms
//! requests behind a slow one (shed with typed `Deadline` responses
//! before touching the inference pool), and a slow reader that uploads
//! a huge pipeline and refuses to read (paused via write backpressure
//! instead of buffering without bound). Neither blocks the fast
//! clients, every successful answer is bitwise identical to the
//! in-process engines, and the run ends with **zero serve faults**.
//!
//! ```text
//! cargo run --release --example marketing_net
//! ```

use cerl::net::wire::{self, FrameReader};
use cerl::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const THREADS: usize = 8;
const CONNS_PER_THREAD: usize = 125; // 1000 concurrently-open sockets
const ROUNDS: usize = 3;
const PIPELINE: usize = 2;
const FLOOD: usize = 200;
const SLOW_REQUESTS: usize = 16;
const SLOW_ROWS: usize = 4096;

fn connect_retry(addr: SocketAddr) -> NetClient {
    for _ in 0..200 {
        match NetClient::connect(addr) {
            Ok(client) => return client,
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    panic!("could not connect to {addr}");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gen = SyntheticGenerator::new(
        SyntheticConfig {
            n_units: 400,
            ..SyntheticConfig::small()
        },
        41,
    );
    // Domains 0 and 1 are the two cities; domain 2 is city 1's second
    // observational batch, used to retrain its shard mid-run.
    let stream = DomainStream::synthetic(&gen, 3, 0, 41);

    let mut cfg = CerlConfig::quick_test();
    cfg.train.epochs = 8;
    cfg.memory_size = 80;

    let mut city0 = CerlEngineBuilder::new(cfg.clone()).seed(41).build()?;
    city0.observe(&stream.domain(0).train, &stream.domain(0).val)?;
    let mut city1 = CerlEngineBuilder::new(cfg).seed(42).build()?;
    city1.observe(&stream.domain(1).train, &stream.domain(1).val)?;
    let successor = {
        let mut replica = city1.clone();
        replica.observe(&stream.domain(2).train, &stream.domain(2).val)?;
        replica
    };

    // The fixed request every healthy client reuses, and the bitwise
    // references for each engine generation. Row i tagged city `d` must
    // come back as `gen_a[d][i]` — or `gen_b[i]` once city 1 swaps.
    let x = stream.domain(0).test.x.slice_rows(0, 8);
    let gen_a = [city0.predict_ite(&x)?, city1.predict_ite(&x)?];
    let gen_b = successor.predict_ite(&x)?;

    let map = ShardMap::from_pairs(2, &[(0, 0), (1, 1)])?;
    let router = Arc::new(ShardRouter::with_batching(
        vec![city0.clone(), city1],
        map,
        BatchConfig {
            max_wait: Duration::from_millis(1),
            queue_capacity: 8192,
            ..BatchConfig::default()
        },
    )?);
    let server = NetServer::bind(
        "127.0.0.1:0",
        NetBackend::Router(Arc::clone(&router)),
        NetServerConfig {
            // Small admission window → the deadline flood queues and
            // sheds; small send buffer + high-water mark → the slow
            // reader trips backpressure deterministically.
            max_inflight_per_conn: 8,
            send_buffer_bytes: Some(8 * 1024),
            write_high_water: 64 * 1024,
            ..NetServerConfig::default()
        },
    )?;
    let addr = server.local_addr();
    println!(
        "fleet up on {addr}: 2 shards, {} clients x {ROUNDS} rounds x {PIPELINE} pipelined",
        THREADS * CONNS_PER_THREAD
    );

    let verified = Arc::new(AtomicUsize::new(0));
    let second_gen_seen = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();

    std::thread::scope(|scope| -> Result<(), Box<dyn std::error::Error>> {
        // ---- 1000 healthy clients: batched single-city + scatter ----
        for t in 0..THREADS {
            let x = &x;
            let gen_a = &gen_a;
            let gen_b = &gen_b;
            let verified = Arc::clone(&verified);
            let second_gen_seen = Arc::clone(&second_gen_seen);
            scope.spawn(move || {
                let mut clients: Vec<NetClient> =
                    (0..CONNS_PER_THREAD).map(|_| connect_retry(addr)).collect();
                // Even clients stay in one city (pure batched path);
                // odd clients scatter rows across both cities.
                let tags_of = |c: usize| -> Vec<u64> {
                    if c.is_multiple_of(2) {
                        vec![(c / 2 % 2) as u64; x.rows()]
                    } else {
                        (0..x.rows() as u64).map(|i| i % 2).collect()
                    }
                };
                for _ in 0..ROUNDS {
                    for (c, client) in clients.iter_mut().enumerate() {
                        for _ in 0..PIPELINE {
                            client.send_request(&tags_of(c), x, None).unwrap();
                        }
                    }
                    for (c, client) in clients.iter_mut().enumerate() {
                        let tags = tags_of(c);
                        for _ in 0..PIPELINE {
                            match client.recv_response().unwrap() {
                                WireResponse::Ite { ite, .. } => {
                                    for (i, got) in ite.iter().enumerate() {
                                        let a = gen_a[tags[i] as usize][i];
                                        let b = gen_b[i];
                                        let ok = got.to_bits() == a.to_bits()
                                            || (tags[i] == 1 && got.to_bits() == b.to_bits());
                                        assert!(
                                            ok,
                                            "thread {t} client {c} row {i}: \
                                             answer from no known engine generation"
                                        );
                                        if tags[i] == 1 && got.to_bits() == b.to_bits() {
                                            second_gen_seen.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                    verified.fetch_add(1, Ordering::Relaxed);
                                }
                                WireResponse::Error { status, detail, .. } => {
                                    panic!("healthy client rejected: {status:?}: {detail}")
                                }
                            }
                        }
                    }
                }
            });
        }

        // ---- deadline flooder: hundreds of 1 ms requests behind a slow one ----
        let flood_handle = scope.spawn({
            let base = &stream.domain(0).test.x;
            let city0 = &city0;
            move || {
                let idx: Vec<usize> = (0..8192).map(|i| i % base.rows()).collect();
                let big = base.select_rows(&idx);
                let big_ref = city0.predict_ite(&big).unwrap();
                let small = base.slice_rows(0, 4);
                let small_ref = city0.predict_ite(&small).unwrap();

                let mut flood = connect_retry(addr);
                let big_id = flood
                    .send_request(&vec![0; big.rows()], &big, None)
                    .unwrap();
                for _ in 0..FLOOD {
                    flood
                        .send_request(
                            &vec![0; small.rows()],
                            &small,
                            Some(Duration::from_millis(1)),
                        )
                        .unwrap();
                }
                let (mut ok, mut shed) = (0usize, 0usize);
                for _ in 0..=FLOOD {
                    match flood.recv_response().unwrap() {
                        WireResponse::Ite { request_id, ite } => {
                            let want = if request_id == big_id {
                                &big_ref
                            } else {
                                &small_ref
                            };
                            assert_eq!(ite.len(), want.len());
                            for (g, w) in ite.iter().zip(want) {
                                assert_eq!(g.to_bits(), w.to_bits(), "late-but-admitted answer");
                            }
                            if request_id != big_id {
                                ok += 1;
                            }
                        }
                        WireResponse::Error { status, .. } => {
                            assert_eq!(status, WireStatus::Deadline);
                            shed += 1;
                        }
                    }
                }
                (ok, shed)
            }
        });

        // ---- slow reader: uploads a huge pipeline, reads nothing for a while ----
        let slow_handle = scope.spawn({
            let base = &stream.domain(0).test.x;
            let city0 = &city0;
            move || {
                let idx: Vec<usize> = (0..SLOW_ROWS).map(|i| i % base.rows()).collect();
                let big = base.select_rows(&idx);
                let big_ref = city0.predict_ite(&big).unwrap();

                let stream_w = TcpStream::connect(addr).unwrap();
                stream_w.set_nodelay(true).unwrap();
                let mut stream_r = stream_w.try_clone().unwrap();
                let writer = std::thread::spawn(move || {
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

                // Refuse to read while the herd runs, then drain and
                // verify every byte survived the pause.
                std::thread::sleep(Duration::from_millis(300));
                let mut reader = FrameReader::new();
                let mut buf = [0u8; 64 * 1024];
                let mut received = 0u64;
                while received < SLOW_REQUESTS as u64 {
                    if let Some(payload) = reader.next_frame().unwrap() {
                        match wire::decode_response(&payload).unwrap() {
                            WireResponse::Ite { ite, .. } => {
                                received += 1;
                                for (g, w) in ite.iter().zip(&big_ref) {
                                    assert_eq!(g.to_bits(), w.to_bits(), "slow-reader drain");
                                }
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
                writer.join().unwrap();
            }
        });

        // ---- mid-traffic hot swap of city 1's shard ----
        std::thread::sleep(Duration::from_millis(80));
        let version = router.shard(1)?.publish(successor.clone())?;
        println!(
            "[{:>5.0} ms] city 1 hot-swapped to retrained engine (shard version {version})",
            started.elapsed().as_secs_f64() * 1e3
        );

        let (flood_ok, flood_shed) = flood_handle.join().unwrap();
        println!(
            "[{:>5.0} ms] deadline flood: {flood_ok} admitted + answered, {flood_shed} shed \
             with typed Deadline",
            started.elapsed().as_secs_f64() * 1e3
        );
        assert!(
            flood_shed > 0,
            "a 1 ms flood behind an 8192-row request must shed"
        );
        slow_handle.join().unwrap();
        Ok(())
    })?;

    let snap = server.stats();
    let elapsed = started.elapsed();
    println!(
        "herd done in {:.2} s: {} connections accepted, {} requests, {} ok responses",
        elapsed.as_secs_f64(),
        snap.accepted,
        snap.requests,
        snap.responses_ok
    );
    println!(
        "  verified bitwise: {} responses ({} second-generation city-1 rows observed)",
        verified.load(Ordering::Relaxed),
        second_gen_seen.load(Ordering::Relaxed)
    );
    println!(
        "  deadline shed {}, backpressure pauses {}, client faults {}, serve faults {}",
        snap.deadline_shed, snap.backpressure_pauses, snap.rejected_client, snap.rejected_serve
    );

    let expected_ok = THREADS * CONNS_PER_THREAD * ROUNDS * PIPELINE;
    assert_eq!(verified.load(Ordering::Relaxed), expected_ok);
    assert!(
        snap.backpressure_pauses >= 1,
        "the unread {SLOW_REQUESTS}x{SLOW_ROWS}-row pipeline must trip the high-water pause"
    );
    assert_eq!(
        snap.rejected_serve, 0,
        "a hot swap plus abusive clients must produce zero serve faults"
    );
    server.shutdown()?;
    println!(
        "zero serve faults across {} answered requests — fleet healthy",
        snap.responses_ok
    );
    Ok(())
}
