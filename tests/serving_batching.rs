//! Batching determinism under load: coalesced results must be bitwise
//! identical to per-request `predict_ite`, including across a mid-stream
//! hot swap (no request may ever observe a torn engine).

use cerl::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn quick_cfg() -> CerlConfig {
    let mut cfg = CerlConfig::quick_test();
    cfg.train.epochs = 6;
    cfg.memory_size = 80;
    cfg
}

fn quick_stream(domains: usize) -> DomainStream {
    let gen = SyntheticGenerator::new(
        SyntheticConfig {
            n_units: 400,
            ..SyntheticConfig::small()
        },
        91,
    );
    DomainStream::synthetic(&gen, domains, 0, 91)
}

fn trained_engine(stream: &DomainStream, stages: usize) -> CerlEngine {
    let mut engine = CerlEngineBuilder::new(quick_cfg())
        .seed(17)
        .build()
        .unwrap();
    for d in 0..stages {
        engine
            .observe(&stream.domain(d).train, &stream.domain(d).val)
            .unwrap();
    }
    engine
}

#[test]
fn coalesced_results_bitwise_match_unbatched_under_load() {
    let stream = quick_stream(1);
    let reference = trained_engine(&stream, 1);
    let serving = Arc::new(ServingEngine::new(reference.clone()));
    let scheduler = Arc::new(BatchScheduler::new(
        Arc::clone(&serving),
        BatchConfig {
            // A generous coalescing window for the batches that follow
            // the parked pass below, even on a single CPU.
            max_wait: Duration::from_millis(5),
            ..BatchConfig::default()
        },
    ));

    let x = &stream.domain(0).test.x;
    let clients = 6;
    let per_client = 20;
    // Park the collector in one large pass before the clients start, so
    // their first requests queue behind it and coalesce. Without it the
    // clients need not overlap at all: a lone small request that finds
    // the scheduler empty runs on the submitting thread, in microseconds.
    let idx: Vec<usize> = (0..60_000).map(|i| i % x.rows()).collect();
    let parked = scheduler.submit(x.select_rows(&idx)).unwrap();
    while scheduler.stats().batches == 0 {
        std::thread::yield_now();
    }
    std::thread::scope(|scope| {
        for c in 0..clients {
            let scheduler = Arc::clone(&scheduler);
            let x = x.clone();
            let reference = &reference;
            scope.spawn(move || {
                for i in 0..per_client {
                    let start = (c * 7 + i * 3) % (x.rows() - 4);
                    let slice = x.slice_rows(start, start + 4);
                    let (version, batched) = scheduler.predict_ite_versioned(&slice).unwrap();
                    assert_eq!(version, 1);
                    let unbatched = reference.predict_ite(&slice).unwrap();
                    assert_eq!(batched.len(), unbatched.len());
                    for (a, b) in batched.iter().zip(&unbatched) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "client {c} request {i}: batched result diverged"
                        );
                    }
                }
            });
        }
    });
    assert!(parked.wait().is_ok());

    // Every count includes the parked request.
    let answered = (clients * per_client) as u64 + 1;
    let stats = scheduler.stats();
    assert_eq!(stats.requests, answered);
    assert_eq!(stats.rejected, 0);
    assert!(
        stats.max_batch_requests >= 2,
        "no coalescing happened: {stats:?}"
    );
    assert!(stats.batches < stats.requests, "every request ran alone");
    assert_eq!(stats.per_version_requests, vec![(1, answered)]);
    assert_eq!(stats.queue_wait.count, stats.requests);
    assert_eq!(stats.end_to_end.count, stats.requests);
}

#[test]
fn no_request_sees_a_torn_engine_across_hot_swap() {
    let stream = quick_stream(2);
    let v1 = trained_engine(&stream, 1);
    let mut v2 = v1.clone();
    v2.observe(&stream.domain(1).train, &stream.domain(1).val)
        .unwrap();

    let serving = Arc::new(ServingEngine::new(v1.clone()));
    let scheduler = Arc::new(BatchScheduler::new(
        Arc::clone(&serving),
        BatchConfig {
            max_wait: Duration::from_millis(2),
            ..BatchConfig::default()
        },
    ));

    let x = &stream.domain(0).test.x;
    let swapped = Arc::new(AtomicBool::new(false));
    let clients = 4;
    let pre_swap_target = 30u64;

    std::thread::scope(|scope| {
        for c in 0..clients {
            let scheduler = Arc::clone(&scheduler);
            let swapped = Arc::clone(&swapped);
            let x = x.clone();
            let (v1, v2) = (&v1, &v2);
            scope.spawn(move || {
                let mut post_swap_responses = 0;
                let mut i = 0usize;
                // Hammer until we have proof this client was served by
                // the successor version a few times.
                while post_swap_responses < 5 {
                    let start = (c * 11 + i * 3) % (x.rows() - 4);
                    let slice = x.slice_rows(start, start + 4);
                    let (version, batched) = scheduler.predict_ite_versioned(&slice).unwrap();
                    // The response must match exactly one published
                    // version, bit for bit — a torn engine would match
                    // neither.
                    let reference = match version {
                        1 => v1.predict_ite(&slice).unwrap(),
                        2 => v2.predict_ite(&slice).unwrap(),
                        other => panic!("impossible version {other}"),
                    };
                    for (a, b) in batched.iter().zip(&reference) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "client {c} request {i} diverged from version {version}"
                        );
                    }
                    if swapped.load(Ordering::Acquire) && version == 2 {
                        post_swap_responses += 1;
                    }
                    i += 1;
                }
            });
        }

        // Let a healthy chunk of traffic land on version 1, then publish
        // the successor mid-stream while the clients keep hammering.
        while scheduler.stats().requests < pre_swap_target {
            std::thread::yield_now();
        }
        let version = serving.swap_engine_warm(v2.clone()).unwrap();
        assert_eq!(version, 2);
        swapped.store(true, Ordering::Release);
    });

    let stats = scheduler.stats();
    assert_eq!(stats.rejected, 0);
    // Both versions actually served traffic around the swap.
    let versions: Vec<u64> = stats.per_version_requests.iter().map(|&(v, _)| v).collect();
    assert_eq!(versions, vec![1, 2], "{stats:?}");
    let v1_count = stats.per_version_requests[0].1;
    assert!(v1_count >= pre_swap_target, "{stats:?}");
    assert_eq!(
        stats.requests,
        stats
            .per_version_requests
            .iter()
            .map(|&(_, c)| c)
            .sum::<u64>()
    );
}

#[test]
fn sharded_fleet_batches_and_swaps_independently_under_load() {
    let stream = quick_stream(3);
    // Shard 0 serves domains {0}, shard 1 serves domains {1, 2}.
    let engines: Vec<CerlEngine> = (0..2)
        .map(|d| {
            let mut e = CerlEngineBuilder::new(quick_cfg())
                .seed(23 + d as u64)
                .build()
                .unwrap();
            e.observe(&stream.domain(d).train, &stream.domain(d).val)
                .unwrap();
            e
        })
        .collect();
    let references = engines.clone();
    let map = ShardMap::from_pairs(2, &[(0, 0), (1, 1), (2, 1)]).unwrap();
    let router = Arc::new(
        ShardRouter::with_batching(
            engines,
            map,
            BatchConfig {
                max_wait: Duration::from_millis(2),
                ..BatchConfig::default()
            },
        )
        .unwrap(),
    );

    // Successor for shard 1 only.
    let mut shard1_successor = references[1].clone();
    shard1_successor
        .observe(&stream.domain(2).train, &stream.domain(2).val)
        .unwrap();

    std::thread::scope(|scope| {
        for c in 0..4u64 {
            let router = Arc::clone(&router);
            let stream = &stream;
            let references = &references;
            let shard1_successor = &shard1_successor;
            scope.spawn(move || {
                for i in 0..15usize {
                    let domain = (c + i as u64) % 3;
                    let x = &stream.domain(domain as usize).test.x;
                    let start = (i * 5) % (x.rows() - 4);
                    let slice = x.slice_rows(start, start + 4);
                    let (version, routed) = router.predict_ite_versioned(domain, &slice).unwrap();
                    let shard = router.route(domain).unwrap();
                    let reference = if shard == 0 || version == 1 {
                        references[shard].predict_ite(&slice).unwrap()
                    } else {
                        shard1_successor.predict_ite(&slice).unwrap()
                    };
                    assert_eq!(routed, reference, "domain {domain} via shard {shard}");
                }
            });
        }
        // Mid-run: retrain + warm-swap shard 1; shard 0 is untouched.
        while router.stats().requests < 10 {
            std::thread::yield_now();
        }
        let version = router
            .swap_shard_engine(1, shard1_successor.clone())
            .unwrap();
        assert_eq!(version, 2);
    });

    assert_eq!(router.shard_versions(), vec![1, 2]);
    let stats = router.stats();
    assert_eq!(stats.requests, 60);
    assert_eq!(stats.rejected, 0);
    // Unknown domains stay typed errors under the batched path too.
    let x = stream.domain(0).test.x.slice_rows(0, 2);
    assert!(matches!(
        router.predict_ite(9, &x),
        Err(ServeError::UnknownDomain { domain: 9 })
    ));
}
