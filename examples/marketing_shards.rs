//! A sharded marketing fleet: three city domains, each served by its own
//! hot-swappable engine shard behind one [`ShardRouter`], with a
//! [`BatchScheduler`] per shard coalescing concurrent client requests
//! into single forward passes.
//!
//! Mid-run, the shard serving the fastest-drifting city retrains on its
//! next observational batch and is warm-swapped (probe batch first, then
//! an atomic pointer move) while the other two shards keep answering
//! without interruption. Per-shard versions and latency percentiles are
//! printed at the end — the canary-watching view `ServeStats` exists for.
//!
//! ```text
//! cargo run --release --example marketing_shards
//! ```

use cerl::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 3;
const CLIENTS_PER_SHARD: usize = 2;

fn main() -> Result<(), ServeError> {
    let gen = SyntheticGenerator::new(
        SyntheticConfig {
            n_units: 800,
            noise_sd: 0.4,
            mean_shift_scale: 1.0,
            ..SyntheticConfig::default()
        },
        29,
    );
    // Domains 0..3 are the three cities' first observational batches;
    // domain 3 is city 2's *second* batch, arriving mid-run.
    let stream = DomainStream::synthetic(&gen, SHARDS + 1, 0, 29);

    let mut cfg = CerlConfig::quick_test();
    cfg.train.epochs = 20;

    // One engine per city, each trained on its own first domain.
    let mut engines = Vec::with_capacity(SHARDS);
    for city in 0..SHARDS {
        let mut engine = CerlEngineBuilder::new(cfg.clone())
            .seed(29 + city as u64)
            .build()?;
        engine.observe(&stream.domain(city).train, &stream.domain(city).val)?;
        engines.push(engine);
    }

    // City id -> shard index (here the identity; a real fleet hashes
    // regions or clusters). The map rides inside snapshot metadata, so a
    // replica restoring from bytes learns the topology too.
    let map = ShardMap::from_pairs(SHARDS, &[(0, 0), (1, 1), (2, 2)])?;
    let router = Arc::new(ShardRouter::with_batching(
        engines,
        map,
        BatchConfig {
            max_wait: Duration::from_millis(2),
            ..BatchConfig::default()
        },
    )?);
    println!(
        "fleet up: {} shards, versions {:?}, {} batched clients per shard",
        router.shard_count(),
        router.shard_versions(),
        CLIENTS_PER_SHARD,
    );

    let stop = AtomicBool::new(false);
    let errors = AtomicUsize::new(0);
    let served = AtomicUsize::new(0);

    std::thread::scope(|scope| -> Result<(), ServeError> {
        // Concurrent batched clients: each hammers its city with small
        // 8-row requests — the shard scheduler coalesces them.
        let (stream, router) = (&stream, &router);
        let (stop, errors, served) = (&stop, &errors, &served);
        for city in 0..SHARDS as u64 {
            for _ in 0..CLIENTS_PER_SHARD {
                scope.spawn(move || {
                    let x = &stream.domain(city as usize).test.x;
                    let mut offset = 0usize;
                    let mut last_version = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let start = offset % (x.rows() - 8);
                        offset += 13;
                        let slice = x.slice_rows(start, start + 8);
                        match router.predict_ite_versioned(city, &slice) {
                            Ok((version, ite)) => {
                                assert!(version >= last_version, "shard versions are monotone");
                                assert_eq!(ite.len(), 8);
                                last_version = version;
                                served.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        }

        // Meanwhile: city 2's next observational batch arrives. Train a
        // successor off to the side and warm-swap only that shard.
        let mut successor = router.shard(2)?.current().engine().clone();
        successor.observe(&stream.domain(3).train, &stream.domain(3).val)?;
        let version = router.shard(2)?.publish(successor)?;
        println!("shard 2 warm-swapped to version {version} while shards 0 and 1 kept serving");

        // Let the clients observe the new version for a moment.
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
        Ok(())
    })?;

    println!(
        "{} requests served, {} errors (want 0)",
        served.load(Ordering::Relaxed),
        errors.load(Ordering::Relaxed),
    );
    println!("final shard versions: {:?}", router.shard_versions());
    for shard in 0..router.shard_count() {
        let stats = router
            .shard_stats(shard)?
            .expect("fleet was built with batching");
        println!(
            "shard {shard}: version {} | {} requests in {} batches (mean {:.1} req/batch) | \
e2e p50 {:.2} ms p95 {:.2} ms | served-by-version {:?}",
            router.shard(shard)?.version(),
            stats.requests,
            stats.batches,
            stats.mean_requests_per_batch(),
            stats.end_to_end.p50.as_secs_f64() * 1e3,
            stats.end_to_end.p95.as_secs_f64() * 1e3,
            stats.per_version_requests,
        );
    }
    let fleet = router.stats();
    println!(
        "fleet: {} requests | e2e p95 {:.2} ms p99 {:.2} ms",
        fleet.requests,
        fleet.end_to_end.p95.as_secs_f64() * 1e3,
        fleet.end_to_end.p99.as_secs_f64() * 1e3,
    );
    assert_eq!(errors.load(Ordering::Relaxed), 0);
    Ok(())
}
