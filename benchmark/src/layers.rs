//! Per-layer numbers: stage deltas of traced spans, and timed calls into
//! each layer's public functions at the workload's own shapes.

use crate::load::Pool;
use crate::stats::{median, summarize, time_median};
use crate::world::{self, Scale};
use cerl::core::herding::herding_select;
use cerl::math::norms::pairwise_sq_dists;
use cerl::math::{matmul, Matrix};
use cerl::net::wire::{self, Response};
use cerl::obs::{SpanSnapshot, Stage};
use cerl::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Span-derived metrics: (p50 name, p99 name, from, to), in µs.
const SPAN_METRICS: [(&str, &str, Stage, Stage); 7] = [
    (
        "net.decode_us.p50",
        "net.decode_us.p99",
        Stage::Accepted,
        Stage::Decoded,
    ),
    (
        "net.admission_wait_us.p50",
        "net.admission_wait_us.p99",
        Stage::AdmissionWait,
        Stage::Submitted,
    ),
    (
        "net.write_us.p50",
        "net.write_us.p99",
        Stage::Gathered,
        Stage::Written,
    ),
    (
        "serve.queue_wait_us.p50",
        "serve.queue_wait_us.p99",
        Stage::Submitted,
        Stage::QueueWait,
    ),
    (
        "serve.batch_us.p50",
        "serve.batch_us.p99",
        Stage::QueueWait,
        Stage::Batched,
    ),
    (
        "serve.gather_us.p50",
        "serve.gather_us.p99",
        Stage::Inference,
        Stage::Gathered,
    ),
    (
        "core.inference_us.p50",
        "core.inference_us.p99",
        Stage::Batched,
        Stage::Inference,
    ),
];

/// Stage deltas of every completed span, plus the share of the traced
/// socket p50 that the server-side stages account for.
pub fn spans(spans: &[SpanSnapshot], socket_p50_ms: f64, m: &mut Metrics) -> String {
    let delta_us = |from: Stage, to: Stage| -> Vec<f64> {
        spans
            .iter()
            .filter_map(|s| s.wait_nanos(from, to))
            .map(|ns| ns as f64 / 1e3)
            .collect()
    };
    for (p50, p99, from, to) in SPAN_METRICS {
        let s = summarize(&delta_us(from, to));
        m.insert(p50, s.p50);
        m.insert(p99, s.p99);
    }
    let stage_sum_us: f64 = Stage::ALL
        .windows(2)
        .map(|w| summarize(&delta_us(w[0], w[1])).p50)
        .sum();
    let share = 100.0 * stage_sum_us / (socket_p50_ms * 1e3);
    m.insert("obs.stage_share_pct", share);
    format!(
        "spans: {} completed; server-side stage p50s sum to {stage_sum_us:.1} us = {share:.1}% of the \
traced socket p50 ({:.1} us); the rest is client, loopback and generator time",
        spans.len(),
        socket_p50_ms * 1e3
    )
}

/// `wire::decode_request` and `wire::encode_response` cost per row on
/// the workload's own frames.
pub fn wire_codec(pool: &Pool, reps: usize, m: &mut Metrics) {
    let rows: usize = (0..pool.len()).map(|k| pool.rows(k)).sum();
    let decode = time_median(reps, || {
        for frame in &pool.frames {
            std::hint::black_box(wire::decode_request(&frame[4..]).expect("pool frames decode"));
        }
    });
    let responses: Vec<Response> = (0..pool.len())
        .map(|k| Response::Ite {
            request_id: k as u64 + 1,
            ite: (0..pool.rows(k)).map(|i| i as f64 * 0.25 - 1.0).collect(),
        })
        .collect();
    let mut out = Vec::new();
    let encode = time_median(reps, || {
        for r in &responses {
            out.clear();
            wire::encode_response(r, &mut out);
            std::hint::black_box(&out);
        }
    });
    m.insert("net.wire_decode_ns_per_row", decode * 1e9 / rows as f64);
    m.insert("net.wire_encode_ns_per_row", encode * 1e9 / rows as f64);
}

/// `ServingEngine::predict_ite` cost per row at a `rows`-row batch tiled
/// from the workload's requests.
pub fn predict_per_row(serving: &ServingEngine, pool: &Pool, rows: usize, reps: usize) -> f64 {
    let rows = rows.max(1);
    let cols = pool.matrices[0].cols();
    let mut data = Vec::with_capacity(rows * cols);
    let mut k = 0;
    while data.len() < rows * cols {
        let x = &pool.matrices[k % pool.len()];
        for i in 0..x.rows() {
            if data.len() < rows * cols {
                data.extend_from_slice(x.row(i));
            }
        }
        k += 1;
    }
    let x = Matrix::from_vec(rows, cols, data);
    time_median(reps, || {
        serving.predict_ite(&x).expect("trained engine predicts")
    }) * 1e6
        / rows as f64
}

/// Timed unbatched `ShardRouter::predict_ite_scatter` over the workload's
/// requests: p50 in µs, and the mean shards each request touched.
pub fn scatter_inproc(router: &ShardRouter, pool: &Pool, reps: usize) -> (f64, f64) {
    let before = router.stats();
    let mut samples = Vec::new();
    for _ in 0..reps.max(1) {
        for k in 0..pool.len() {
            let t = Instant::now();
            router
                .predict_ite_scatter(&pool.tags[k], &pool.matrices[k])
                .expect("every tag is mapped");
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let after = router.stats();
    let shards = (after.scatter_subrequests - before.scatter_subrequests) as f64
        / (after.scatter_requests - before.scatter_requests).max(1) as f64;
    (median(&samples), shards)
}

/// Training-side single-layer timings at the continual-stage shape.
pub fn training(
    scale: &Scale,
    stream: &DomainStream,
    engine: &CerlEngine,
    seed: u64,
    m: &mut Metrics,
) {
    let reps = scale.micro_reps;
    let data = stream.domain(1);
    let cfg = world::config(scale);

    // Herding at the stage-end shape: new rows plus memory → memory.
    let pool_rows = data.train.n() + scale.memory;
    let mut x = data.train.x.clone();
    let mut extra = 0;
    while x.rows() < pool_rows {
        let src = &stream.domain(extra % world::DOMAINS).test.x;
        let take = (pool_rows - x.rows()).min(src.rows());
        x = x.vstack(&src.slice_rows(0, take));
        extra += 1;
    }
    let reprs = engine.embed(&x).expect("trained engine embeds");
    let herd_reps = reps.div_ceil(3);
    m.insert(
        "core.herding_ms",
        time_median(herd_reps, || herding_select(&reprs, scale.memory)) * 1e3,
    );
    m.insert(
        "core.embed_ms",
        time_median(reps, || {
            engine.embed(&data.train.x).expect("trained engine embeds")
        }) * 1e3,
    );

    // One CfrModel epoch without and with the Wasserstein term.
    let epoch_ms = |ipm: IpmKind| {
        let mut cfg = cfg.clone();
        cfg.ipm = ipm;
        cfg.train.epochs = 1;
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let mut model = CfrModel::try_new(data.train.dim(), cfg.clone(), seed)
                    .expect("the pinned configuration validates");
                let t = Instant::now();
                model
                    .try_train(&data.train, &data.val)
                    .expect("synthetic domains are well-formed");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&times)
    };
    let plain = epoch_ms(IpmKind::None);
    let wass = epoch_ms(IpmKind::Wasserstein);
    m.insert("nn.epoch_ms", plain);
    m.insert("ot.ipm_epoch_ms", wass - plain);

    // Sinkhorn on a treated × control cost of one step's rows (64 new +
    // 64 memory representations).
    let step_rows = (2 * cfg.train.batch_size).min(data.train.n());
    let r = engine
        .embed(&data.train.x.slice_rows(0, step_rows))
        .expect("trained engine embeds");
    let treated: Vec<usize> = (0..step_rows).filter(|&i| data.train.t[i]).collect();
    let control: Vec<usize> = (0..step_rows).filter(|&i| !data.train.t[i]).collect();
    let cost = pairwise_sq_dists(&r.select_rows(&treated), &r.select_rows(&control));
    let sinkhorn = cfg.sinkhorn();
    m.insert(
        "ot.sinkhorn_ms",
        time_median(reps, || cerl::ot::sinkhorn_uniform(&cost, &sinkhorn)) * 1e3,
    );
}

/// Blocked-kernel GFLOP/s at the serving and training GEMM shapes: the
/// first representation layer over a 128-row serving batch and over a
/// 64-row training mini-batch.
pub fn matmul_gflops(cols: usize, hidden: usize, reps: usize, m: &mut Metrics) {
    let mut rng = world::SplitMix::new(99);
    let mut random = |r: usize, c: usize| {
        Matrix::from_fn(r, c, |_, _| {
            (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
    };
    let w = random(cols, hidden);
    for (name, rows) in [
        ("math.matmul_gflops.serve", 128),
        ("math.matmul_gflops.train", 64),
    ] {
        let a = random(rows, cols);
        let inner = 20;
        let secs = time_median(reps, || {
            for _ in 0..inner {
                std::hint::black_box(matmul(&a, &w));
            }
        }) / inner as f64;
        m.insert(name, 2.0 * (rows * cols * hidden) as f64 / secs / 1e9);
    }
}
