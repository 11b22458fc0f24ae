//! Every metric the benchmark emits, with its unit and better-direction.
//! `BENCHMARK.json` at the repository root lists the same names; the
//! smoke test holds the two in agreement.

/// `(name, unit, better)`.
pub type Metric = (&'static str, &'static str, &'static str);

/// Untraced runs (`--trace 0`) emit exactly these.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s", "lower"),
    ("req_p50_ms", "ms", "lower"),
    ("max_rate_rps", "1/s", "higher"),
    ("rows_per_s", "1/s", "higher"),
    ("train_s", "s", "lower"),
    ("pehe_prev", "outcome", "lower"),
    ("pehe_new", "outcome", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Traced runs (`--trace 1`) emit exactly these.
pub const PER_LAYER: &[Metric] = &[
    ("net.decode_us.p50", "us", "lower"),
    ("net.decode_us.p99", "us", "lower"),
    ("net.admission_wait_us.p50", "us", "lower"),
    ("net.admission_wait_us.p99", "us", "lower"),
    ("net.write_us.p50", "us", "lower"),
    ("net.write_us.p99", "us", "lower"),
    ("net.wire_decode_ns_per_row", "ns", "lower"),
    ("net.wire_encode_ns_per_row", "ns", "lower"),
    ("net.socket_overhead_us.p50", "us", "lower"),
    ("net.backpressure_pauses", "count", "lower"),
    ("net.deadline_shed", "count", "lower"),
    ("serve.queue_wait_us.p50", "us", "lower"),
    ("serve.queue_wait_us.p99", "us", "lower"),
    ("serve.batch_us.p50", "us", "lower"),
    ("serve.batch_us.p99", "us", "lower"),
    ("serve.gather_us.p50", "us", "lower"),
    ("serve.gather_us.p99", "us", "lower"),
    ("serve.requests_per_batch", "count", "higher"),
    ("serve.rows_per_batch", "count", "higher"),
    ("serve.shards_per_scatter", "count", "lower"),
    ("serve.scatter_inproc_us.p50", "us", "lower"),
    ("core.inference_us.p50", "us", "lower"),
    ("core.inference_us.p99", "us", "lower"),
    ("core.predict_us_per_row", "us", "lower"),
    ("core.train_step_ms", "ms", "lower"),
    ("core.epochs_run", "count", "lower"),
    ("core.herding_ms", "ms", "lower"),
    ("core.embed_ms", "ms", "lower"),
    ("core.snapshot_save_ms", "ms", "lower"),
    ("core.snapshot_bytes", "bytes", "lower"),
    ("core.swap_warm_ms", "ms", "lower"),
    ("nn.epoch_ms", "ms", "lower"),
    ("ot.sinkhorn_ms", "ms", "lower"),
    ("ot.ipm_epoch_ms", "ms", "lower"),
    ("math.matmul_gflops.serve", "GFLOP/s", "higher"),
    ("math.matmul_gflops.train", "GFLOP/s", "higher"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("obs.trace_dropped", "count", "lower"),
    ("obs.stage_share_pct", "%", "higher"),
    ("data.gen_s", "s", "lower"),
    ("gen.lag_ms.p99", "ms", "lower"),
    ("gen.req_p99_ms", "ms", "lower"),
];
