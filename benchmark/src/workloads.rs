//! The three workloads. A run sets up several independent replicates
//! (each its own seeded data and model; `setup_s` is the median set-up
//! time), serves the last one, and then measures either the end-to-end
//! metrics (untraced) or the per-layer metrics (traced windows beside
//! untraced ones, plus timed single-layer calls).

use crate::layers::{self, Metrics};
use crate::load::{self, LoadResult, Pool, Record, Until};
use crate::stats::{chunk_quantiles, chunked_quantile, digest_f64, fnv64, median, summarize};
use crate::world::{self, Publish, Scale, SplitMix, StageTime};
use cerl::core::ShardMap;
use cerl::net::{NetBackend, NetServer, NetServerConfig};
use cerl::obs::{Stage, TraceRing};
use cerl::prelude::*;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// `small_net`: nominal open-loop rate for the latency metrics.
const SMALL_RATE: f64 = 4000.0;
/// `small_net`: connections and requests in flight per connection of
/// the saturating closed loop that measures `max_rate_rps`.
const SATURATE_CONNS: usize = 2;
const SATURATE_DEPTH: usize = 16;
/// Rows per `small_net` / `train_publish` request.
const SMALL_ROWS: usize = 4;
/// `scatter_net`: connections, requests in flight per connection, rows
/// per request, domains tagged, shards.
const SCATTER_CONNS: usize = 2;
const SCATTER_DEPTH: usize = 4;
const SCATTER_ROWS: usize = 256;
const SCATTER_DOMAINS: u64 = 6;
const SCATTER_SHARDS: usize = 3;
/// `train_publish`: the open-loop read rate while training runs.
const READ_RATE: f64 = 1000.0;
/// Fewest samples a latency chunk holds (p99 then has 10 beyond it).
const CHUNK_SAMPLES: usize = 1000;
/// An open-loop window whose p99 send lag (median over its chunks)
/// exceeds this is invalid.
const LAG_LIMIT_MS: f64 = 20.0;
/// Distinct requests each workload cycles through.
const POOL: usize = 64;
/// Publishes timed in each serving workload's set-up.
const SETUP_PUBLISHES: usize = 10;
/// Span ring slots for traced windows (every request is sampled).
const TRACE_CAPACITY: usize = 1 << 17;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallNet,
    ScatterNet,
    TrainPublish,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "small_net" => Some(Self::SmallNet),
            "scatter_net" => Some(Self::ScatterNet),
            "train_publish" => Some(Self::TrainPublish),
            _ => None,
        }
    }

    /// Open-loop rate of the workload's traffic (`scatter_net` is closed).
    fn rate(self) -> f64 {
        match self {
            Workload::TrainPublish => READ_RATE,
            _ => SMALL_RATE,
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl Args {
    fn secs(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// The arrival-schedule seed of one open-loop window of the run.
    fn window_seed(&self, window: u64) -> u64 {
        self.seed.wrapping_mul(1_000_003).wrapping_add(window)
    }
}

/// What a run found.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness misses (wrong bits, non-determinism).
    pub misses: Vec<String>,
    /// Why the run's measurements are invalid, if they are.
    pub invalid: Option<String>,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl Report {
    fn count(&mut self, result: &LoadResult) {
        self.attempted += result.records.len() as u64;
        self.failed += result.failed();
    }

    /// Latency p50 and p99 of a window as reported: medians over chunks
    /// of at least `CHUNK_SAMPLES` samples and about a second each. The
    /// whole-window quantiles go to the notes with the sample count.
    fn latency(&mut self, what: &str, result: &LoadResult) -> (f64, f64) {
        let lat = result.latencies_ms();
        let chunks = chunks(result);
        let s = summarize(&lat);
        let top = s
            .top
            .map_or(String::new(), |(p, v)| format!(", p{p} {v:.3} ms"));
        let p50 = chunked_quantile(&lat, chunks, 0.5);
        let p99s = chunk_quantiles(&lat, chunks, 0.99);
        let p99 = median(&p99s);
        let p99s: Vec<String> = p99s.iter().map(|v| format!("{v:.3}")).collect();
        self.notes.push(format!(
            "{what}: {} samples, whole-window p50 {:.3} ms, p99 {:.3} ms{top} (highest percentile \
with >=10 samples beyond it); median over {chunks} chunks: p50 {p50:.3} ms, p99 {p99:.3} ms \
(chunk p99s {})",
            s.n,
            s.p50,
            s.p99,
            p99s.join(" ")
        ));
        (p50, p99)
    }

    /// Mark the run invalid if the open-loop generator ran late
    /// throughout: a late send still counts in the latency (timed from
    /// the due time), so only a generator whose p99 lag passed the limit
    /// in the median chunk spoils the run.
    fn check_lag(&mut self, what: &str, result: &LoadResult) {
        let lag = chunked_quantile(&result.lag_ms, chunks(result), 0.99);
        if lag > LAG_LIMIT_MS && self.invalid.is_none() {
            self.invalid = Some(format!(
                "{what}: generator p99 lag {lag:.3} ms breaks the {LAG_LIMIT_MS} ms limit"
            ));
        }
    }

    /// Every answered request must match, bitwise, one of the model
    /// versions `allowed` says could have served it.
    fn verify(&mut self, what: &str, result: &LoadResult, allowed: impl Fn(&Record) -> bool) {
        let wrong = result
            .records
            .iter()
            .filter(|r| r.done.is_some() && !allowed(r))
            .count();
        if wrong > 0 {
            self.misses.push(format!(
                "{what}: {wrong} responses differ bitwise from in-process ServingEngine::predict_ite"
            ));
        }
    }
}

/// Chunks a window's quantiles are taken over: about one a second, each
/// with at least `CHUNK_SAMPLES` samples.
fn chunks(result: &LoadResult) -> usize {
    let seconds = result.window_s.round().max(1.0) as usize;
    (result.records.len() / CHUNK_SAMPLES).clamp(1, seconds)
}

/// Best of repeated timings of the same fixed work. The machine's noise
/// only ever adds time, and on a shared host whole seconds run slow, so
/// the fastest repetition is the steadiest estimate of the work's cost.
fn best(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Digest of the in-process prediction for every pool request.
fn reference(serving: &ServingEngine, pool: &Pool) -> Vec<u64> {
    pool.matrices
        .iter()
        .map(|x| digest_f64(&serving.predict_ite(x).expect("trained engine predicts")))
        .collect()
}

fn batch_config() -> BatchConfig {
    BatchConfig {
        max_wait: Duration::from_micros(300),
        queue_capacity: 1 << 16,
        ..BatchConfig::default()
    }
}

fn bind(backend: NetBackend, trace: Option<Arc<TraceRing>>) -> NetServer {
    NetServer::bind(
        "127.0.0.1:0",
        backend,
        NetServerConfig {
            trace,
            ..NetServerConfig::default()
        },
    )
    .expect("bind a loopback listener")
}

enum Backend {
    Scheduler(Arc<BatchScheduler>),
    Router(Arc<ShardRouter>),
}

impl Backend {
    fn net(&self) -> NetBackend {
        match self {
            Backend::Scheduler(s) => NetBackend::Scheduler(Arc::clone(s)),
            Backend::Router(r) => NetBackend::Router(Arc::clone(r)),
        }
    }

    /// Lifetime `[batches, requests, rows]` of every batch collector.
    fn batch_counts(&self) -> [u64; 3] {
        let stats = match self {
            Backend::Scheduler(s) => vec![s.stats()],
            Backend::Router(r) => (0..r.shard_count())
                .filter_map(|i| r.shard_stats(i).ok().flatten())
                .collect(),
        };
        stats.iter().fold([0; 3], |acc, s| {
            [
                acc[0] + s.batches,
                acc[1] + s.batched_requests,
                acc[2] + s.batched_rows,
            ]
        })
    }
}

/// One independent replicate: its own seeded data stream and model.
struct Replicate {
    seed: u64,
    stream: DomainStream,
    gen_s: f64,
    /// The engine after domain 0.
    base: CerlEngine,
    /// Serving workloads: the engine after domain 1 and its timed stage.
    served: Option<(CerlEngine, StageTime)>,
    /// Serving workloads: publishes of `served` timed during set-up.
    publishes: Vec<Publish>,
}

impl Replicate {
    fn served(&self) -> &CerlEngine {
        self.served.as_ref().map_or(&self.base, |(e, _)| e)
    }
}

/// The live serving stack of the last set-up.
struct Live {
    serving: Arc<ServingEngine>,
    backend: Backend,
    server: NetServer,
    pool: Pool,
    /// Reference digest per pool request, for the served model.
    expected: Vec<u64>,
}

struct Setup {
    reps: Vec<Replicate>,
    live: Live,
}

impl Setup {
    fn last(&self) -> &Replicate {
        self.reps.last().expect("at least one replicate")
    }
}

fn set_up(args: &Args, seed: u64) -> (Replicate, Live) {
    let scale = &args.scale;
    let t = Instant::now();
    let stream = world::stream(scale, seed);
    let gen_s = t.elapsed().as_secs_f64();
    let mut base = world::engine(scale, seed);
    world::observe(&mut base, &stream, 0);
    let serving = Arc::new(ServingEngine::new(base.clone()));
    let mut rep = Replicate {
        seed,
        stream,
        gen_s,
        base,
        served: None,
        publishes: Vec::new(),
    };
    if args.workload != Workload::TrainPublish {
        let mut served = rep.base.clone();
        let stage = world::observe(&mut served, &rep.stream, 1);
        rep.publishes = (0..SETUP_PUBLISHES)
            .map(|_| world::publish(&serving, &served))
            .collect();
        rep.served = Some((served, stage));
    }

    let mut rng = SplitMix::new(seed);
    let (backend, requests) = if args.workload == Workload::ScatterNet {
        // Domain 0 is hot (40% of rows) and replicated on shards 0 and
        // 1; the other five domains have one shard each.
        let replicas: Vec<(u64, Vec<usize>)> = (0..SCATTER_DOMAINS)
            .map(|d| match d {
                0 => (0, vec![0, 1]),
                d => (d, vec![d as usize % SCATTER_SHARDS]),
            })
            .collect();
        let map = ShardMap::from_replicas(SCATTER_SHARDS, &replicas).expect("replica sets");
        let router = ShardRouter::with_batching(
            vec![rep.served().clone(); SCATTER_SHARDS],
            map,
            batch_config(),
        )
        .expect("fleet sizes agree");
        router.set_route_policy(Arc::new(LeastLoaded));
        let requests = world::requests(&rep.stream, &mut rng, POOL, SCATTER_ROWS, |rng| {
            if rng.below(5) < 2 {
                0
            } else {
                1 + rng.below(SCATTER_DOMAINS as usize - 1) as u64
            }
        });
        (Backend::Router(Arc::new(router)), requests)
    } else {
        let scheduler = BatchScheduler::new(Arc::clone(&serving), batch_config());
        let requests = world::requests(&rep.stream, &mut rng, POOL, SMALL_ROWS, |_| 0);
        (Backend::Scheduler(Arc::new(scheduler)), requests)
    };
    let pool = Pool::new(requests);
    let expected = reference(&serving, &pool);
    let server = bind(backend.net(), None);
    let live = Live {
        serving,
        backend,
        server,
        pool,
        expected,
    };
    // Warm-up: connections, batch collectors and caches settle.
    let warm = traffic(
        args,
        &live,
        live.server.local_addr(),
        Duration::from_millis(300),
        0,
    );
    assert_eq!(warm.failed(), 0, "warm-up requests all answered");
    (rep, live)
}

/// Set up `scale.setup_reps` independent replicates (seeds derived from
/// the run's seed) and keep the last one's serving stack live.
fn set_up_repeatedly(args: &Args, m: &mut Metrics) -> Setup {
    let n = args.scale.setup_reps.max(1);
    let mut times = Vec::new();
    let mut reps = Vec::new();
    let mut live: Option<Live> = None;
    for r in 0..n {
        // The previous set-up's server and batch collectors stop before
        // the next set-up is timed.
        if let Some(old) = live.take() {
            old.server.shutdown().expect("reactor joins cleanly");
        }
        let t = Instant::now();
        let (rep, stack) = set_up(
            args,
            args.seed.wrapping_mul(n as u64).wrapping_add(r as u64),
        );
        times.push(t.elapsed().as_secs_f64());
        reps.push(rep);
        live = Some(stack);
    }
    m.insert("setup_s", median(&times));
    Setup {
        reps,
        live: live.expect("at least one set-up"),
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut m = Metrics::new();
    let setup = set_up_repeatedly(args, &mut m);
    let gen: Vec<f64> = setup.reps.iter().map(|r| r.gen_s).collect();
    match (args.workload, args.trace) {
        (Workload::TrainPublish, trace) => train_publish(args, &setup, trace, &mut report, &mut m),
        (_, false) => serving_workload(args, &setup, &mut report, &mut m),
        (_, true) => {
            m.extend(traced(args, &setup, &mut report));
            let stages: Vec<StageTime> = setup
                .reps
                .iter()
                .filter_map(|r| r.served.as_ref().map(|s| s.1))
                .collect();
            step_metrics(&stages, stages.last().map_or(0, |s| s.epochs), &mut m);
            let publishes: Vec<Publish> = setup
                .reps
                .iter()
                .flat_map(|r| r.publishes.clone())
                .collect();
            publish_layers(&publishes, &mut m);
        }
    }
    setup.live.server.shutdown().expect("reactor joins cleanly");
    if args.trace {
        m.remove("setup_s");
        m.insert("data.gen_s", median(&gen));
    }
    report.metrics = m;
    report
}

/// Run one traffic window of the workload's own shape against `addr`.
fn traffic(args: &Args, live: &Live, addr: SocketAddr, secs: Duration, window: u64) -> LoadResult {
    match live.backend {
        Backend::Router(_) => {
            load::closed_loop(addr, &live.pool, SCATTER_CONNS, SCATTER_DEPTH, secs)
        }
        Backend::Scheduler(_) => load::open_loop(
            addr,
            &live.pool,
            args.workload.rate(),
            Until::after(secs),
            args.window_seed(window),
        ),
    }
    .expect("traffic over loopback")
}

/// Mean √PEHE over the replicates' final models: on the earlier domains
/// (`pehe_prev`) and on the last domain each model was trained on
/// (`pehe_new`), measured on fresh held-out units.
fn quality(args: &Args, models: &[(&Replicate, &CerlEngine)], last: usize, m: &mut Metrics) {
    let (mut prev, mut new) = (0.0, 0.0);
    for (rep, engine) in models {
        let evals = world::eval_sets(&args.scale, rep.seed);
        prev += world::pehe(engine, &evals, &(0..last).collect::<Vec<_>>());
        new += world::pehe(engine, &evals, &[last]);
    }
    m.insert("pehe_prev", prev / models.len() as f64);
    m.insert("pehe_new", new / models.len() as f64);
}

/// `n` more timed domain-1 stages of the served replicate, each of which
/// must rebuild, bit for bit, the snapshot its set-up published.
fn retrain(setup: &Setup, n: usize, report: &mut Report) -> Vec<f64> {
    let rep = setup.last();
    let published = rep.publishes.first().map(|p| p.digest);
    (0..n)
        .map(|_| {
            let mut engine = rep.base.clone();
            let stage = world::observe(&mut engine, &rep.stream, 1);
            let bytes = engine
                .save_bytes_binary(SnapshotPayload::F64)
                .expect("a trained engine saves");
            if Some(fnv64(&bytes)) != published {
                report
                    .misses
                    .push("a repeated domain-1 stage published a different snapshot".into());
            }
            stage.secs
        })
        .collect()
}

fn serving_workload(args: &Args, setup: &Setup, report: &mut Report, m: &mut Metrics) {
    let live = &setup.live;
    let addr = live.server.local_addr();
    // `train_s` is the best of the set-ups' domain-1 stages and of
    // repeats run after each traffic phase, so its samples span the
    // whole run rather than one stretch of the host's speed.
    let mut stages: Vec<f64> = setup
        .reps
        .iter()
        .filter_map(|r| r.served.as_ref().map(|s| s.1.secs))
        .collect();
    let first_half = args.scale.retrains / 2;
    let (what, main, max_rate) = match args.workload {
        Workload::ScatterNet => {
            let mut main = traffic(args, live, addr, args.secs(0.5), 1);
            stages.extend(retrain(setup, first_half, report));
            main.append(traffic(args, live, addr, args.secs(0.5), 2));
            let answered = main.records.iter().filter(|r| r.done.is_some()).count();
            let rate = answered as f64 / main.window_s;
            m.insert("peak_rss_mb", world::peak_rss_mb());
            ("scatter_net closed loop", main, rate)
        }
        _ => {
            let main = traffic(args, live, addr, args.secs(0.6), 1);
            // Read before the saturating loop, whose queue is deep on
            // purpose.
            m.insert("peak_rss_mb", world::peak_rss_mb());
            stages.extend(retrain(setup, first_half, report));
            let full = load::closed_loop(
                addr,
                &live.pool,
                SATURATE_CONNS,
                SATURATE_DEPTH,
                args.secs(0.4),
            )
            .expect("saturating traffic over loopback");
            report.count(&full);
            report.verify("small_net saturated", &full, |r| {
                r.digest == live.expected[r.pool]
            });
            let answered = full.records.iter().filter(|r| r.done.is_some()).count();
            (
                "small_net nominal rate",
                main,
                answered as f64 / full.window_s,
            )
        }
    };
    report.count(&main);
    report.verify(what, &main, |r| r.digest == live.expected[r.pool]);
    if args.workload == Workload::SmallNet {
        report.check_lag(what, &main);
    }
    let (p50, _) = report.latency(what, &main);
    m.insert("req_p50_ms", p50);
    m.insert("rows_per_s", main.rows_in_window as f64 / main.window_s);
    m.insert("max_rate_rps", max_rate);
    stages.extend(retrain(setup, args.scale.retrains - first_half, report));
    report.notes.push(format!(
        "domain-1 stages (set-ups, then repeats), s: {}",
        stages
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    m.insert("train_s", best(&stages));
    let models: Vec<_> = setup.reps.iter().map(|r| (r, r.served())).collect();
    quality(args, &models, 1, m);
}

/// The per-layer half of a serving workload: two untraced and two
/// traced windows of its own traffic, alternating so drift over the run
/// falls on both sides, then an in-process replay of the same stream and
/// the timed single-layer calls.
fn traced(args: &Args, setup: &Setup, report: &mut Report) -> Metrics {
    let live = &setup.live;
    let ring = TraceRing::new(TRACE_CAPACITY, 1);
    let server = bind(live.backend.net(), Some(Arc::clone(&ring)));
    let (mut untraced, mut traced) = (LoadResult::default(), LoadResult::default());
    let mut batches = [0; 3];
    for round in 0..2 {
        let window = args.secs(0.15);
        untraced.append(traffic(
            args,
            live,
            live.server.local_addr(),
            window,
            2 + 2 * round,
        ));
        let before = live.backend.batch_counts();
        traced.append(traffic(
            args,
            live,
            server.local_addr(),
            window,
            3 + 2 * round,
        ));
        let after = live.backend.batch_counts();
        for i in 0..3 {
            batches[i] += after[i] - before[i];
        }
    }
    let net = server.shutdown().expect("reactor joins cleanly");
    let mut out = Metrics::new();
    for (what, w) in [("untraced", &untraced), ("traced", &traced)] {
        report.verify(what, w, |r| r.digest == live.expected[r.pool]);
    }
    trace_metrics(report, &mut out, &untraced, &traced, &ring);
    serving_counters(&net, batches, &mut out);

    // The socket-free baseline: the first untraced window's stream,
    // in-process.
    let inproc = match &live.backend {
        Backend::Scheduler(s) => load::inproc_open_loop(
            s,
            &live.pool,
            args.workload.rate(),
            Until::after(args.secs(0.15)),
            args.window_seed(2),
        ),
        Backend::Router(r) => {
            load::inproc_closed_loop(r, &live.pool, SCATTER_CONNS, SCATTER_DEPTH, args.secs(0.15))
        }
    };
    socket_overhead(&untraced, &inproc, &mut out);
    let rows_per_batch = out["serve.rows_per_batch"];
    layer_calls(args, setup, setup.last().served(), rows_per_batch, &mut out);
    out
}

fn socket_overhead(socket: &LoadResult, inproc: &[f64], out: &mut Metrics) {
    let socket_p50 = summarize(&socket.latencies_ms()).p50;
    out.insert(
        "net.socket_overhead_us.p50",
        (socket_p50 - summarize(inproc).p50) * 1e3,
    );
}

/// Reactor counters of the traced server, and the batch shape over the
/// traced windows (`[batches, requests, rows]`).
fn serving_counters(net: &cerl::net::NetStatsSnapshot, batches: [u64; 3], out: &mut Metrics) {
    out.insert("net.backpressure_pauses", net.backpressure_pauses as f64);
    out.insert("net.deadline_shed", net.deadline_shed as f64);
    let n = batches[0].max(1) as f64;
    out.insert("serve.requests_per_batch", batches[1] as f64 / n);
    out.insert("serve.rows_per_batch", batches[2] as f64 / n);
}

/// Trace accounting shared by every traced run: overhead against the
/// untraced windows, drop count, generator lag and span stage deltas.
fn trace_metrics(
    report: &mut Report,
    out: &mut Metrics,
    untraced: &LoadResult,
    traced: &LoadResult,
    ring: &TraceRing,
) {
    for (what, w) in [("untraced", untraced), ("traced", traced)] {
        report.count(w);
        if !w.lag_ms.is_empty() {
            report.check_lag(what, w);
        }
    }
    let (plain, plain_p99) = report.latency("untraced windows", untraced);
    let (with, _) = report.latency("traced windows", traced);
    out.insert("gen.req_p99_ms", plain_p99);
    out.insert("obs.trace_overhead_pct", 100.0 * (with - plain) / plain);
    let stats = ring.stats();
    out.insert("obs.trace_dropped", stats.dropped as f64);
    if stats.dropped > 0 {
        report.invalid = Some(format!("trace ring dropped {} spans", stats.dropped));
    }
    let spans: Vec<_> = ring
        .dump(TRACE_CAPACITY)
        .into_iter()
        .filter(|s| s.stamp(Stage::Written).is_some())
        .collect();
    if spans.iter().any(|s| !s.is_monotone()) {
        report
            .misses
            .push("a traced span has non-monotone stage stamps".into());
    }
    report.notes.push(layers::spans(&spans, with, out));
    let lag = if untraced.lag_ms.is_empty() {
        0.0 // a closed loop has no schedule to fall behind
    } else {
        summarize(&untraced.lag_ms).p99
    };
    out.insert("gen.lag_ms.p99", lag);
}

/// Timed calls into each layer at this workload's shapes.
fn layer_calls(
    args: &Args,
    setup: &Setup,
    served: &CerlEngine,
    rows_per_batch: f64,
    out: &mut Metrics,
) {
    let reps = args.scale.micro_reps;
    let live = &setup.live;
    layers::wire_codec(&live.pool, reps, out);
    let serving = ServingEngine::new(served.clone());
    out.insert(
        "core.predict_us_per_row",
        layers::predict_per_row(&serving, &live.pool, rows_per_batch.round() as usize, reps),
    );
    // An unbatched fleet with the scatter topology times demux, the
    // per-shard forward passes and the merge on the workload's rows,
    // re-tagged across the scatter domains where they are single-domain.
    let replicas: Vec<(u64, Vec<usize>)> = (0..SCATTER_DOMAINS)
        .map(|d| (d, vec![d as usize % SCATTER_SHARDS]))
        .collect();
    let map = ShardMap::from_replicas(SCATTER_SHARDS, &replicas).expect("replica sets");
    let router =
        ShardRouter::new(vec![served.clone(); SCATTER_SHARDS], map).expect("fleet sizes agree");
    let mut rng = SplitMix::new(args.seed ^ 0x5CA7);
    let retagged = Pool::new(
        live.pool
            .matrices
            .iter()
            .map(|x| {
                let tags = (0..x.rows()).map(|_| rng.below(SCATTER_DOMAINS as usize) as u64);
                (tags.collect(), x.clone())
            })
            .collect(),
    );
    let pool = match &live.backend {
        Backend::Router(_) => &live.pool,
        Backend::Scheduler(_) => &retagged,
    };
    let (p50, shards) = layers::scatter_inproc(&router, pool, reps.div_ceil(5));
    out.insert("serve.scatter_inproc_us.p50", p50);
    out.insert(
        "serve.shards_per_scatter",
        match &live.backend {
            Backend::Router(r) => r.stats().mean_shards_per_scatter(),
            Backend::Scheduler(_) => shards,
        },
    );
    layers::training(&args.scale, &setup.last().stream, served, args.seed, out);
    let cols = live.pool.matrices[0].cols();
    let hidden = world::config(&args.scale).net.repr_hidden[0];
    layers::matmul_gflops(cols, hidden, reps, out);
}

/// `core.train_step_ms` over `stages`, and the exact epoch count of one
/// workload unit.
fn step_metrics(stages: &[StageTime], epochs: usize, m: &mut Metrics) -> String {
    let secs: f64 = stages.iter().map(|s| s.secs).sum();
    let steps: usize = stages.iter().map(|s| s.steps).sum();
    let per_step = secs * 1e3 / steps.max(1) as f64;
    m.insert("core.train_step_ms", per_step);
    m.insert("core.epochs_run", epochs as f64);
    format!(
        "accounting: {steps} optimizer steps x core.train_step_ms {per_step:.4} ms = {secs:.3} s \
= the wall time of the timed observe calls"
    )
}

fn publish_layers(publishes: &[Publish], m: &mut Metrics) {
    let med = |f: fn(&Publish) -> f64| median(&publishes.iter().map(f).collect::<Vec<_>>());
    m.insert("core.snapshot_save_ms", med(|p| p.save_ms));
    m.insert("core.swap_warm_ms", med(|p| p.swap_ms));
    m.insert("core.snapshot_bytes", med(|p| p.bytes as f64));
}

/// One continual pass of one replicate over domains 1..: observe, then
/// publish into the live server, with a reference digest per model.
struct Pass {
    rep: usize,
    stages: Vec<StageTime>,
    publishes: Vec<Publish>,
    references: Vec<Vec<u64>>,
    engine: CerlEngine,
}

fn continual_pass(setup: &Setup, rep: usize) -> Pass {
    let replicate = &setup.reps[rep];
    let mut engine = replicate.base.clone();
    let (mut stages, mut publishes, mut references) = (Vec::new(), Vec::new(), Vec::new());
    for d in 1..world::DOMAINS {
        stages.push(world::observe(&mut engine, &replicate.stream, d));
        publishes.push(world::publish(&setup.live.serving, &engine));
        references.push(reference(
            &ServingEngine::new(engine.clone()),
            &setup.live.pool,
        ));
    }
    Pass {
        rep,
        stages,
        publishes,
        references,
        engine,
    }
}

/// Every answered read must equal, bitwise, the prediction of a model
/// version that was live at some point while the read was in flight.
fn verify_versions(
    report: &mut Report,
    what: &str,
    reads: &LoadResult,
    setup: &Setup,
    passes: &[Pass],
) {
    // Each version: when its publish ran (`None` = served from the
    // start) and its reference digests.
    type Version<'a> = (Option<(Instant, Instant)>, &'a [u64]);
    let mut timeline: Vec<Version> = vec![(None, &setup.live.expected)];
    for pass in passes {
        for (p, r) in pass.publishes.iter().zip(&pass.references) {
            timeline.push((Some(p.window), r));
        }
    }
    report.verify(what, reads, |rec| {
        let done = rec.done.expect("only answered reads are checked");
        (0..timeline.len()).any(|j| {
            let live_from = timeline[j].0.map(|(start, _)| start);
            let live_until = timeline
                .get(j + 1)
                .and_then(|next| next.0)
                .map(|(_, end)| end);
            live_from.is_none_or(|s| s <= done)
                && live_until.is_none_or(|e| e >= rec.issued)
                && timeline[j].1[rec.pool] == rec.digest
        })
    });
}

enum Reads {
    Socket(SocketAddr),
    InProcess,
}

/// Continual passes, cycling through the replicates from `first`, with
/// open-loop reads running beside them: at least `min` passes, more
/// while `budget` allows.
fn passes_under_reads(
    args: &Args,
    setup: &Setup,
    reads: Reads,
    first: usize,
    min: usize,
    budget: Duration,
) -> (Vec<Pass>, LoadResult, Vec<f64>) {
    let stop = AtomicBool::new(false);
    let until = Until {
        max: Duration::from_secs(150),
        stop: Some(&stop),
    };
    let Backend::Scheduler(scheduler) = &setup.live.backend else {
        unreachable!("train_publish serves through a scheduler")
    };
    let pool = &setup.live.pool;
    let seed = args.window_seed(first as u64);
    thread::scope(|s| {
        let reader = s.spawn(|| match reads {
            Reads::Socket(addr) => (
                load::open_loop(addr, pool, READ_RATE, until, seed).expect("reads over loopback"),
                Vec::new(),
            ),
            Reads::InProcess => (
                LoadResult::default(),
                load::inproc_open_loop(scheduler, pool, READ_RATE, until, seed),
            ),
        });
        let start = Instant::now();
        let mut passes = Vec::new();
        loop {
            let t = Instant::now();
            passes.push(continual_pass(
                setup,
                (first + passes.len()) % setup.reps.len(),
            ));
            if passes.len() >= min && start.elapsed() + t.elapsed() > budget {
                break;
            }
        }
        // ordering: a lone flag; the reader publishes nothing through it.
        stop.store(true, Ordering::Relaxed);
        let (socket, inproc) = reader.join().expect("read generator thread");
        (passes, socket, inproc)
    })
}

fn train_publish(args: &Args, setup: &Setup, trace: bool, report: &mut Report, m: &mut Metrics) {
    let addr = setup.live.server.local_addr();
    let reps = setup.reps.len();
    if trace {
        let (a, untraced, _) =
            passes_under_reads(args, setup, Reads::Socket(addr), 0, 1, Duration::ZERO);
        let ring = TraceRing::new(TRACE_CAPACITY, 1);
        let server = bind(setup.live.backend.net(), Some(Arc::clone(&ring)));
        let before = setup.live.backend.batch_counts();
        let traced_addr = Reads::Socket(server.local_addr());
        let (b, traced, _) = passes_under_reads(args, setup, traced_addr, 1, 1, Duration::ZERO);
        let after = setup.live.backend.batch_counts();
        let net = server.shutdown().expect("reactor joins cleanly");
        let (c, _, inproc) =
            passes_under_reads(args, setup, Reads::InProcess, 2, 1, Duration::ZERO);
        let passes: Vec<Pass> = [a, b, c].into_iter().flatten().collect();
        verify_versions(report, "untraced reads", &untraced, setup, &passes);
        verify_versions(report, "traced reads", &traced, setup, &passes);
        trace_metrics(report, m, &untraced, &traced, &ring);
        serving_counters(&net, std::array::from_fn(|i| after[i] - before[i]), m);
        socket_overhead(&untraced, &inproc, m);
        let rows_per_batch = m["serve.rows_per_batch"];
        layer_calls(args, setup, &passes[0].engine, rows_per_batch, m);
        let stages: Vec<StageTime> = passes.iter().flat_map(|p| p.stages.clone()).collect();
        let epochs = passes[0].stages.iter().map(|s| s.epochs).sum();
        report.notes.push(step_metrics(&stages, epochs, m));
        let publishes: Vec<Publish> = passes.iter().flat_map(|p| p.publishes.clone()).collect();
        publish_layers(&publishes, m);
        check_digests(report, &passes);
        return;
    }

    // Untraced: one read stream spans every pass; each replicate runs at
    // least twice, so every replicate's final snapshot is checked against
    // a second pass and `train_s` takes its best over about half a
    // minute of the host's drifting speed; passes repeat while the run's
    // time allows.
    let (passes, reads, _) = passes_under_reads(
        args,
        setup,
        Reads::Socket(addr),
        0,
        2 * reps,
        args.secs(1.0),
    );
    report.count(&reads);
    verify_versions(report, "train_publish reads", &reads, setup, &passes);
    report.check_lag("train_publish reads", &reads);
    let (p50, _) = report.latency("train_publish reads during training", &reads);
    m.insert("req_p50_ms", p50);
    m.insert("rows_per_s", reads.rows_in_window as f64 / reads.window_s);
    let answered = reads.records.iter().filter(|r| r.done.is_some()).count();
    m.insert("max_rate_rps", answered as f64 / reads.window_s);
    m.insert("peak_rss_mb", world::peak_rss_mb());
    let pass_secs: Vec<f64> = passes
        .iter()
        .map(|p| p.stages.iter().map(|s| s.secs).sum())
        .collect();
    m.insert("train_s", best(&pass_secs));
    let models: Vec<_> = passes[..reps]
        .iter()
        .map(|p| (&setup.reps[p.rep], &p.engine))
        .collect();
    quality(args, &models, world::DOMAINS - 1, m);
    report.notes.push(format!(
        "train_publish: {} passes of {} stages; train_s per pass {:?}",
        passes.len(),
        world::DOMAINS - 1,
        pass_secs
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
    ));
    check_digests(report, &passes);
}

/// Passes of the same replicate must publish the same final snapshot.
fn check_digests(report: &mut Report, passes: &[Pass]) {
    let last = |p: &Pass| p.publishes.last().expect("each pass publishes").digest;
    for (i, a) in passes.iter().enumerate() {
        if let Some(b) = passes[i + 1..].iter().find(|b| b.rep == a.rep) {
            if last(a) != last(b) {
                report.misses.push(format!(
                    "replicate {}: final snapshot digests differ between passes ({:016x} vs {:016x})",
                    a.rep,
                    last(a),
                    last(b)
                ));
            }
        }
    }
    report
        .notes
        .push(format!("final_snapshot_digest={:016x}", last(&passes[0])));
}
