//! Micro-batching request scheduler: coalesce many small concurrent
//! prediction requests into one forward pass.
//!
//! A serving process taking thousands of small `predict_ite` calls per
//! second wastes most of its time on per-request overhead: every call
//! pays its own standardizer pass, GEMM setup, and activation
//! allocations for a handful of rows. [`BatchScheduler`] amortizes that
//! by queueing concurrent requests and running **one**
//! [`predict_ite_parallel`](cerl_core::serving::ServingEngine::predict_ite_parallel)
//! call over their coalesced rows:
//!
//! * **Bounded submission queue.** [`BatchScheduler::submit`] enqueues a
//!   request or fails fast with [`ServeError::QueueFull`] — load is shed
//!   at the front door instead of growing the queue (and every queued
//!   request's latency) without bound.
//! * **Inline pass for a lone small request.** A request of at most 16
//!   rows that finds the scheduler empty (nothing queued, batching or
//!   executing) runs its forward pass on the thread that submits it, and
//!   its handle is ready before [`BatchScheduler::submit`] returns. It
//!   skips the two cross-thread hand-offs (to the collector and back to
//!   the caller's waker), which cost more than a pass over 16 rows.
//!   Everything else is queued, and a request that arrives while an
//!   inline pass runs waits for it and coalesces into the next batch.
//!   The gate admits an inline pass only when nothing is queued, so it
//!   never overtakes a queued request: completions stay in submission
//!   order.
//! * **Batch closing.** A dedicated collector thread opens a batch on
//!   the first queued request and drains what is already queued. A
//!   request that drains the queue alone runs at once: an idle
//!   scheduler never holds a lone request. A batch that drains with
//!   company (the scheduler is under concurrent load) keeps taking
//!   arrivals for as long as the previous forward pass took, and never
//!   past [`BatchConfig::max_wait`] after it opened: at light load the
//!   passes, and so the waits, are short; at saturation batches keep
//!   their size. Either closes early once its coalesced rows reach
//!   [`BatchConfig::max_batch_rows`].
//! * **Per-request demux.** The batch runs against one pinned engine
//!   version; result rows are sliced back out and delivered through each
//!   request's private channel together with the version that served it.
//! * **Bitwise-identical results (per precision mode).** Per-row
//!   inference is batch-independent and the fanned execution uses the
//!   fixed-chunk walk of `ServingEngine`, so a coalesced request's slice
//!   is bitwise identical to the same rows served by an unbatched
//!   [`predict_ite`](cerl_core::serving::ServingEngine::predict_ite)
//!   call against the same engine version (test-enforced in
//!   `tests/serving_batching.rs`). Each published version carries its
//!   own [`PrecisionMode`](cerl_core::precision::PrecisionMode) — `f64`
//!   or compiled-`f32` — and the contract holds *within* a version's
//!   mode: batched == unbatched == scatter, whichever precision the
//!   version was published with (see `cerl_core::precision`).
//! * **Observability.** Queue-wait and end-to-end latency land in
//!   [`LatencyHistogram`]s; [`BatchScheduler::stats`] reports p50/p95/p99
//!   plus batch shape and per-version request counts (see [`ServeStats`]).

use crate::error::ServeError;
use crate::histogram::{LatencyHistogram, LatencySnapshot};
use cerl_core::error::CerlError;
use cerl_core::serving::ServingEngine;
use cerl_math::Matrix;
use cerl_obs::{MetricsRegistry, Stage, TraceSpan};
use std::collections::BTreeMap;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`BatchScheduler`].
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Close a batch once its coalesced rows reach this bound (default
    /// 1024 — about two [`PARALLEL_CHUNK_ROWS`] chunks, enough to keep
    /// the fanned forward pass busy without unbounded memory).
    ///
    /// [`PARALLEL_CHUNK_ROWS`]: cerl_core::serving::PARALLEL_CHUNK_ROWS
    pub max_batch_rows: usize,
    /// Cap on how long a batch that already has company stays open for
    /// further arrivals, counted from when it opened (default 2 ms);
    /// within it, the batch waits no longer than the previous forward
    /// pass took. A request that finds the queue otherwise empty runs
    /// at once and pays none of it; one of at most 16 rows that finds
    /// the scheduler empty runs on the submitting thread.
    pub max_wait: Duration,
    /// Bounded submission queue capacity in pending requests (default
    /// 1024). Submissions beyond it fail with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Worker threads for the coalesced forward pass (default 0 = the
    /// machine's GEMM worker count).
    pub worker_threads: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch_rows: 1024,
            max_wait: Duration::from_millis(2),
            queue_capacity: 1024,
            worker_threads: 0,
        }
    }
}

impl BatchConfig {
    /// Clamp degenerate values (0 rows / 0 capacity would deadlock).
    fn normalized(mut self) -> Self {
        self.max_batch_rows = self.max_batch_rows.max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self
    }
}

/// Shared serve-path counters: scheduler and router both maintain one.
#[derive(Debug, Default)]
pub(crate) struct ServeMetrics {
    requests: AtomicU64,
    rejected: AtomicU64,
    rejected_client: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    batched_rows: AtomicU64,
    max_batch_requests: AtomicU64,
    scatter_requests: AtomicU64,
    scatter_subrequests: AtomicU64,
    queue_wait: LatencyHistogram,
    end_to_end: LatencyHistogram,
    per_version: Mutex<BTreeMap<u64, u64>>,
}

impl ServeMetrics {
    pub(crate) fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.record(wait);
    }

    pub(crate) fn record_batch(&self, requests: u64, rows: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
        self.batched_requests.fetch_add(requests, Ordering::Relaxed); // ordering: lone stat counter, no edges
        self.batched_rows.fetch_add(rows, Ordering::Relaxed); // ordering: lone stat counter, no edges
                                                              // ordering: lone stat high-water mark, no edges.
        self.max_batch_requests
            .fetch_max(requests, Ordering::Relaxed);
    }

    pub(crate) fn record_response(&self, version: u64, end_to_end: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
        self.end_to_end.record(end_to_end);
        *self
            .per_version
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(version)
            .or_insert(0) += 1;
    }

    /// One rejected request, classified by fault: client faults (the
    /// request itself was unservable — see [`ServeError::is_client_fault`])
    /// are counted separately so canary verdicts can judge serve health
    /// without being halted by a misbehaving client.
    pub(crate) fn record_rejection(&self, error: &ServeError) {
        self.rejected.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
        if error.is_client_fault() {
            self.rejected_client.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
        }
    }

    /// One answered cross-shard scatter-gather request: counted once as a
    /// request, once per participating shard in the per-version table
    /// (`versions` holds each sub-batch's `(shard, version)` pin), so
    /// `per_version_requests` sums can exceed `requests` on fleets
    /// serving mixed-domain traffic.
    pub(crate) fn record_scatter(&self, versions: &[(usize, u64)], end_to_end: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
        self.scatter_requests.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
                                                               // ordering: lone stat counter, no edges.
        self.scatter_subrequests
            .fetch_add(versions.len() as u64, Ordering::Relaxed);
        self.end_to_end.record(end_to_end);
        let mut per_version = self
            .per_version
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for &(_, version) in versions {
            *per_version.entry(version).or_insert(0) += 1;
        }
    }

    /// Cheap counters-only view for canary polling: no quantile walk, no
    /// per-version table clone — just the request/rejection totals and
    /// the raw end-to-end bucket counts, so an orchestrator can poll at
    /// window resolution without perturbing the fleet it is watching.
    pub(crate) fn canary_snapshot(&self) -> crate::orchestrator::CanarySnapshot {
        crate::orchestrator::CanarySnapshot {
            // ordering: advisory snapshot of independent monotone
            // counters — per-counter coherence only, no edges.
            requests: self.requests.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            rejected_client: self.rejected_client.load(Ordering::Relaxed),
            end_to_end_buckets: self.end_to_end.bucket_counts(),
        }
    }

    /// Write every counter and histogram into `reg` under `prefix`
    /// (e.g. `cerl_serve`) — the scrape-time half of the unified
    /// metrics registry; the serving path never touches the registry.
    pub(crate) fn export_metrics(&self, prefix: &str, reg: &mut MetricsRegistry) {
        // ordering: advisory snapshot of independent monotone counters —
        // per-counter coherence only, no edges.
        let pairs: [(&str, &str, u64); 9] = [
            (
                "requests_total",
                "Requests answered successfully.",
                self.requests.load(Ordering::Relaxed),
            ),
            (
                "rejected_total",
                "Requests rejected with a typed ServeError (all faults).",
                self.rejected.load(Ordering::Relaxed),
            ),
            (
                "rejected_client_total",
                "Rejected requests that were client faults.",
                self.rejected_client.load(Ordering::Relaxed),
            ),
            (
                "batches_total",
                "Coalesced forward passes executed.",
                self.batches.load(Ordering::Relaxed),
            ),
            (
                "batched_requests_total",
                "Requests that entered a coalesced forward pass.",
                self.batched_requests.load(Ordering::Relaxed),
            ),
            (
                "batched_rows_total",
                "Rows across all coalesced forward passes.",
                self.batched_rows.load(Ordering::Relaxed),
            ),
            (
                "max_batch_requests",
                "Largest number of requests coalesced into one batch.",
                self.max_batch_requests.load(Ordering::Relaxed),
            ),
            (
                "scatter_requests_total",
                "Cross-shard scatter-gather requests answered.",
                self.scatter_requests.load(Ordering::Relaxed),
            ),
            (
                "scatter_subrequests_total",
                "Per-shard sub-batches scatter requests fanned into.",
                self.scatter_subrequests.load(Ordering::Relaxed),
            ),
        ];
        for (name, help, value) in pairs {
            reg.counter(&format!("{prefix}_{name}"), help, &[], value);
        }
        self.queue_wait.export_into(
            reg,
            &format!("{prefix}_queue_wait_seconds"),
            "Time requests spent queued before their batch executed.",
            &[],
        );
        self.end_to_end.export_into(
            reg,
            &format!("{prefix}_end_to_end_seconds"),
            "Submit-to-response latency as the caller observes it.",
            &[],
        );
        let per_version: Vec<(u64, u64)> = self
            .per_version
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&v, &c)| (v, c))
            .collect();
        for (version, count) in per_version {
            reg.counter(
                &format!("{prefix}_version_requests_total"),
                "Successful requests per serving engine version.",
                &[("version", &version.to_string())],
                count,
            );
        }
    }

    pub(crate) fn snapshot(&self) -> ServeStats {
        ServeStats {
            // ordering: advisory snapshot of independent monotone
            // counters — per-counter coherence only, no edges.
            requests: self.requests.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            rejected_client: self.rejected_client.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            batched_rows: self.batched_rows.load(Ordering::Relaxed),
            max_batch_requests: self.max_batch_requests.load(Ordering::Relaxed),
            scatter_requests: self.scatter_requests.load(Ordering::Relaxed),
            scatter_subrequests: self.scatter_subrequests.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.snapshot(),
            end_to_end: self.end_to_end.snapshot(),
            per_version_requests: self
                .per_version
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(&v, &c)| (v, c))
                .collect(),
        }
    }
}

/// Point-in-time serve-path statistics ([`BatchScheduler::stats`] /
/// `ShardRouter::stats`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests answered successfully.
    pub requests: u64,
    /// Requests rejected with a [`ServeError`] (all faults).
    pub rejected: u64,
    /// The subset of [`ServeStats::rejected`] that were **client faults**
    /// — the request itself was unservable (unknown domain, wrong
    /// covariate width, empty input; see [`ServeError::is_client_fault`]).
    /// `rejected - rejected_client` (= [`ServeStats::rejected_serve`]) is
    /// the serve-fault count a canary should judge.
    pub rejected_client: u64,
    /// Coalesced forward passes executed.
    pub batches: u64,
    /// Total requests that entered a coalesced forward pass (excludes
    /// submit-time rejections, which never reach a batch).
    pub batched_requests: u64,
    /// Total rows across all coalesced forward passes.
    pub batched_rows: u64,
    /// Largest number of requests coalesced into one batch so far.
    pub max_batch_requests: u64,
    /// Cross-shard scatter-gather requests answered (router only; a
    /// scatter also counts once in [`ServeStats::requests`]).
    pub scatter_requests: u64,
    /// Per-shard sub-batches those scatter requests fanned out into
    /// (`scatter_subrequests / scatter_requests` = mean shards touched).
    pub scatter_subrequests: u64,
    /// Time requests spent queued before their batch started executing.
    pub queue_wait: LatencySnapshot,
    /// Submit-to-response latency as observed by the caller.
    pub end_to_end: LatencySnapshot,
    /// Successful requests per engine version, ascending by version —
    /// watch these counters shift to judge a canary swap. (A router
    /// aggregates across shards whose versions are independent; use its
    /// per-shard stats to attribute versions. A scatter-gather request
    /// counts once per participating shard's version here, so the column
    /// sum can exceed [`ServeStats::requests`].)
    pub per_version_requests: Vec<(u64, u64)>,
}

impl ServeStats {
    /// Rejections that were the serving fleet's fault (queue overflow,
    /// shutdown, engine failure) — the class a canary verdict judges.
    pub fn rejected_serve(&self) -> u64 {
        self.rejected.saturating_sub(self.rejected_client)
    }

    /// Mean requests coalesced per forward pass (1.0 = no batching won).
    pub fn mean_requests_per_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_requests as f64 / self.batches as f64
    }

    /// Mean rows per coalesced forward pass.
    pub fn mean_rows_per_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_rows as f64 / self.batches as f64
    }

    /// Mean shards a scatter-gather request fanned out to (1.0 = traffic
    /// never actually crossed shards; 0.0 = no scatter traffic yet).
    pub fn mean_shards_per_scatter(&self) -> f64 {
        if self.scatter_requests == 0 {
            return 0.0;
        }
        self.scatter_subrequests as f64 / self.scatter_requests as f64
    }
}

type ReplyPayload = Result<(u64, Vec<f64>), ServeError>;

/// Largest request, in rows, that runs on the submitting thread when it
/// finds the scheduler empty. Sized by break-even on a 2-vCPU host: the
/// two cross-thread hand-offs an inline pass saves (submitter to
/// collector, collector back to the submitter's waker) cost ~40 µs at
/// p50, and a forward pass costs ~2.7 µs per row, so they break even
/// near 15 rows. Past the bound the caller would wait on its own pass
/// longer than on the hops, and a router's per-shard scatter
/// sub-batches (tens of rows and up) stay on the collectors, where the
/// shards run in parallel.
const INLINE_MAX_ROWS: usize = 16;

/// Who may run a forward pass: shared by the submitters and the
/// collector thread.
#[derive(Default)]
struct PassGate {
    /// Requests queued, batching or executing. A submitter claims an
    /// inline pass only by moving it from 0 to 1.
    outstanding: AtomicUsize,
    /// Held for the whole of an inline pass. The collector takes and
    /// drops it once its batch-opening request arrives, so requests
    /// that queue behind an inline pass coalesce into one batch after
    /// it instead of running beside it.
    pass: Mutex<()>,
}

impl PassGate {
    /// Claim an inline pass: succeeds only on an empty scheduler.
    fn claim_idle(&self) -> bool {
        // ordering: Acquire pairs with `release`'s Release, so a claim
        // that reads 0 happens-after the end of every earlier pass.
        self.outstanding
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Count one request about to be queued. An RMW always reads the
    /// latest count, so a later `claim_idle` fails until it is served.
    fn enter(&self) {
        // ordering: the count publishes no data (the request travels
        // through the channel); only its modification order matters.
        self.outstanding.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` requests left the scheduler (served, or refused a queue slot).
    fn release(&self, n: usize) {
        // ordering: Release pairs with `claim_idle`'s Acquire.
        self.outstanding.fetch_sub(n, Ordering::Release);
    }
}

/// One-shot completion slot shared between a queued request and its
/// [`ResponseHandle`]. The handle can consume the outcome two ways:
/// blocking on the condvar ([`ResponseHandle::wait`]) or registering a
/// task [`Waker`] (the [`Future`] impl) — the latter is what lets one
/// reactor thread multiplex thousands of in-flight requests without a
/// thread per connection.
struct ReplySlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Default)]
struct SlotState {
    fulfilled: bool,
    payload: Option<ReplyPayload>,
    waker: Option<Waker>,
}

impl ReplySlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SlotState::default()),
            ready: Condvar::new(),
        })
    }

    /// Deliver the outcome — first fulfillment wins, later calls are
    /// no-ops — and wake whichever side waits: condvar blocker or waker.
    fn fulfill(&self, payload: ReplyPayload) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.fulfilled {
            return;
        }
        state.fulfilled = true;
        state.payload = Some(payload);
        let waker = state.waker.take();
        drop(state);
        self.ready.notify_all();
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    fn wait_payload(&self) -> ReplyPayload {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(payload) = state.payload.take() {
                return payload;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking poll: takes the payload if delivered, otherwise
    /// (re)registers `waker` to fire on fulfillment.
    fn poll_payload(&self, waker: &Waker) -> Option<ReplyPayload> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = state.payload.take() {
            return Some(payload);
        }
        match &mut state.waker {
            Some(existing) => existing.clone_from(waker),
            None => state.waker = Some(waker.clone()),
        }
        None
    }
}

/// One queued prediction request awaiting its batch.
struct PendingRequest {
    x: Matrix,
    enqueued: Instant,
    slot: Arc<ReplySlot>,
    /// Sampled observability span threaded from the network reactor;
    /// the pass stamps the queue/batch/inference stages through it.
    trace: Option<TraceSpan>,
}

impl Drop for PendingRequest {
    fn drop(&mut self) {
        // Dropped without being served (scheduler shutdown mid-drain, or
        // a panic unwinding a batch): the waiting handle gets the typed
        // shutdown error instead of hanging forever. After a normal
        // fulfillment this is a no-op.
        self.slot.fulfill(Err(ServeError::SchedulerShutdown));
    }
}

/// In-flight response of a [`BatchScheduler::submit`] call.
///
/// Consume it either by blocking ([`ResponseHandle::wait`]) or by
/// `.await`/polling it — the handle is a true [`Future`], resolved by
/// the collector thread through the stored waker, so an event loop can
/// keep thousands of requests in flight without blocking a thread each.
/// A request served by an inline pass is resolved before `submit`
/// returns, so its first poll is `Ready` and its waker never fires.
///
/// Dropping the handle abandons the request (the batch still runs; the
/// result is discarded and not counted in [`ServeStats::requests`]).
#[must_use = "submit() only enqueues; wait() or poll to receive the prediction"]
pub struct ResponseHandle {
    slot: Arc<ReplySlot>,
    submitted: Instant,
    metrics: Arc<ServeMetrics>,
    done: bool,
    /// The span to stamp `Gathered` on when this handle settles; `None`
    /// for a scatter's per-shard handle, whose parent stamps it.
    trace: Option<TraceSpan>,
}

impl ResponseHandle {
    /// Leave the `Gathered` stamp to the owner of a shared span: a
    /// scatter's request is gathered when its *last* shard settles, and
    /// a stamp is first-writer-wins, so a per-shard handle must not set
    /// it when the first shard does.
    pub(crate) fn without_gathered_stamp(mut self) -> Self {
        self.trace = None;
        self
    }

    /// Block until the batch containing this request has executed;
    /// returns the serving engine version and the request's own ITE rows.
    pub fn wait(mut self) -> Result<(u64, Vec<f64>), ServeError> {
        let outcome = self.slot.wait_payload();
        self.settle(outcome)
    }

    /// Record the outcome in the serve-path metrics exactly once and
    /// hand it to the caller (shared tail of `wait` and `poll`).
    fn settle(&mut self, outcome: ReplyPayload) -> Result<(u64, Vec<f64>), ServeError> {
        self.done = true;
        if let Some(trace) = &self.trace {
            trace.stamp(Stage::Gathered);
        }
        match outcome {
            Ok((version, ite)) => {
                self.metrics
                    .record_response(version, self.submitted.elapsed());
                Ok((version, ite))
            }
            Err(e) => {
                self.metrics.record_rejection(&e);
                Err(e)
            }
        }
    }
}

impl Future for ResponseHandle {
    type Output = Result<(u64, Vec<f64>), ServeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        // panic-ok: polling a completed Future violates the Future
        // contract; the panic is in the misbehaving caller's task, not
        // the serving fleet's.
        assert!(!this.done, "ResponseHandle polled after completion");
        match this.slot.poll_payload(cx.waker()) {
            Some(outcome) => Poll::Ready(this.settle(outcome)),
            None => Poll::Pending,
        }
    }
}

/// Micro-batching front-end over one [`ServingEngine`] (see the
/// [module docs](self)).
///
/// Shared by reference across request threads; dropping the scheduler
/// stops the collector after it drains the in-flight batch.
pub struct BatchScheduler {
    engine: Arc<ServingEngine>,
    queue: SyncSender<PendingRequest>,
    collector: Option<JoinHandle<()>>,
    metrics: Arc<ServeMetrics>,
    gate: Arc<PassGate>,
    cfg: BatchConfig,
}

impl std::fmt::Debug for BatchScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchScheduler")
            .field("cfg", &self.cfg)
            .field("engine_version", &self.engine.version())
            .finish_non_exhaustive()
    }
}

impl BatchScheduler {
    /// Spawn the collector thread over `engine` with the given knobs.
    pub fn new(engine: Arc<ServingEngine>, cfg: BatchConfig) -> Self {
        let cfg = cfg.normalized();
        let (queue, rx) = mpsc::sync_channel(cfg.queue_capacity);
        let metrics = Arc::new(ServeMetrics::default());
        let gate = Arc::new(PassGate::default());
        let collector = std::thread::Builder::new()
            .name("cerl-serve-collector".into())
            .spawn({
                let engine = Arc::clone(&engine);
                let metrics = Arc::clone(&metrics);
                let gate = Arc::clone(&gate);
                let cfg = cfg.clone();
                move || collector_loop(&engine, &rx, &cfg, &metrics, &gate)
            })
            // panic-ok: construction-time only — failing to spawn the
            // collector thread means the scheduler cannot exist; no
            // in-flight request is lost.
            .expect("spawn batch-collector thread");
        Self {
            engine,
            queue,
            collector: Some(collector),
            metrics,
            gate,
            cfg,
        }
    }

    /// Convenience constructor with [`BatchConfig::default`] knobs.
    pub fn with_defaults(engine: Arc<ServingEngine>) -> Self {
        Self::new(engine, BatchConfig::default())
    }

    /// Submit one request. A request of at most 16 rows that finds the
    /// scheduler empty runs its forward pass on the calling thread, and
    /// the returned handle is ready at once; any other request is
    /// enqueued, and this returns without blocking for its result.
    ///
    /// Fails fast with [`ServeError::QueueFull`] when the bounded queue
    /// is at capacity, and pre-screens the covariate width against the
    /// current engine, and every covariate for a NaN or ±∞, so an
    /// obviously malformed request never poisons a batch slot. (The width
    /// screen is best-effort — the authoritative check happens inside the
    /// forward pass against the batch's pinned version.)
    pub fn submit(&self, x: Matrix) -> Result<ResponseHandle, ServeError> {
        self.submit_traced(x, None)
    }

    /// [`BatchScheduler::submit`] with a sampled observability span
    /// threaded through the batch pipeline: the pass stamps the
    /// queue-wait, batching, and inference stages on `trace`, and the
    /// returned handle stamps the gather stage when it settles. `None`
    /// is exactly `submit` (the unsampled hot path pays nothing).
    pub fn submit_traced(
        &self,
        x: Matrix,
        trace: Option<TraceSpan>,
    ) -> Result<ResponseHandle, ServeError> {
        let submitted = Instant::now();
        if x.rows() == 0 {
            let e = ServeError::Engine(CerlError::EmptyInput {
                what: "request matrix has no rows",
            });
            self.metrics.record_rejection(&e);
            return Err(e);
        }
        if let Some(expected) = self.engine.current().engine().covariate_dim() {
            if x.cols() != expected {
                let e = ServeError::Engine(CerlError::DimensionMismatch {
                    expected,
                    found: x.cols(),
                });
                self.metrics.record_rejection(&e);
                return Err(e);
            }
        }
        // A batch fails as a whole on one member's error, so a row the
        // engine would refuse is refused here, before it can join one.
        if let Some(row) = (0..x.rows()).find(|&i| x.row(i).iter().any(|v| !v.is_finite())) {
            let e = ServeError::Engine(CerlError::NonFiniteInput { field: "x", row });
            self.metrics.record_rejection(&e);
            return Err(e);
        }
        let slot = ReplySlot::new();
        let pending = PendingRequest {
            x,
            enqueued: submitted,
            slot: Arc::clone(&slot),
            trace: trace.clone(),
        };
        if pending.x.rows() <= INLINE_MAX_ROWS && self.gate.claim_idle() {
            self.serve_inline(pending);
        } else {
            self.gate.enter();
            if let Err(e) = self.queue.try_send(pending) {
                self.gate.release(1);
                let err = match e {
                    TrySendError::Full(_) => ServeError::QueueFull {
                        capacity: self.cfg.queue_capacity,
                    },
                    TrySendError::Disconnected(_) => ServeError::SchedulerShutdown,
                };
                self.metrics.record_rejection(&err);
                return Err(err);
            }
        }
        Ok(ResponseHandle {
            slot,
            submitted,
            metrics: Arc::clone(&self.metrics),
            done: false,
            trace,
        })
    }

    /// Run one request's pass on this thread, after `claim_idle`
    /// succeeded. A panic in the pass stays here: unwinding drops the
    /// request, which answers its handle with
    /// [`ServeError::SchedulerShutdown`] as on the collector path.
    fn serve_inline(&self, pending: PendingRequest) {
        let _ = panic::catch_unwind(AssertUnwindSafe(move || {
            let _pass = self
                .gate
                .pass
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            serve_batch(&self.engine, &[pending], &self.cfg, &self.metrics);
        }));
        self.gate.release(1);
    }

    /// Predicted ITEs for one request, served through the batch path
    /// (blocks while the batches ahead of it run, then for its own
    /// batch: at most `max_wait` plus its forward pass, and no wait at
    /// all when it reaches an idle scheduler alone).
    pub fn predict_ite(&self, x: &Matrix) -> Result<Vec<f64>, ServeError> {
        Ok(self.predict_ite_versioned(x)?.1)
    }

    /// Like [`BatchScheduler::predict_ite`], also reporting the engine
    /// version whose batch served this request.
    pub fn predict_ite_versioned(&self, x: &Matrix) -> Result<(u64, Vec<f64>), ServeError> {
        self.submit(x.clone())?.wait()
    }

    /// The engine this scheduler batches onto (hot-swappable underneath —
    /// in-flight batches keep their pinned version).
    pub fn engine(&self) -> &Arc<ServingEngine> {
        &self.engine
    }

    /// Precision of the engine version currently being batched onto.
    /// Advisory: a swap can land between this call and a subsequent
    /// submit; in-flight batches always report the version (and hence
    /// mode) that actually served them via
    /// [`BatchScheduler::predict_ite_versioned`].
    pub fn precision(&self) -> cerl_core::precision::PrecisionMode {
        self.engine.precision()
    }

    /// The knobs this scheduler runs with (normalized).
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// Serve-path statistics accumulated since construction.
    pub fn stats(&self) -> ServeStats {
        self.metrics.snapshot()
    }

    /// Write this scheduler's counters and latency histograms into a
    /// [`MetricsRegistry`] under the `cerl_serve` prefix, plus the
    /// engine's live-version gauge — the scrape-time path behind the
    /// admin `Metrics` frame.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.metrics.export_metrics("cerl_serve", reg);
        reg.gauge(
            "cerl_core_live_versions",
            "Engine versions alive: published plus pinned superseded.",
            &[],
            self.engine.live_version_count() as f64,
        );
    }
}

impl Drop for BatchScheduler {
    fn drop(&mut self) {
        // Disconnect the queue so the collector drains what is in flight
        // and exits, then join it: no request that got an Ok from
        // `submit` before the drop is abandoned mid-batch.
        let (disconnected, _) = mpsc::sync_channel(1);
        drop(std::mem::replace(&mut self.queue, disconnected));
        if let Some(collector) = self.collector.take() {
            let _ = collector.join();
        }
    }
}

/// Collector thread body: open a batch on the first queued request
/// (after any inline pass in progress) and top it up with what is
/// already queued. Alone, it runs at once; with
/// company, it keeps taking arrivals for as long as the last pass took,
/// within `max_wait` of opening. Either way it closes at
/// `max_batch_rows`. Then execute, demux, repeat. Exits when every
/// [`BatchScheduler`] queue handle is gone.
fn collector_loop(
    engine: &ServingEngine,
    rx: &Receiver<PendingRequest>,
    cfg: &BatchConfig,
    metrics: &ServeMetrics,
    gate: &PassGate,
) {
    let mut last_pass = Duration::ZERO;
    loop {
        // Block for the batch-opening request.
        let first = match rx.recv() {
            Ok(first) => first,
            Err(_) => return,
        };
        // Wait out an inline pass that may be running, so what queues
        // behind it joins this batch. No later inline pass can start
        // while the batch is counted in the gate.
        drop(gate.pass.lock().unwrap_or_else(PoisonError::into_inner));
        let opened = Instant::now();
        let deadline = opened + cfg.max_wait;
        let wait_until = opened + cfg.max_wait.min(last_pass);
        let mut batch = vec![first];
        let mut rows = batch[0].x.rows(); // panic-ok: batch was just built with one element
        while rows < cfg.max_batch_rows {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let next = match rx.try_recv() {
                Ok(next) => next,
                // Drained with company: the scheduler is under concurrent
                // load, so the batch keeps taking arrivals for as long as
                // the last pass took, within max_wait.
                Err(TryRecvError::Empty) if batch.len() > 1 && now < wait_until => {
                    match rx.recv_timeout(wait_until - now) {
                        Ok(next) => next,
                        Err(_) => break,
                    }
                }
                // Drained alone (a lone request runs at once), or the
                // wait is over.
                Err(TryRecvError::Empty) => break,
                // Scheduler dropped mid-drain: serve what we have (the
                // next outer recv() will observe the disconnect and exit).
                Err(TryRecvError::Disconnected) => break,
            };
            rows += next.x.rows();
            batch.push(next);
        }
        let pass = Instant::now();
        serve_batch(engine, &batch, cfg, metrics);
        last_pass = pass.elapsed();
        gate.release(batch.len());
    }
}

/// Execute one closed batch: coalesce rows per covariate width, run one
/// pinned-version forward pass per width group, slice results back to
/// their requests.
fn serve_batch(
    engine: &ServingEngine,
    batch: &[PendingRequest],
    cfg: &BatchConfig,
    metrics: &ServeMetrics,
) {
    let exec_start = Instant::now();
    for request in batch {
        metrics.record_queue_wait(exec_start.saturating_duration_since(request.enqueued));
        if let Some(trace) = &request.trace {
            trace.stamp(Stage::QueueWait);
        }
    }

    // Group by covariate width: the submit-time screen is best-effort
    // (the engine may be untrained, or hot-swapped since), and rows of
    // different widths cannot share a matrix. In the healthy steady
    // state there is exactly one group.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, request) in batch.iter().enumerate() {
        let cols = request.x.cols();
        match groups.iter_mut().find(|(c, _)| *c == cols) {
            Some((_, members)) => members.push(i),
            None => groups.push((cols, vec![i])),
        }
    }

    for (cols, members) in groups {
        // panic-ok: every i in `members` indexes into this same `batch`
        // (the grouping loop above produced them).
        let total_rows: usize = members.iter().map(|&i| batch[i].x.rows()).sum();
        let coalesced_owned;
        let coalesced: &Matrix = if members.len() == 1 {
            // panic-ok: members is non-empty and indexes `batch`.
            &batch[members[0]].x
        } else {
            let mut data = Vec::with_capacity(total_rows * cols);
            for &i in &members {
                // panic-ok: members indexes `batch` (see above).
                data.extend_from_slice(batch[i].x.as_slice());
            }
            coalesced_owned = Matrix::from_vec(total_rows, cols, data);
            &coalesced_owned
        };
        metrics.record_batch(members.len() as u64, total_rows as u64);
        for &i in &members {
            // panic-ok: members indexes `batch` (see above).
            if let Some(trace) = &batch[i].trace {
                trace.stamp(Stage::Batched);
            }
        }
        let outcome = engine.predict_ite_parallel_versioned(coalesced, cfg.worker_threads);
        for &i in &members {
            // panic-ok: members indexes `batch` (see above).
            if let Some(trace) = &batch[i].trace {
                trace.stamp(Stage::Inference);
            }
        }
        match outcome {
            Ok((version, ite)) => {
                let mut offset = 0;
                for &i in &members {
                    // panic-ok: members indexes `batch`, and `ite` holds
                    // exactly total_rows == sum of member rows entries,
                    // so every [offset, offset + n) window is in range.
                    let n = batch[i].x.rows();
                    // panic-ok: ite holds sum-of-member-rows entries, so
                    // every [offset, offset + n) window is in range.
                    let slice = ite[offset..offset + n].to_vec();
                    offset += n;
                    // A dropped ResponseHandle just discards its slice.
                    // panic-ok: members indexes `batch` (see above).
                    batch[i].slot.fulfill(Ok((version, slice)));
                }
            }
            Err(e) => {
                for &i in &members {
                    // panic-ok: members indexes `batch` (see above).
                    batch[i].slot.fulfill(Err(ServeError::Engine(e.clone())));
                }
            }
        }
    }
}

// Compile-time proof the scheduler may be shared across request threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BatchScheduler>();
    assert_send_sync::<ServeMetrics>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use cerl_core::config::CerlConfig;
    use cerl_core::engine::CerlEngineBuilder;
    use cerl_data::{DomainStream, SyntheticConfig, SyntheticGenerator};

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
            61,
        );
        DomainStream::synthetic(&gen, domains, 0, 61)
    }

    fn trained_serving(stream: &DomainStream, stages: usize) -> Arc<ServingEngine> {
        let mut engine = CerlEngineBuilder::new(quick_cfg()).seed(8).build().unwrap();
        for d in 0..stages {
            engine
                .observe(&stream.domain(d).train, &stream.domain(d).val)
                .unwrap();
        }
        Arc::new(ServingEngine::new(engine))
    }

    #[test]
    fn batched_results_match_unbatched_bitwise() {
        let stream = quick_stream(1);
        let serving = trained_serving(&stream, 1);
        let scheduler = BatchScheduler::new(
            Arc::clone(&serving),
            BatchConfig {
                max_wait: Duration::from_millis(20),
                ..BatchConfig::default()
            },
        );
        let x = &stream.domain(0).test.x;

        // Submitted back to back from one thread, each small slice finds
        // the scheduler empty and runs inline; the park tests below cover
        // queued requests coalescing.
        let slices: Vec<Matrix> = (0..8).map(|i| x.slice_rows(i * 4, i * 4 + 4)).collect();
        let handles: Vec<ResponseHandle> = slices
            .iter()
            .map(|s| scheduler.submit(s.clone()).unwrap())
            .collect();
        for (slice, handle) in slices.iter().zip(handles) {
            let (version, batched) = handle.wait().unwrap();
            assert_eq!(version, 1);
            let reference = serving.predict_ite(slice).unwrap();
            assert_eq!(batched.len(), reference.len());
            for (a, b) in batched.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        let stats = scheduler.stats();
        assert_eq!(stats.requests, 8);
        assert_eq!(stats.rejected, 0);
        assert!(stats.batches >= 1);
        assert_eq!(stats.batched_requests, 8);
        assert_eq!(stats.batched_rows, 32);
        assert_eq!(stats.mean_requests_per_batch(), 8.0 / stats.batches as f64);
        assert_eq!(stats.per_version_requests, vec![(1, 8)]);
        assert_eq!(stats.queue_wait.count, 8);
        assert_eq!(stats.end_to_end.count, 8);
        assert!(stats.end_to_end.p99 >= stats.queue_wait.p50);
    }

    #[test]
    fn f32_version_batches_bitwise_identically_to_unbatched() {
        use cerl_core::engine::CerlEngine;
        use cerl_core::precision::PrecisionMode;
        use cerl_core::snapshot::SnapshotPayload;
        let stream = quick_stream(1);
        let serving = trained_serving(&stream, 1);
        let bytes = serving
            .current()
            .engine()
            .save_bytes_binary(SnapshotPayload::F64)
            .unwrap();
        let mut narrow = CerlEngine::load_bytes(&bytes).unwrap();
        narrow.set_precision(PrecisionMode::F32).unwrap();
        serving.publish(narrow).unwrap();
        let scheduler = BatchScheduler::new(
            Arc::clone(&serving),
            BatchConfig {
                max_wait: Duration::from_millis(2),
                ..BatchConfig::default()
            },
        );
        assert_eq!(scheduler.precision(), PrecisionMode::F32);
        let x = stream.domain(0).test.x.slice_rows(0, 6);
        let (version, batched) = scheduler.predict_ite_versioned(&x).unwrap();
        assert_eq!(version, 2);
        // Per-mode contract at the scheduler layer: the batch path must
        // agree bitwise with the unbatched f32 call.
        let unbatched = serving.predict_ite(&x).unwrap();
        assert_eq!(batched.len(), unbatched.len());
        for (a, b) in batched.iter().zip(&unbatched) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn lone_request_is_not_held_for_max_wait() {
        let stream = quick_stream(1);
        let serving = trained_serving(&stream, 1);
        let scheduler = BatchScheduler::new(
            Arc::clone(&serving),
            BatchConfig {
                max_batch_rows: usize::MAX, // never close on rows
                max_wait: Duration::from_secs(60),
                ..BatchConfig::default()
            },
        );
        // Past the inline bound, so the collector serves it.
        let x = stream.domain(0).test.x.slice_rows(0, INLINE_MAX_ROWS + 1);
        let t0 = Instant::now();
        let ite = scheduler.predict_ite(&x).unwrap();
        // The queue is drained after the lone request, so its batch runs
        // at once: the bound is one small forward pass plus scheduling
        // noise on a loaded 1-CPU runner, far below the 60 s cap.
        assert!(t0.elapsed() < Duration::from_secs(10));
        assert_eq!(ite, serving.predict_ite(&x).unwrap());
    }

    #[test]
    fn a_lone_small_request_on_an_idle_scheduler_runs_inline() {
        let stream = quick_stream(1);
        let serving = trained_serving(&stream, 1);
        let scheduler = BatchScheduler::with_defaults(Arc::clone(&serving));
        let x = stream.domain(0).test.x.slice_rows(0, INLINE_MAX_ROWS);
        let mut handle = scheduler.submit(x.clone()).unwrap();
        // Served before submit returned: ready on the first poll, with a
        // waker that could never have woken anyone.
        let mut cx = Context::from_waker(Waker::noop());
        let Poll::Ready(outcome) = Pin::new(&mut handle).poll(&mut cx) else {
            panic!("an inline request must be ready on its first poll");
        };
        let (version, ite) = outcome.unwrap();
        assert_eq!(version, 1);
        assert_eq!(ite, serving.predict_ite(&x).unwrap());
        let stats = scheduler.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.max_batch_requests, 1);
        assert_eq!(stats.batched_rows, INLINE_MAX_ROWS as u64);
        assert_eq!(stats.queue_wait.count, 1);
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn a_request_past_the_inline_bound_goes_to_the_collector() {
        let stream = quick_stream(1);
        let serving = trained_serving(&stream, 1);
        let scheduler = BatchScheduler::with_defaults(Arc::clone(&serving));
        let x = stream.domain(0).test.x.slice_rows(0, INLINE_MAX_ROWS + 1);
        // Hold the pass lock: the collector takes it before every batch,
        // so nothing can serve the request until it is released. An
        // inline pass would block here instead of returning.
        let pass = scheduler.gate.pass.lock().unwrap();
        let mut handle = scheduler.submit(x.clone()).unwrap();
        let mut cx = Context::from_waker(Waker::noop());
        assert!(Pin::new(&mut handle).poll(&mut cx).is_pending());
        drop(pass);
        let (version, ite) = handle.wait().unwrap();
        assert_eq!(version, 1);
        assert_eq!(ite, serving.predict_ite(&x).unwrap());
        assert_eq!(scheduler.stats().batches, 1);
    }

    #[test]
    fn requests_arriving_during_an_inline_pass_queue_and_coalesce() {
        let stream = quick_stream(1);
        let serving = trained_serving(&stream, 1);
        let scheduler = BatchScheduler::with_defaults(Arc::clone(&serving));
        let x = &stream.domain(0).test.x;
        // The state an inline pass holds while it runs: the gate claimed
        // and the pass lock taken.
        assert!(scheduler.gate.claim_idle());
        let pass = scheduler.gate.pass.lock().unwrap();
        let slices: Vec<Matrix> = (0..3).map(|i| x.slice_rows(i * 2, i * 2 + 2)).collect();
        let handles: Vec<ResponseHandle> = slices
            .iter()
            .map(|s| scheduler.submit(s.clone()).unwrap())
            .collect();
        // The pass ends; the collector, held at the lock since the first
        // arrival, drains all three into one batch.
        drop(pass);
        scheduler.gate.release(1);
        for (slice, handle) in slices.iter().zip(handles) {
            assert_eq!(
                handle.wait().unwrap().1,
                serving.predict_ite(slice).unwrap()
            );
        }
        let stats = scheduler.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.max_batch_requests, 3);
        // Handles are answered inside the pass and the gate released
        // after it; once released, the next lone request runs inline.
        while scheduler.gate.outstanding.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
        let mut handle = scheduler.submit(slices[0].clone()).unwrap();
        let mut cx = Context::from_waker(Waker::noop());
        assert!(Pin::new(&mut handle).poll(&mut cx).is_ready());
    }

    /// Park the collector inside one large forward pass (it records the
    /// batch before running it), so whatever is submitted next is
    /// queued in full before the collector can drain it.
    fn park_collector(scheduler: &BatchScheduler, base: &Matrix) -> ResponseHandle {
        let idx: Vec<usize> = (0..30_000).map(|i| i % base.rows()).collect();
        let big = scheduler.submit(base.select_rows(&idx)).unwrap();
        while scheduler.stats().batches == 0 {
            std::thread::yield_now();
        }
        big
    }

    #[test]
    fn requests_queued_during_a_pass_run_as_one_batch() {
        let stream = quick_stream(1);
        let serving = trained_serving(&stream, 1);
        let scheduler = BatchScheduler::new(
            Arc::clone(&serving),
            BatchConfig {
                max_wait: Duration::from_millis(50),
                ..BatchConfig::default()
            },
        );
        let x = &stream.domain(0).test.x;
        let big = park_collector(&scheduler, x);
        let slices: Vec<Matrix> = (0..8).map(|i| x.slice_rows(i * 2, i * 2 + 2)).collect();
        let handles: Vec<ResponseHandle> = slices
            .iter()
            .map(|s| scheduler.submit(s.clone()).unwrap())
            .collect();
        assert!(big.wait().is_ok());
        for (slice, handle) in slices.iter().zip(handles) {
            let (version, batched) = handle.wait().unwrap();
            assert_eq!(version, 1);
            let reference = serving.predict_ite(slice).unwrap();
            assert_eq!(batched.len(), reference.len());
            for (a, b) in batched.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // The backlog the pass left behind was queued in full before the
        // drain, so it is one batch.
        let stats = scheduler.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.max_batch_requests, 8);
        assert_eq!(stats.batched_rows, 30_000 + 16);
    }

    #[test]
    fn a_batch_with_company_keeps_taking_arrivals() {
        let stream = quick_stream(1);
        let serving = trained_serving(&stream, 1);
        let scheduler = BatchScheduler::new(
            Arc::clone(&serving),
            BatchConfig {
                max_batch_rows: 6,
                max_wait: Duration::from_secs(60),
                worker_threads: 1, // a longer pass, so a wider wait
                ..BatchConfig::default()
            },
        );
        let x = &stream.domain(0).test.x;
        let t0 = Instant::now();
        let big = park_collector(&scheduler, x);
        let mut handles: Vec<ResponseHandle> = (0..2)
            .map(|i| scheduler.submit(x.slice_rows(i * 2, i * 2 + 2)).unwrap())
            .collect();
        assert!(big.wait().is_ok());
        // The two queued requests open a batch with company as the big
        // pass ends, and it waits for arrivals about as long as that pass
        // took. Submitted an eighth of that later, this one joins it and
        // its 2 rows reach the bound.
        std::thread::sleep(t0.elapsed() / 8);
        handles.push(scheduler.submit(x.slice_rows(4, 6)).unwrap());
        for handle in handles {
            assert_eq!(handle.wait().unwrap().1.len(), 2);
        }
        let stats = scheduler.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.max_batch_requests, 3);
        assert_eq!(stats.batched_rows, 30_000 + 6);
    }

    #[test]
    fn row_bound_splits_a_drained_backlog() {
        let stream = quick_stream(1);
        let serving = trained_serving(&stream, 1);
        let scheduler = BatchScheduler::new(
            Arc::clone(&serving),
            BatchConfig {
                max_batch_rows: 8,
                max_wait: Duration::from_secs(60),
                ..BatchConfig::default()
            },
        );
        let x = &stream.domain(0).test.x;
        let big = park_collector(&scheduler, x);
        let handles: Vec<ResponseHandle> = (0..3)
            .map(|i| scheduler.submit(x.slice_rows(i * 4, i * 4 + 4)).unwrap())
            .collect();
        assert!(big.wait().is_ok());
        for handle in handles {
            assert_eq!(handle.wait().unwrap().1.len(), 4);
        }
        // 4 + 4 rows reach the bound; the third request runs on its own.
        let stats = scheduler.stats();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.batched_rows, 30_000 + 8 + 4);
        assert_eq!(stats.max_batch_requests, 2);
    }

    #[test]
    fn malformed_requests_are_rejected_not_batched() {
        let stream = quick_stream(1);
        let serving = trained_serving(&stream, 1);
        let scheduler = BatchScheduler::with_defaults(Arc::clone(&serving));
        let x = &stream.domain(0).test.x;

        let wrong_width = Matrix::zeros(2, x.cols() + 1);
        assert!(matches!(
            scheduler.predict_ite(&wrong_width),
            Err(ServeError::Engine(CerlError::DimensionMismatch { .. }))
        ));
        let empty = Matrix::zeros(0, x.cols());
        assert!(matches!(
            scheduler.predict_ite(&empty),
            Err(ServeError::Engine(CerlError::EmptyInput { .. }))
        ));
        let stats = scheduler.stats();
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.batches, 0);
        // Submit-time rejections never enter a batch, so they must not
        // leak into the coalescing-shape accounting.
        assert_eq!(stats.batched_requests, 0);
        assert_eq!(stats.mean_requests_per_batch(), 0.0);
    }

    #[test]
    fn untrained_engine_errors_flow_back_per_request() {
        let untrained = Arc::new(ServingEngine::new(
            CerlEngineBuilder::new(quick_cfg()).build().unwrap(),
        ));
        let scheduler = BatchScheduler::new(
            untrained,
            BatchConfig {
                max_wait: Duration::from_millis(1),
                ..BatchConfig::default()
            },
        );
        // Width screening cannot run (no covariate dim yet); the batch
        // itself fails and each request receives the typed error.
        let a = scheduler.submit(Matrix::zeros(2, 5)).unwrap();
        let b = scheduler.submit(Matrix::zeros(2, 7)).unwrap();
        assert!(matches!(
            a.wait(),
            Err(ServeError::Engine(CerlError::NotTrained))
        ));
        assert!(matches!(
            b.wait(),
            Err(ServeError::Engine(CerlError::NotTrained))
        ));
        assert_eq!(scheduler.stats().rejected, 2);
    }

    #[test]
    fn full_queue_sheds_load_with_a_typed_error() {
        let stream = quick_stream(1);
        let serving = trained_serving(&stream, 1);
        // Queue capacity 1, batches close immediately: the queue can only
        // back up while the collector is inside a forward pass, so park it
        // there with one large request and probe the full queue.
        let scheduler = BatchScheduler::new(
            Arc::clone(&serving),
            BatchConfig {
                max_batch_rows: 1,
                max_wait: Duration::ZERO,
                queue_capacity: 1,
                ..BatchConfig::default()
            },
        );
        let big = park_collector(&scheduler, &stream.domain(0).test.x);
        let small = stream.domain(0).test.x.slice_rows(0, 2);
        let parked = scheduler.submit(small.clone()).unwrap();
        let rejected = scheduler.submit(small.clone());
        assert!(matches!(
            rejected,
            Err(ServeError::QueueFull { capacity: 1 })
        ));
        // Queued and in-flight requests still complete.
        assert!(big.wait().is_ok());
        assert!(parked.wait().is_ok());
        let stats = scheduler.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn response_handle_resolves_as_a_future_through_the_stored_waker() {
        use std::sync::atomic::AtomicBool;
        use std::task::Wake;

        /// Waker that flags readiness and unparks the polling thread —
        /// the same shape a socket reactor uses (flag a token, kick the
        /// event loop awake).
        struct Unparker {
            woken: AtomicBool,
            thread: std::thread::Thread,
        }
        impl Wake for Unparker {
            fn wake(self: Arc<Self>) {
                self.woken.store(true, Ordering::Release);
                self.thread.unpark();
            }
        }

        let stream = quick_stream(1);
        let serving = trained_serving(&stream, 1);
        let scheduler = BatchScheduler::new(
            Arc::clone(&serving),
            BatchConfig {
                max_wait: Duration::from_millis(10),
                ..BatchConfig::default()
            },
        );
        // Past the inline bound, so the collector fulfils it and fires
        // the waker.
        let x = stream.domain(0).test.x.slice_rows(0, INLINE_MAX_ROWS + 1);
        let mut handle = scheduler.submit(x.clone()).unwrap();

        let unparker = Arc::new(Unparker {
            woken: AtomicBool::new(false),
            thread: std::thread::current(),
        });
        let waker = Waker::from(Arc::clone(&unparker));
        let mut cx = Context::from_waker(&waker);
        let deadline = Instant::now() + Duration::from_secs(30);
        let (version, ite) = loop {
            match Pin::new(&mut handle).poll(&mut cx) {
                Poll::Ready(outcome) => break outcome.unwrap(),
                Poll::Pending => {
                    // Sleep until the collector fulfills the slot and the
                    // stored waker unparks us — no busy spin.
                    while !unparker.woken.swap(false, Ordering::Acquire) {
                        assert!(Instant::now() < deadline, "waker never fired");
                        std::thread::park_timeout(Duration::from_millis(50));
                    }
                }
            }
        };
        assert_eq!(version, 1);
        assert_eq!(ite, serving.predict_ite(&x).unwrap());
        let stats = scheduler.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.rejected_client, 0);
    }

    #[test]
    fn drop_drains_in_flight_requests_then_stops() {
        let stream = quick_stream(1);
        let serving = trained_serving(&stream, 1);
        let scheduler = BatchScheduler::new(
            Arc::clone(&serving),
            BatchConfig {
                max_wait: Duration::from_millis(200),
                ..BatchConfig::default()
            },
        );
        // Past the inline bound, so it goes through the queue the drop
        // disconnects.
        let x = stream.domain(0).test.x.slice_rows(0, INLINE_MAX_ROWS + 1);
        let handle = scheduler.submit(x.clone()).unwrap();
        drop(scheduler); // disconnects the queue; collector drains first
        let (version, ite) = handle.wait().unwrap();
        assert_eq!(version, 1);
        assert_eq!(ite, serving.predict_ite(&x).unwrap());
    }
}
