//! Single-threaded epoll reactor serving the wire protocol.
//!
//! # Architecture
//!
//! One reactor thread owns every socket. It multiplexes with `epoll`
//! (via the crate-private `sys` syscall shims) over five token
//! classes: the self-pipe (token 0, woken by task wakers and
//! `shutdown`), the serve listener (token 1), the optional admin
//! listener (token 2, see below), the UDP health socket (token 3),
//! and one token per connection. Decoded requests are submitted to the
//! backend ([`BatchScheduler::submit`] or
//! [`ShardRouter::submit_scatter`]) and the returned handles are polled
//! as genuine `Future`s: each connection owns a [`Waker`] that pushes
//! its token onto a ready queue and pokes the self-pipe, so one thread
//! keeps thousands of in-flight requests moving with no blocking `recv`
//! anywhere. The only forward passes the reactor runs itself are
//! scheduler inline passes: a request (or a scatter's per-shard
//! sub-batch) of at most 16 rows that finds its scheduler empty is
//! served inside `submit`, and the reactor's immediate poll of the new
//! future writes its response in the same turn, with no waker and no
//! self-pipe write. Larger requests, and any request that finds work
//! queued, go to the backend's threads.
//!
//! # Response order
//!
//! The reactor keeps each connection's in-flight requests in
//! submission order and writes completions in that order as it finds
//! them. A scheduler backend therefore answers a connection in
//! submission order: its completions are FIFO, and its inline pass runs
//! only when nothing is queued, so it never overtakes a queued request.
//! A router backend may answer in completion order, since a request's
//! shards can finish in any order relative to another request's.
//! Deadline sheds and wire-fault errors are written as soon as they
//! happen, ahead of earlier requests still in flight.
//!
//! # Flow control
//!
//! Per connection, three mechanisms compose so one bad client cannot
//! starve the rest:
//!
//! * **Bounded in-flight** — at most
//!   [`NetServerConfig::max_inflight_per_conn`] requests per connection are
//!   submitted to the backend at once, with at most that many more
//!   decoded and waiting for a slot (their admission-deadline clock
//!   running); further frames stay buffered (and eventually unread)
//!   until responses drain.
//! * **Write backpressure** — when a slow reader lets its response
//!   backlog grow past [`NetServerConfig::write_high_water`], the reactor
//!   stops *reading* that socket (drops `EPOLLIN` interest) until the
//!   backlog drains below the mark; TCP then pushes back on the
//!   client's sends.
//! * **Round-robin fairness** — each reactor turn parses at most
//!   [`NetServerConfig::frames_per_turn`] frames per connection, cycling
//!   through connections from a rotating cursor, so a bursty pipeliner
//!   shares the decode budget with everyone else.
//!
//! Requests carry an optional deadline. It is an **admission**
//! deadline: checked after decode and immediately before backend
//! submission. A request that waited out its budget behind the
//! in-flight cap is shed with a typed [`Status::Deadline`] response
//! *before* any work reaches the inference pool; once admitted, a
//! request runs to completion and its (possibly late) response is
//! still correct and bitwise-deterministic.
//!
//! # Observability
//!
//! The same reactor serves an **admin plane** beside the data plane:
//!
//! * [`NetServerConfig::admin_bind`] opens a second TCP listener that
//!   speaks admin frames only ([`AdminOp::Metrics`] returns the
//!   unified Prometheus-style exposition assembled at scrape time from
//!   the reactor counters, per-connection counters, the backend's
//!   serving metrics, and the trace ring; [`AdminOp::Health`] returns
//!   the one-line health probe; [`AdminOp::TraceDump`] returns
//!   recently completed spans and orchestration events). Predict
//!   frames on the admin port — and admin frames on the serve port —
//!   are rejected as malformed before any work is done.
//! * A **UDP health socket** bound to the serve listener's own
//!   address answers any datagram with `ok:<versions>:<inflight>`, so
//!   a load balancer can probe liveness without a TCP handshake or a
//!   wire-protocol implementation.
//! * With [`NetServerConfig::trace`] set, 1-in-N requests get an
//!   end-to-end span stamped at every pipeline stage (accepted →
//!   decoded → admission-wait → submitted → queue-wait → batched →
//!   inference → gathered → written). Stamping is wait-free and
//!   allocation-free; abandoned requests (connection close, protocol
//!   fault) still retire their span via a drop guard, so the ring
//!   never leaks live slots.
//! * The response frame carries no version bytes — the wire format is
//!   frozen — so **per-replica attribution** lives server-side: every
//!   completed prediction increments a wait-free `(shard, engine
//!   version)` counter, visible as
//!   [`NetStatsSnapshot::replica_served`] and scraped as
//!   `cerl_net_replica_responses_total{shard,version}`. When a domain
//!   is served by a replica set, this is how a canary replica's share
//!   of the answered traffic is read without changing the protocol.
//!
//! # One-CPU caveat
//!
//! The reactor is one thread and inference runs on the backend's
//! threads, apart from inline passes of at most 16 rows on the reactor
//! itself. On a single-CPU host they time-share: the reactor's latency
//! numbers include scheduler preemption by inference work, so p99s
//! measured there describe the machine, not the design. The
//! stress tests therefore assert on *correctness* counters (zero
//! serve faults, bitwise-identical payloads), not on wall-clock.

use crate::sys::{
    self, Epoll, EpollEvent, WakePipe, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::wire::{
    self, AdminOp, AdminRequest, AdminResponse, Request, Response, Status, WireError,
};
use cerl_math::Matrix;
use cerl_obs::{MetricsRegistry, Stage, TraceRing, TraceSpan};
use cerl_serve::{BatchScheduler, ResponseHandle, ScatterHandle, ServeError, ShardRouter};
use std::collections::VecDeque;
use std::future::Future;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs, UdpSocket};
use std::os::unix::io::AsRawFd;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token of the self-pipe's read end in the epoll set.
const TOKEN_WAKE: u64 = 0;
/// Token of the serve listening socket.
const TOKEN_LISTENER: u64 = 1;
/// Token of the optional admin listening socket.
const TOKEN_ADMIN_LISTENER: u64 = 2;
/// Token of the UDP health-probe socket.
const TOKEN_UDP: u64 = 3;
/// First connection token; connection `i` uses token `i + TOKEN_CONN0`.
const TOKEN_CONN0: u64 = 4;

/// What the reactor submits requests to.
pub enum NetBackend {
    /// Single-engine micro-batching: domain tags are ignored, and a
    /// request coalesces into the scheduler's next batch (or, when it
    /// is small and the scheduler empty, runs inline in `submit`).
    Scheduler(Arc<BatchScheduler>),
    /// Shard-per-domain fleet: per-row tags scatter across shards and
    /// gather (`submit_scatter`), so one socket request may fan out to
    /// several engines and still return rows in request order.
    Router(Arc<ShardRouter>),
}

impl NetBackend {
    fn submit(
        &self,
        request: Request,
        trace: Option<TraceSpan>,
    ) -> Result<InflightFuture, ServeError> {
        let rows = request.rows();
        let x = Matrix::from_vec(rows, request.cols as usize, request.covariates);
        match self {
            NetBackend::Scheduler(scheduler) => scheduler
                .submit_traced(x, trace)
                .map(InflightFuture::Single),
            NetBackend::Router(router) => router
                .submit_scatter_traced(&request.tags, &x, trace)
                .map(InflightFuture::Scatter),
        }
    }

    /// Engine versions still live behind this backend (published plus
    /// request-pinned) — the `<versions>` field of the health probe.
    fn live_version_count(&self) -> usize {
        match self {
            NetBackend::Scheduler(scheduler) => scheduler.engine().live_version_count(),
            NetBackend::Router(router) => router.live_version_count(),
        }
    }

    /// Export the backend's serving metrics into `reg` (scrape time
    /// only — never on the request path).
    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        match self {
            NetBackend::Scheduler(scheduler) => scheduler.export_metrics(reg),
            NetBackend::Router(router) => router.export_metrics(reg),
        }
    }
}

/// A submitted request's future, unified across backends.
enum InflightFuture {
    Single(ResponseHandle),
    Scatter(ScatterHandle),
}

/// A completed prediction plus its replica attribution. The wire
/// response carries only the rows, so which engine answered rides
/// beside the payload into the reactor's counters instead of onto the
/// socket.
struct Served {
    ite: Vec<f64>,
    /// `(shard, engine version)` for every replica that served part of
    /// this response: one entry per participating shard for a scatter,
    /// a single shard-0 entry for the scheduler backend (one engine,
    /// seat 0 by convention).
    replicas: Vec<(usize, u64)>,
}

impl InflightFuture {
    fn poll(&mut self, cx: &mut Context<'_>) -> Poll<Result<Served, ServeError>> {
        match self {
            InflightFuture::Single(handle) => Pin::new(handle).poll(cx).map(|r| {
                r.map(|(version, ite)| Served {
                    ite,
                    replicas: vec![(0, version)],
                })
            }),
            InflightFuture::Scatter(handle) => Pin::new(handle).poll(cx).map(|r| {
                r.map(|response| Served {
                    ite: response.ite,
                    replicas: response.shard_versions,
                })
            }),
        }
    }
}

/// Distinct `(shard, engine version)` pairs tracked individually; later
/// pairs share the overflow slot. A power of two so the probe step is a
/// single mask.
const REPLICA_SLOTS: usize = 64;

/// Responses attributed to one serving replica's engine version
/// ([`NetStatsSnapshot::replica_served`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaServed {
    /// `(shard, engine version)`, or `None` for the shared overflow
    /// slot (more lifetime pairs than the table tracks individually).
    pub replica: Option<(usize, u64)>,
    /// Completed predictions this replica served — a scatter response
    /// counts once per replica that served one of its sub-batches.
    pub responses: u64,
}

/// Wait-free `(shard, engine version)` → response counters, the
/// server-side half of replica attribution (the wire stays
/// version-free). Same design as the serving tier's per-domain
/// counters: a pair claims a slot with one CAS the first time it is
/// seen and increments a plain counter ever after; when the table is
/// full, further new pairs accumulate in a shared overflow slot.
struct ReplicaCounters {
    /// Slot owner as the packed pair (see [`ReplicaCounters::pack`]);
    /// `0` means the slot is free.
    keys: [AtomicU64; REPLICA_SLOTS],
    responses: [AtomicU64; REPLICA_SLOTS],
    overflow: AtomicU64,
}

impl Default for ReplicaCounters {
    fn default() -> Self {
        Self {
            keys: std::array::from_fn(|_| AtomicU64::new(0)),
            responses: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for ReplicaCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaCounters")
            .field("slots", &REPLICA_SLOTS)
            .finish_non_exhaustive()
    }
}

impl ReplicaCounters {
    /// `shard + 1` in the top 24 bits, version in the low 40 — non-zero
    /// by construction so `0` can mean "slot free". `None` when the
    /// pair doesn't fit (absurd shard index or version), which falls
    /// back to the overflow slot rather than mis-attributing.
    fn pack(shard: usize, version: u64) -> Option<u64> {
        let shard = shard as u64;
        (shard < (1 << 24) - 1 && version < (1 << 40)).then_some(((shard + 1) << 40) | version)
    }

    /// Count one served response (or scatter sub-batch) against
    /// `(shard, version)`. Wait-free: at most [`REPLICA_SLOTS`] probe
    /// steps, no locks, no allocation.
    fn record(&self, shard: usize, version: u64) {
        let Some(key) = Self::pack(shard, version) else {
            // ordering: Relaxed — lone monotone counter, no edges.
            self.overflow.fetch_add(1, Ordering::Relaxed);
            return;
        };
        // Fibonacci-hash the packed pair so adjacent shard/version
        // pairs spread across the table instead of clustering.
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % REPLICA_SLOTS;
        for _ in 0..REPLICA_SLOTS {
            // ordering: Acquire pairs with the Release half of the
            // claiming CAS below — a reader that observes this slot's
            // key observes it fully claimed (the key is the only claim
            // state; the counter is monotone and self-standing).
            // panic-ok: i is reduced modulo REPLICA_SLOTS, always in range.
            let owner = self.keys[i].load(Ordering::Acquire);
            let claimed = owner == key || (owner == 0 && self.claim(i, key));
            if claimed {
                // ordering: Relaxed — monotone counter; the scrape-time
                // reader tolerates being a step behind.
                // panic-ok: i is reduced modulo REPLICA_SLOTS.
                self.responses[i].fetch_add(1, Ordering::Relaxed);
                return;
            }
            i = (i + 1) % REPLICA_SLOTS;
        }
        // Table full: totals stay honest in the shared overflow slot.
        // ordering: Relaxed — same monotone-counter contract as above.
        self.overflow.fetch_add(1, Ordering::Relaxed);
    }

    /// Try to claim slot `i` for `key`; true if this call or a racing
    /// recorder of the *same* key won it.
    fn claim(&self, i: usize, key: u64) -> bool {
        // ordering: AcqRel on success publishes the claim to other
        // recorders and readers; Acquire on failure observes the
        // competing claim we lost to. panic-ok: i is reduced modulo
        // REPLICA_SLOTS, always in range.
        match self.keys[i].compare_exchange(0, key, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => true,
            Err(racer) => racer == key,
        }
    }

    /// Every tracked replica's response count, ascending by shard then
    /// version, with the overflow slot (if it ever counted) last as
    /// `replica: None`. Scrape-time work — copies and sorts freely.
    fn snapshot(&self) -> Vec<ReplicaServed> {
        let mut out = Vec::new();
        for i in 0..REPLICA_SLOTS {
            // ordering: Acquire pairs with the claiming CAS's Release —
            // a non-zero key here is a fully claimed slot.
            // panic-ok: i is a loop index < REPLICA_SLOTS.
            let owner = self.keys[i].load(Ordering::Acquire);
            if owner == 0 {
                continue;
            }
            let shard = ((owner >> 40) - 1) as usize;
            let version = owner & ((1 << 40) - 1);
            out.push(ReplicaServed {
                replica: Some((shard, version)),
                // ordering: Relaxed — monotone counter, staleness fine.
                // panic-ok: i is a loop index < REPLICA_SLOTS.
                responses: self.responses[i].load(Ordering::Relaxed),
            });
        }
        out.sort_unstable_by_key(|s| s.replica);
        // ordering: Relaxed — monotone counter, staleness fine.
        let overflow = self.overflow.load(Ordering::Relaxed);
        if overflow > 0 {
            out.push(ReplicaServed {
                replica: None,
                responses: overflow,
            });
        }
        out
    }
}

/// Reactor tuning knobs.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Admission window per connection: at most this many requests
    /// submitted to the backend at once, plus at most this many more
    /// decoded and waiting for a slot — that wait is where an
    /// admission deadline runs down. Frames beyond the waiting room
    /// stay in the read buffer.
    pub max_inflight_per_conn: usize,
    /// Response backlog (bytes) above which the reactor stops reading
    /// a connection until the backlog drains (write backpressure).
    pub write_high_water: usize,
    /// Frames parsed per connection per reactor turn (fairness).
    pub frames_per_turn: usize,
    /// Bytes read per connection per reactor turn.
    pub read_chunk: usize,
    /// Kernel `SO_SNDBUF` override for accepted sockets; tests shrink
    /// it to make write backpressure deterministic.
    pub send_buffer_bytes: Option<usize>,
    /// Connections accepted concurrently; extras are closed at accept.
    pub max_connections: usize,
    /// Address for the admin listener (e.g. `"127.0.0.1:0"`); `None`
    /// disables the admin plane. The bound address is reported by
    /// [`NetServer::admin_addr`].
    pub admin_bind: Option<String>,
    /// Trace ring shared with the serving tiers; `None` disables
    /// request tracing. 1-in-`sample_every` requests get a span
    /// stamped from accept to response write.
    pub trace: Option<Arc<TraceRing>>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self {
            max_inflight_per_conn: 32,
            write_high_water: 256 * 1024,
            frames_per_turn: 8,
            read_chunk: 64 * 1024,
            send_buffer_bytes: None,
            max_connections: 4096,
            admin_bind: None,
            trace: None,
        }
    }
}

/// Per-connection wait-free counters (all `Relaxed`), registered at
/// accept and retired at close — [`NetStatsSnapshot::per_connection`]
/// and the metrics scrape see **open** connections only.
#[derive(Debug, Default)]
struct ConnStats {
    conn_id: u64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    requests: AtomicU64,
    responses_ok: AtomicU64,
    deadline_shed: AtomicU64,
    backpressure_pauses: AtomicU64,
    inflight: AtomicU64,
}

impl ConnStats {
    fn snapshot(&self) -> ConnStatsSnapshot {
        ConnStatsSnapshot {
            conn_id: self.conn_id,
            // ordering: independent advisory counters, per-counter
            // coherence only — Relaxed atomicity suffices (no edges).
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses_ok: self.responses_ok.load(Ordering::Relaxed),
            deadline_shed: self.deadline_shed.load(Ordering::Relaxed),
            backpressure_pauses: self.backpressure_pauses.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one open connection's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnStatsSnapshot {
    /// Reactor-assigned connection id (monotone, never reused).
    pub conn_id: u64,
    /// Raw bytes read from this client.
    pub bytes_in: u64,
    /// Raw bytes written to this client.
    pub bytes_out: u64,
    /// Request frames decoded on this connection.
    pub requests: u64,
    /// Requests answered with predictions on this connection.
    pub responses_ok: u64,
    /// Requests shed by the admission deadline on this connection.
    pub deadline_shed: u64,
    /// Times this connection's reads were paused by backpressure.
    pub backpressure_pauses: u64,
    /// Requests currently submitted to the backend (gauge).
    pub inflight: u64,
}

/// Wait-free reactor counters (all `Relaxed`; read via
/// [`NetServer::stats`]). The per-connection registry is a `Mutex`
/// touched only at accept, close, and scrape — never per frame.
#[derive(Debug, Default)]
struct NetStats {
    accepted: AtomicU64,
    closed: AtomicU64,
    requests: AtomicU64,
    responses_ok: AtomicU64,
    rejected_client: AtomicU64,
    rejected_serve: AtomicU64,
    deadline_shed: AtomicU64,
    malformed: AtomicU64,
    backpressure_pauses: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    admin_requests: AtomicU64,
    open_connections: AtomicU64,
    peak_connections: AtomicU64,
    next_conn_id: AtomicU64,
    conns: Mutex<Vec<Arc<ConnStats>>>,
    replica_served: ReplicaCounters,
}

impl NetStats {
    fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            // ordering: independent monotone counters; the snapshot is
            // advisory and promises per-counter coherence only, so
            // Relaxed atomicity suffices (no edges).
            accepted: self.accepted.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses_ok: self.responses_ok.load(Ordering::Relaxed),
            rejected_client: self.rejected_client.load(Ordering::Relaxed),
            rejected_serve: self.rejected_serve.load(Ordering::Relaxed),
            deadline_shed: self.deadline_shed.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            backpressure_pauses: self.backpressure_pauses.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            admin_requests: self.admin_requests.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            peak_connections: self.peak_connections.load(Ordering::Relaxed),
            per_conn: self.per_conn_snapshots(),
            replica_served: self.replica_served.snapshot(),
        }
    }

    /// Mint a [`ConnStats`] for a freshly accepted connection and track
    /// it as open. Called at accept only, never per frame.
    fn register_conn(&self) -> Arc<ConnStats> {
        // ordering: lone id counter, no edges.
        let conn_id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let stats = Arc::new(ConnStats {
            conn_id,
            ..ConnStats::default()
        });
        self.conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&stats));
        // ordering: advisory open-connection gauge, no edges.
        let open = self.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
        // ordering: advisory peak watermark; a racing fetch_max is benign.
        self.peak_connections.fetch_max(open, Ordering::Relaxed);
        stats
    }

    /// Retire a connection's counters at close; scrapes no longer see
    /// it. Called at close only, never per frame.
    fn unregister_conn(&self, conn_id: u64) {
        self.conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|c| c.conn_id != conn_id);
        // ordering: advisory open gauge, no edges.
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    fn per_conn_snapshots(&self) -> Vec<ConnStatsSnapshot> {
        self.conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|c| c.snapshot())
            .collect()
    }

    /// Export the reactor counters — fleet totals, gauges, and one row
    /// per open connection — into `reg` under `cerl_net_*`.
    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        let snap = self.snapshot();
        let counters: [(&str, &str, u64); 12] = [
            (
                "cerl_net_accepted_total",
                "Connections accepted.",
                snap.accepted,
            ),
            (
                "cerl_net_closed_total",
                "Connections fully closed.",
                snap.closed,
            ),
            (
                "cerl_net_requests_total",
                "Request frames decoded.",
                snap.requests,
            ),
            (
                "cerl_net_responses_ok_total",
                "Requests answered with predictions.",
                snap.responses_ok,
            ),
            (
                "cerl_net_rejected_client_total",
                "Requests rejected with a client-fault status.",
                snap.rejected_client,
            ),
            (
                "cerl_net_rejected_serve_total",
                "Requests rejected with a serve-fault status.",
                snap.rejected_serve,
            ),
            (
                "cerl_net_deadline_shed_total",
                "Requests shed by the admission deadline.",
                snap.deadline_shed,
            ),
            (
                "cerl_net_malformed_total",
                "Hostile or corrupt frames answered and closed.",
                snap.malformed,
            ),
            (
                "cerl_net_backpressure_pauses_total",
                "Read pauses from write backpressure or the in-flight cap.",
                snap.backpressure_pauses,
            ),
            (
                "cerl_net_bytes_in_total",
                "Raw bytes read from clients.",
                snap.bytes_in,
            ),
            (
                "cerl_net_bytes_out_total",
                "Raw bytes written to clients.",
                snap.bytes_out,
            ),
            (
                "cerl_net_admin_requests_total",
                "Admin frames served (not counted as requests).",
                snap.admin_requests,
            ),
        ];
        for (name, help, value) in counters {
            reg.counter(name, help, &[], value);
        }
        reg.gauge(
            "cerl_net_open_connections",
            "Connections currently open.",
            &[],
            snap.open_connections as f64,
        );
        reg.gauge(
            "cerl_net_peak_connections",
            "High-water mark of concurrently open connections.",
            &[],
            snap.peak_connections as f64,
        );
        for conn in snap.per_connection() {
            let id = conn.conn_id.to_string();
            let labels: [(&str, &str); 1] = [("conn", &id)];
            reg.counter(
                "cerl_net_conn_bytes_in_total",
                "Raw bytes read, per open connection.",
                &labels,
                conn.bytes_in,
            );
            reg.counter(
                "cerl_net_conn_bytes_out_total",
                "Raw bytes written, per open connection.",
                &labels,
                conn.bytes_out,
            );
            reg.counter(
                "cerl_net_conn_requests_total",
                "Request frames decoded, per open connection.",
                &labels,
                conn.requests,
            );
            reg.counter(
                "cerl_net_conn_responses_ok_total",
                "Predictions answered, per open connection.",
                &labels,
                conn.responses_ok,
            );
            reg.counter(
                "cerl_net_conn_deadline_shed_total",
                "Admission-deadline sheds, per open connection.",
                &labels,
                conn.deadline_shed,
            );
            reg.counter(
                "cerl_net_conn_backpressure_pauses_total",
                "Read pauses, per open connection.",
                &labels,
                conn.backpressure_pauses,
            );
            reg.gauge(
                "cerl_net_conn_inflight_requests",
                "Requests currently submitted to the backend, per open connection.",
                &labels,
                conn.inflight as f64,
            );
        }
        for stat in snap.replica_served() {
            let (shard, version) = match stat.replica {
                Some((shard, version)) => (shard.to_string(), version.to_string()),
                None => ("other".to_string(), "other".to_string()),
            };
            let labels: [(&str, &str); 2] = [("shard", &shard), ("version", &version)];
            reg.counter(
                "cerl_net_replica_responses_total",
                "Completed predictions attributed to each serving replica's \
                 engine version (a scatter counts once per participating replica).",
                &labels,
                stat.responses,
            );
        }
    }

    fn record_response(&self, response: &Response) {
        match response {
            Response::Ite { .. } => {
                self.responses_ok.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
            }
            Response::Error { status, .. } => {
                if status.is_client_fault() {
                    self.rejected_client.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
                } else {
                    self.rejected_serve.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
                }
                match status {
                    Status::Deadline => {
                        self.deadline_shed.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
                    }
                    Status::MalformedRequest => {
                        self.malformed.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Point-in-time copy of the reactor's counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetStatsSnapshot {
    /// Connections accepted since the server started.
    pub accepted: u64,
    /// Connections fully closed (client disconnects, protocol faults,
    /// and over-limit accepts).
    pub closed: u64,
    /// Request frames successfully decoded.
    pub requests: u64,
    /// Requests answered with predictions.
    pub responses_ok: u64,
    /// Requests rejected with a client-fault status (malformed bytes,
    /// unknown domains, expired deadlines).
    pub rejected_client: u64,
    /// Requests rejected with a serve-fault status (queue overflow,
    /// shutdown, engine failures on well-formed input). A healthy
    /// fleet keeps this at zero regardless of client behavior.
    pub rejected_serve: u64,
    /// Requests shed by the admission deadline before reaching the
    /// inference pool (subset of `rejected_client`).
    pub deadline_shed: u64,
    /// Hostile or corrupt frames answered with
    /// [`Status::MalformedRequest`] (subset of `rejected_client`).
    pub malformed: u64,
    /// Times a connection's reads were paused by write backpressure
    /// or the in-flight cap.
    pub backpressure_pauses: u64,
    /// Raw bytes read from clients.
    pub bytes_in: u64,
    /// Raw bytes written to clients.
    pub bytes_out: u64,
    /// Admin frames served (metrics scrapes, health probes, trace
    /// dumps — not counted in `requests`).
    pub admin_requests: u64,
    /// Connections open at snapshot time.
    pub open_connections: u64,
    /// High-water mark of concurrently open connections since the
    /// server started — `shutdown()`'s final snapshot reports the
    /// server's lifetime peak.
    pub peak_connections: u64,
    per_conn: Vec<ConnStatsSnapshot>,
    replica_served: Vec<ReplicaServed>,
}

impl NetStatsSnapshot {
    /// Counters of every connection open at snapshot time, ascending
    /// by connection id. Closed connections are absent — their traffic
    /// lives on in the fleet totals.
    pub fn per_connection(&self) -> &[ConnStatsSnapshot] {
        &self.per_conn
    }

    /// Completed predictions attributed to each `(shard, engine
    /// version)` that served them, ascending by shard then version —
    /// the response-side replica attribution (the wire format carries
    /// no version bytes). A scatter response counts once per replica
    /// that served one of its sub-batches; the scheduler backend
    /// attributes everything to shard 0.
    pub fn replica_served(&self) -> &[ReplicaServed] {
        &self.replica_served
    }
}

/// Connection tokens whose futures have completed since the reactor
/// last looked; wakers push here and poke the self-pipe.
struct ReadyQueue {
    ready: Mutex<Vec<u64>>,
    pipe: Arc<WakePipe>,
}

impl ReadyQueue {
    fn push(&self, token: u64) {
        self.ready
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(token);
        self.pipe.wake();
    }

    fn take(&self) -> Vec<u64> {
        let mut tokens =
            std::mem::take(&mut *self.ready.lock().unwrap_or_else(PoisonError::into_inner));
        tokens.sort_unstable();
        tokens.dedup();
        tokens
    }
}

/// The per-connection waker handed to every future poll: completion on
/// any backend thread re-schedules exactly this connection.
struct ConnWaker {
    token: u64,
    queue: Arc<ReadyQueue>,
}

impl Wake for ConnWaker {
    fn wake(self: Arc<Self>) {
        self.queue.push(self.token);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.queue.push(self.token);
    }
}

/// Owns a request's optional trace span and **completes it on drop**,
/// so every exit — response written, deadline shed, wire fault,
/// connection close — retires the span's ring slot. Without this, an
/// abandoned request would leak a live slot forever.
struct TraceGuard(Option<TraceSpan>);

impl TraceGuard {
    /// The span to share with the backend (stamps flow through the
    /// scheduler/router); completion stays with this guard.
    fn span(&self) -> Option<TraceSpan> {
        self.0.clone()
    }

    fn stamp(&self, stage: Stage) {
        if let Some(trace) = &self.0 {
            trace.stamp(stage); // obs-stage: generic forwarder, stage named at call sites
        }
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if let Some(trace) = self.0.take() {
            trace.complete();
        }
    }
}

/// A decoded request waiting for an in-flight slot.
struct PendingSubmit {
    request: Request,
    deadline: Option<Instant>,
    trace: TraceGuard,
}

/// A request submitted to the backend, awaiting its future.
struct Inflight {
    request_id: u64,
    future: InflightFuture,
    trace: TraceGuard,
}

struct Conn {
    stream: TcpStream,
    waker: Waker,
    reader: wire::FrameReader,
    pending: VecDeque<PendingSubmit>,
    inflight: Vec<Inflight>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// epoll interest mask currently registered for this socket.
    interest: u32,
    /// Reads paused by backpressure (write backlog or in-flight cap).
    paused: bool,
    /// Protocol fault observed: answer, flush, then close.
    corrupt: bool,
    /// Accepted on the admin listener: speaks admin frames only.
    admin: bool,
    /// This connection's wait-free counters (registered at accept).
    stats: Arc<ConnStats>,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    fn occupancy(&self) -> usize {
        self.pending.len() + self.inflight.len()
    }

    /// Deferred work the reactor should service without waiting for a
    /// socket event.
    fn has_deferred_work(&self, cfg: &NetServerConfig) -> bool {
        if self.corrupt {
            return false;
        }
        (!self.pending.is_empty() && self.inflight.len() < cfg.max_inflight_per_conn)
            || (self.reader.has_frame() && self.pending.len() < cfg.max_inflight_per_conn)
    }

    fn earliest_deadline(&self) -> Option<Instant> {
        self.pending.iter().filter_map(|p| p.deadline).min()
    }
}

/// Map a backend rejection onto the wire status taxonomy.
fn status_of(error: &ServeError) -> Status {
    match error {
        ServeError::UnknownDomain { .. } => Status::UnknownDomain,
        ServeError::QueueFull { .. } => Status::Overloaded,
        ServeError::SchedulerShutdown => Status::ShuttingDown,
        e if e.is_client_fault() => Status::MalformedRequest,
        _ => Status::ServeFault,
    }
}

/// A TCP front-end serving the CERL wire protocol from a dedicated
/// reactor thread (see the [module docs](self) for semantics).
pub struct NetServer {
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    stats: Arc<NetStats>,
    shutdown: Arc<AtomicBool>,
    wake: Arc<WakePipe>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start the reactor. When
    /// [`NetServerConfig::admin_bind`] is set, the admin listener binds
    /// here too; a UDP health socket always binds beside the serve
    /// listener on its own address.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        backend: NetBackend,
        cfg: NetServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let admin_listener = match cfg.admin_bind.as_deref() {
            Some(admin) => {
                let admin = TcpListener::bind(admin)?;
                admin.set_nonblocking(true)?;
                Some(admin)
            }
            None => None,
        };
        let admin_addr = match &admin_listener {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };
        // UDP and TCP ports are separate namespaces, so the health
        // socket shares the serve listener's exact address.
        let udp = UdpSocket::bind(addr)?;
        udp.set_nonblocking(true)?;
        let stats = Arc::new(NetStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let wake = Arc::new(WakePipe::new()?);

        let mut reactor = Reactor::new(
            listener,
            admin_listener,
            udp,
            backend,
            cfg,
            Arc::clone(&stats),
            Arc::clone(&shutdown),
            Arc::clone(&wake),
        )?;
        let thread = std::thread::Builder::new()
            .name("cerl-net-reactor".into())
            .spawn(move || reactor.run())?;

        Ok(Self {
            addr,
            admin_addr,
            stats,
            shutdown,
            wake,
            thread: Some(thread),
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admin listener's bound address, `None` when
    /// [`NetServerConfig::admin_bind`] was unset.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// Current reactor counters.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.stats.snapshot()
    }

    /// Stop accepting, drop every connection, and join the reactor.
    /// Returns the final counters.
    pub fn shutdown(mut self) -> io::Result<NetStatsSnapshot> {
        self.stop()?;
        Ok(self.stats.snapshot())
    }

    fn stop(&mut self) -> io::Result<()> {
        // ordering: Release pairs with the reactor loop's Acquire load —
        // whatever the caller did before stop() is visible to the
        // reactor's final drain turn once it observes the flag.
        self.shutdown.store(true, Ordering::Release);
        self.wake.wake();
        match self.thread.take() {
            Some(thread) => thread
                .join()
                .map_err(|_| io::Error::other("reactor thread panicked"))?,
            None => Ok(()),
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    admin_listener: Option<TcpListener>,
    udp: UdpSocket,
    backend: NetBackend,
    cfg: NetServerConfig,
    stats: Arc<NetStats>,
    shutdown: Arc<AtomicBool>,
    wake: Arc<WakePipe>,
    queue: Arc<ReadyQueue>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Round-robin start offset for the per-turn service sweep.
    cursor: usize,
    /// Socket read buffer, `read_chunk` bytes, shared by every
    /// connection (reads copy straight into each `FrameReader`).
    read_buf: Vec<u8>,
}

impl Reactor {
    #[allow(clippy::too_many_arguments)]
    fn new(
        listener: TcpListener,
        admin_listener: Option<TcpListener>,
        udp: UdpSocket,
        backend: NetBackend,
        cfg: NetServerConfig,
        stats: Arc<NetStats>,
        shutdown: Arc<AtomicBool>,
        wake: Arc<WakePipe>,
    ) -> io::Result<Self> {
        let epoll = Epoll::new()?;
        epoll.add(wake.read_fd(), EPOLLIN, TOKEN_WAKE)?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        if let Some(admin) = &admin_listener {
            epoll.add(admin.as_raw_fd(), EPOLLIN, TOKEN_ADMIN_LISTENER)?;
        }
        epoll.add(udp.as_raw_fd(), EPOLLIN, TOKEN_UDP)?;
        let queue = Arc::new(ReadyQueue {
            ready: Mutex::new(Vec::new()),
            pipe: Arc::clone(&wake),
        });
        let read_buf = vec![0u8; cfg.read_chunk.max(1024)];
        Ok(Self {
            epoll,
            listener,
            admin_listener,
            udp,
            backend,
            read_buf,
            cfg,
            stats,
            shutdown,
            wake,
            queue,
            conns: Vec::new(),
            free: Vec::new(),
            cursor: 0,
        })
    }

    fn run(&mut self) -> io::Result<()> {
        let mut events: Vec<EpollEvent> = Vec::with_capacity(256);
        // ordering: Acquire pairs with stop()'s Release store (see
        // there for the edge).
        while !self.shutdown.load(Ordering::Acquire) {
            let timeout = self.next_timeout_ms();
            self.epoll.wait(&mut events, timeout)?;

            let mut accept = false;
            let mut accept_admin = false;
            let mut udp_ready = false;
            let mut woken = false;
            // Collect per-connection readiness first; service after.
            let mut io_ready: Vec<(usize, u32)> = Vec::new();
            for event in events.iter() {
                let (token, bits) = ({ event.data }, { event.events });
                match token {
                    TOKEN_WAKE => woken = true,
                    TOKEN_LISTENER => accept = true,
                    TOKEN_ADMIN_LISTENER => accept_admin = true,
                    TOKEN_UDP => udp_ready = true,
                    _ => io_ready.push(((token - TOKEN_CONN0) as usize, bits)),
                }
            }

            if woken {
                self.wake.drain();
                for token in self.queue.take() {
                    let idx = (token - TOKEN_CONN0) as usize;
                    self.poll_conn(idx);
                }
            }
            if accept {
                self.accept_ready(false);
            }
            if accept_admin {
                self.accept_ready(true);
            }
            if udp_ready {
                self.answer_udp_probes();
            }
            for (idx, bits) in io_ready {
                self.handle_io(idx, bits);
            }
            self.service_sweep();
        }
        Ok(())
    }

    /// Answer every waiting UDP datagram with the one-line health
    /// probe. Any payload is a probe; errors drop the datagram (UDP is
    /// best-effort by contract).
    fn answer_udp_probes(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match self.udp.recv_from(&mut buf) {
                Ok((_len, peer)) => {
                    let line = self.health_line();
                    let _ = self.udp.send_to(line.as_bytes(), peer);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// `ok:<versions>:<inflight>` — live engine versions behind the
    /// backend and requests currently submitted to it.
    fn health_line(&self) -> String {
        let inflight: usize = self
            .conns
            .iter()
            .flatten()
            .map(|conn| conn.inflight.len())
            .sum();
        format!("ok:{}:{}", self.backend.live_version_count(), inflight)
    }

    /// Zero when deferred parse/submit work exists, else the time to
    /// the nearest admission deadline, else a housekeeping tick.
    fn next_timeout_ms(&self) -> i32 {
        let mut timeout: i32 = 100;
        let now = Instant::now();
        for conn in self.conns.iter().flatten() {
            if conn.has_deferred_work(&self.cfg) {
                return 0;
            }
            if let Some(deadline) = conn.earliest_deadline() {
                let ms = deadline.saturating_duration_since(now).as_millis().min(100) as i32;
                timeout = timeout.min(ms.max(1));
            }
        }
        timeout
    }

    fn accept_ready(&mut self, admin: bool) {
        loop {
            let accepted = match &self.admin_listener {
                Some(listener) if admin => listener.accept(),
                _ => self.listener.accept(),
            };
            match accepted {
                Ok((stream, _peer)) => {
                    self.stats.accepted.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
                    if self.install(stream, admin).is_none() {
                        // Over max_connections (or registration failed):
                        // the stream drops here, closing the socket.
                        self.stats.closed.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (ECONNABORTED, EMFILE burst):
                // drop this readiness edge, epoll will re-report.
                Err(_) => return,
            }
        }
    }

    fn install(&mut self, stream: TcpStream, admin: bool) -> Option<usize> {
        let live = self.conns.iter().filter(|c| c.is_some()).count();
        if live >= self.cfg.max_connections {
            return None;
        }
        stream.set_nonblocking(true).ok()?;
        stream.set_nodelay(true).ok()?;
        if let Some(bytes) = self.cfg.send_buffer_bytes {
            sys::set_send_buffer(stream.as_raw_fd(), bytes).ok()?;
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = idx as u64 + TOKEN_CONN0;
        let interest = EPOLLIN | EPOLLRDHUP;
        if self.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
            self.free.push(idx);
            return None;
        }
        let waker = Waker::from(Arc::new(ConnWaker {
            token,
            queue: Arc::clone(&self.queue),
        }));
        // panic-ok: `idx` is a token minted from a conns slot index
        // at install time, always < conns.len().
        self.conns[idx] = Some(Conn {
            stream,
            waker,
            reader: wire::FrameReader::new(),
            pending: VecDeque::new(),
            inflight: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            interest,
            paused: false,
            corrupt: false,
            admin,
            stats: self.stats.register_conn(),
        });
        Some(idx)
    }

    fn close(&mut self, idx: usize) {
        // panic-ok: `idx` is a token minted from a conns slot index
        // at install time, always < conns.len().
        if let Some(conn) = self.conns[idx].take() {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.free.push(idx);
            self.stats.unregister_conn(conn.stats.conn_id);
            self.stats.closed.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
                                                               // Dropping `conn` abandons its in-flight futures: the
                                                               // backend still completes them, the results are
                                                               // discarded — and each one's TraceGuard retires its span.
        }
    }

    fn handle_io(&mut self, idx: usize, bits: u32) {
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(idx);
            return;
        }
        let mut close_needed = false;
        {
            // panic-ok: `idx` is a token minted from a conns slot index
            // at install time, always < conns.len().
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if bits & EPOLLIN != 0 && !conn.paused && !conn.corrupt {
                let buf = &mut self.read_buf;
                let mut read_total = 0usize;
                loop {
                    match conn.stream.read(buf) {
                        Ok(0) => {
                            // Peer closed. Anything already buffered or
                            // in flight is abandoned with it: the
                            // protocol is full-duplex, a client that
                            // stops listening forfeits its answers.
                            close_needed = true;
                            break;
                        }
                        Ok(n) => {
                            // panic-ok: read returned n <= buf.len().
                            conn.reader.extend(&buf[..n]);
                            read_total += n;
                            self.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed); // ordering: lone stat counter, no edges
                            conn.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed); // ordering: lone stat counter, no edges
                            if read_total >= buf.len() {
                                break; // fairness: level-triggered epoll re-reports
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            close_needed = true;
                            break;
                        }
                    }
                }
            } else if bits & EPOLLRDHUP != 0 && conn.backlog() == 0 && conn.occupancy() == 0 {
                // Peer hung up while we had nothing left to say (reads
                // may be paused, so EPOLLIN would never fire again).
                close_needed = true;
            }
        }
        if close_needed {
            self.close(idx);
            return;
        }
        if bits & EPOLLOUT != 0 {
            self.flush(idx);
        }
    }

    /// Write as much backlog as the socket accepts; closes on error or
    /// when a corrupt connection finishes flushing its last response.
    fn flush(&mut self, idx: usize) {
        let mut close_needed = false;
        {
            // panic-ok: `idx` is a token minted from a conns slot index
            // at install time, always < conns.len().
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            while conn.write_pos < conn.write_buf.len() {
                // panic-ok: the loop condition keeps write_pos in range.
                match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                    Ok(0) => {
                        close_needed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.write_pos += n;
                        // ordering: lone stat counter, no edges
                        self.stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                        // ordering: lone stat counter, no edges
                        conn.stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close_needed = true;
                        break;
                    }
                }
            }
            if !close_needed {
                if conn.write_pos == conn.write_buf.len() {
                    conn.write_buf.clear();
                    conn.write_pos = 0;
                    if conn.corrupt {
                        close_needed = true;
                    }
                } else if conn.write_pos > 64 * 1024 {
                    conn.write_buf.drain(..conn.write_pos);
                    conn.write_pos = 0;
                }
            }
        }
        if close_needed {
            self.close(idx);
        }
    }

    /// Poll every in-flight future of connection `idx` once, in
    /// submission order, and write each completion as it is found.
    /// Retiring one keeps the rest in order, so completions that land
    /// together are written in the order they were submitted.
    fn poll_conn(&mut self, idx: usize) {
        // panic-ok: `idx` is a token minted from a conns slot index
        // at install time, always < conns.len().
        let Some(conn) = self.conns[idx].as_mut() else {
            return; // stale wake for a closed slot
        };
        let waker = conn.waker.clone();
        let mut cx = Context::from_waker(&waker);
        let mut i = 0;
        while i < conn.inflight.len() {
            // panic-ok: the loop condition keeps i < inflight.len().
            match conn.inflight[i].future.poll(&mut cx) {
                Poll::Pending => i += 1,
                Poll::Ready(outcome) => {
                    // panic-ok: the loop condition keeps i < inflight.len().
                    let inflight = conn.inflight.remove(i);
                    // ordering: advisory inflight gauge, no edges.
                    conn.stats.inflight.fetch_sub(1, Ordering::Relaxed);
                    let response = match outcome {
                        Ok(served) => {
                            // ordering: lone stat counter, no edges.
                            conn.stats.responses_ok.fetch_add(1, Ordering::Relaxed);
                            for (shard, version) in &served.replicas {
                                self.stats.replica_served.record(*shard, *version);
                            }
                            Response::Ite {
                                request_id: inflight.request_id,
                                ite: served.ite,
                            }
                        }
                        Err(e) => Response::Error {
                            request_id: inflight.request_id,
                            status: status_of(&e),
                            detail: e.to_string(),
                        },
                    };
                    self.stats.record_response(&response);
                    wire::encode_response(&response, &mut conn.write_buf);
                    // Dropping the guard right after completes the span.
                    inflight.trace.stamp(Stage::Written);
                }
            }
        }
        self.flush(idx);
    }

    /// Round-robin parse/submit sweep over all live connections.
    fn service_sweep(&mut self) {
        let n = self.conns.len();
        if n == 0 {
            return;
        }
        self.cursor = (self.cursor + 1) % n;
        for offset in 0..n {
            let idx = (self.cursor + offset) % n;
            // panic-ok: idx < n == conns.len() by the modulo above.
            match self.conns[idx].as_ref() {
                Some(conn) if conn.admin => self.service_admin(idx),
                Some(_) => self.service_conn(idx),
                None => {}
            }
        }
    }

    fn service_conn(&mut self, idx: usize) {
        let now = Instant::now();
        // 1. Shed pending requests whose admission deadline has passed —
        //    typed response, no backend work.
        {
            // panic-ok: `idx` is a token minted from a conns slot index
            // at install time, always < conns.len().
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            let mut kept = VecDeque::with_capacity(conn.pending.len());
            for pending in conn.pending.drain(..) {
                if pending.deadline.is_some_and(|d| d <= now) {
                    let response = Response::Error {
                        request_id: pending.request.request_id,
                        status: Status::Deadline,
                        detail: format!(
                            "deadline of {} ms expired before inference was admitted",
                            pending.request.deadline_ms
                        ),
                    };
                    self.stats.record_response(&response);
                    // ordering: lone stat counter, no edges.
                    conn.stats.deadline_shed.fetch_add(1, Ordering::Relaxed);
                    wire::encode_response(&response, &mut conn.write_buf);
                    // `pending` drops here; its TraceGuard retires the
                    // span without a Written stamp — shed, not served.
                } else {
                    kept.push_back(pending);
                }
            }
            conn.pending = kept;
        }

        // 2. Parse frames (bounded per turn) and submit while slots
        //    remain; new futures are polled once immediately so inline
        //    completions and waker registration both happen.
        let mut budget = self.cfg.frames_per_turn;
        let mut submitted_any = false;
        loop {
            // panic-ok: `idx` is a token minted from a conns slot index
            // at install time, always < conns.len().
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if conn.corrupt {
                break;
            }
            // Drain pending into in-flight slots first (FIFO per conn).
            if conn.inflight.len() < self.cfg.max_inflight_per_conn {
                if let Some(pending) = conn.pending.pop_front() {
                    let request_id = pending.request.request_id;
                    // Last call before the inference pool: a request
                    // whose admission deadline ran out while it waited
                    // for a slot is shed, not submitted.
                    if pending.deadline.is_some_and(|d| d <= now) {
                        let response = Response::Error {
                            request_id,
                            status: Status::Deadline,
                            detail: format!(
                                "deadline of {} ms expired before inference was admitted",
                                pending.request.deadline_ms
                            ),
                        };
                        self.stats.record_response(&response);
                        // ordering: lone stat counter, no edges.
                        conn.stats.deadline_shed.fetch_add(1, Ordering::Relaxed);
                        wire::encode_response(&response, &mut conn.write_buf);
                        continue;
                    }
                    let trace = pending.trace;
                    // Stamp before the handoff: once `submit` enqueues
                    // the request, a scheduler worker may stamp the
                    // later queue/batch stages at any moment, and a
                    // Submitted stamp taken after that would run
                    // against the clock.
                    trace.stamp(Stage::Submitted);
                    match self.backend.submit(pending.request, trace.span()) {
                        Ok(future) => {
                            // ordering: advisory inflight gauge, no edges.
                            conn.stats.inflight.fetch_add(1, Ordering::Relaxed);
                            conn.inflight.push(Inflight {
                                request_id,
                                future,
                                trace,
                            });
                            submitted_any = true;
                        }
                        Err(e) => {
                            let response = Response::Error {
                                request_id,
                                status: status_of(&e),
                                detail: e.to_string(),
                            };
                            self.stats.record_response(&response);
                            wire::encode_response(&response, &mut conn.write_buf);
                            // `trace` drops here: a rejected submission
                            // retires its span unstamped past Submitted.
                        }
                    }
                    continue;
                }
            }
            // Then decode more frames while the waiting room has space.
            // Decoding past the in-flight cap is deliberate: it starts
            // the admission-deadline clock for queued requests, so a
            // flood behind a slow request is shed instead of served
            // arbitrarily late.
            if budget == 0 || conn.pending.len() >= self.cfg.max_inflight_per_conn {
                break;
            }
            match conn.reader.next_frame() {
                Ok(None) => break,
                Ok(Some(payload)) => {
                    budget -= 1;
                    match wire::decode_request(&payload) {
                        Ok(request) => self.admit(idx, request, now),
                        Err(e) => self.wire_fault(idx, 0, e),
                    }
                }
                Err(e) => {
                    self.wire_fault(idx, 0, e);
                    break;
                }
            }
        }
        if submitted_any {
            self.poll_conn(idx);
        }
        self.flush(idx);
        self.update_interest(idx);
    }

    /// Admit one decoded request into connection `idx`'s waiting room:
    /// count it, open its trace span (1-in-N sampled), and start its
    /// admission-deadline clock.
    fn admit(&mut self, idx: usize, request: Request, now: Instant) {
        // panic-ok: `idx` is a token minted from a conns slot index
        // at install time, always < conns.len().
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        self.stats.requests.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
        conn.stats.requests.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
        let trace = TraceGuard(
            self.cfg
                .trace
                .as_ref()
                .and_then(|ring| ring.begin(conn.stats.conn_id, request.request_id)),
        );
        trace.stamp(Stage::Decoded);
        trace.stamp(Stage::AdmissionWait);
        let deadline = (request.deadline_ms > 0)
            .then(|| now + Duration::from_millis(u64::from(request.deadline_ms)));
        conn.pending.push_back(PendingSubmit {
            request,
            deadline,
            trace,
        });
    }

    /// Frame loop for admin connections: decode admin requests, answer
    /// synchronously (scrapes assemble off the hot path — admin conns
    /// never touch the backend's submit queue).
    fn service_admin(&mut self, idx: usize) {
        let mut budget = self.cfg.frames_per_turn;
        loop {
            // panic-ok: `idx` is a token minted from a conns slot index
            // at install time, always < conns.len().
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if conn.corrupt || budget == 0 {
                break;
            }
            match conn.reader.next_frame() {
                Ok(None) => break,
                Ok(Some(payload)) => {
                    budget -= 1;
                    match wire::decode_admin_request(&payload) {
                        Ok(request) => self.answer_admin(idx, request),
                        Err(e) => self.wire_fault(idx, 0, e),
                    }
                }
                Err(e) => {
                    self.wire_fault(idx, 0, e);
                    break;
                }
            }
        }
        self.flush(idx);
        self.update_interest(idx);
    }

    fn answer_admin(&mut self, idx: usize, request: AdminRequest) {
        self.stats.admin_requests.fetch_add(1, Ordering::Relaxed); // ordering: lone stat counter, no edges
        let body = match request.op {
            AdminOp::Metrics => self.render_metrics(),
            AdminOp::Health => self.health_line(),
            AdminOp::TraceDump => self.trace_dump(),
        };
        // panic-ok: `idx` is a token minted from a conns slot index
        // at install time, always < conns.len().
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let response = AdminResponse {
            request_id: request.request_id,
            status: Status::Ok,
            body,
        };
        wire::encode_admin_response(&response, &mut conn.write_buf);
    }

    /// Assemble the unified text exposition at scrape time: reactor and
    /// per-connection counters, the backend's serving metrics, and the
    /// trace ring's own accounting.
    fn render_metrics(&self) -> String {
        let mut reg = MetricsRegistry::new();
        self.stats.export_metrics(&mut reg);
        self.backend.export_metrics(&mut reg);
        if let Some(ring) = &self.cfg.trace {
            let stats = ring.stats();
            reg.counter(
                "cerl_obs_trace_seen_total",
                "Requests offered to the trace ring (sampled or not).",
                &[],
                stats.seen,
            );
            reg.counter(
                "cerl_obs_trace_sampled_total",
                "Requests that received a trace span.",
                &[],
                stats.sampled,
            );
            reg.counter(
                "cerl_obs_trace_dropped_total",
                "Sampled spans dropped because the ring wrapped onto a live span.",
                &[],
                stats.dropped,
            );
            reg.counter(
                "cerl_obs_trace_completed_total",
                "Trace spans completed.",
                &[],
                stats.completed,
            );
            reg.counter(
                "cerl_obs_trace_events_total",
                "Structured fleet events recorded.",
                &[],
                stats.events,
            );
        }
        reg.render()
    }

    /// One line per recent event and completed span (most recent
    /// first); stage columns are nanosecond offsets from `accepted`.
    fn trace_dump(&self) -> String {
        let Some(ring) = &self.cfg.trace else {
            return "tracing disabled\n".to_string();
        };
        let stats = ring.stats();
        let mut out = format!(
            "trace seen={} sampled={} dropped={} completed={} events={}\n",
            stats.seen, stats.sampled, stats.dropped, stats.completed, stats.events
        );
        for event in ring.events(64) {
            out.push_str(&format!(
                "event seq={} kind={} at={} a={} b={}\n",
                event.seq,
                event.kind.name(),
                event.at_nanos,
                event.a,
                event.b
            ));
        }
        for span in ring.dump(256) {
            out.push_str(&format!(
                "span id={} conn={} request={}",
                span.span_id, span.conn, span.request_id
            ));
            let accepted = span.stamp(Stage::Accepted).unwrap_or(0);
            for stage in Stage::ALL {
                // obs-stage: snapshot read of an already-recorded stamp.
                if let Some(at) = span.stamp(stage) {
                    out.push_str(&format!(
                        " {}=+{}",
                        stage.name(),
                        at.saturating_sub(accepted)
                    ));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Answer a hostile or corrupt frame and mark the connection for
    /// close-after-flush: framing can no longer be trusted.
    fn wire_fault(&mut self, idx: usize, request_id: u64, error: WireError) {
        // panic-ok: `idx` is a token minted from a conns slot index
        // at install time, always < conns.len().
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let response = Response::Error {
            request_id,
            status: Status::MalformedRequest,
            detail: error.to_string(),
        };
        self.stats.record_response(&response);
        if conn.admin {
            // Same taxonomy, admin framing: the peer spoke admin and
            // gets its error back as an admin frame.
            wire::encode_admin_response(
                &AdminResponse {
                    request_id,
                    status: Status::MalformedRequest,
                    body: error.to_string(),
                },
                &mut conn.write_buf,
            );
        } else {
            wire::encode_response(&response, &mut conn.write_buf);
        }
        conn.corrupt = true;
        // Dropping the queue retires every pending span via its guard.
        conn.pending.clear();
    }

    /// Recompute a connection's epoll interest from its backpressure
    /// state and pending writes.
    fn update_interest(&mut self, idx: usize) {
        let mut close_needed = false;
        {
            // panic-ok: `idx` is a token minted from a conns slot index
            // at install time, always < conns.len().
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            let should_pause = conn.backlog() >= self.cfg.write_high_water
                || (conn.pending.len() >= self.cfg.max_inflight_per_conn
                    && conn.reader.has_frame());
            if should_pause && !conn.paused {
                // ordering: lone stat counter, no edges.
                self.stats
                    .backpressure_pauses
                    .fetch_add(1, Ordering::Relaxed);
                // ordering: lone stat counter, no edges.
                conn.stats
                    .backpressure_pauses
                    .fetch_add(1, Ordering::Relaxed);
            }
            conn.paused = should_pause;
            let mut interest = EPOLLRDHUP;
            if !conn.paused && !conn.corrupt {
                interest |= EPOLLIN;
            }
            if conn.backlog() > 0 {
                interest |= EPOLLOUT;
            }
            if interest != conn.interest {
                let token = idx as u64 + TOKEN_CONN0;
                if self
                    .epoll
                    .modify(conn.stream.as_raw_fd(), interest, token)
                    .is_ok()
                {
                    conn.interest = interest;
                } else {
                    close_needed = true;
                }
            }
        }
        if close_needed {
            self.close(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{NetClient, NetError};
    use cerl_core::config::CerlConfig;
    use cerl_core::engine::CerlEngineBuilder;
    use cerl_core::serving::ServingEngine;
    use cerl_data::{DomainStream, SyntheticConfig, SyntheticGenerator};
    use cerl_serve::BatchConfig;

    fn quick_cfg() -> CerlConfig {
        let mut cfg = CerlConfig::quick_test();
        cfg.train.epochs = 4;
        cfg.memory_size = 80;
        cfg
    }

    fn quick_stream() -> DomainStream {
        let gen = SyntheticGenerator::new(
            SyntheticConfig {
                n_units: 300,
                ..SyntheticConfig::small()
            },
            29,
        );
        DomainStream::synthetic(&gen, 1, 0, 29)
    }

    fn scheduler_server(stream: &DomainStream) -> (NetServer, Arc<ServingEngine>) {
        let mut engine = CerlEngineBuilder::new(quick_cfg()).seed(3).build().unwrap();
        engine
            .observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        let serving = Arc::new(ServingEngine::new(engine));
        let scheduler = Arc::new(BatchScheduler::new(
            Arc::clone(&serving),
            BatchConfig {
                max_wait: Duration::from_millis(2),
                ..BatchConfig::default()
            },
        ));
        let server = NetServer::bind(
            "127.0.0.1:0",
            NetBackend::Scheduler(scheduler),
            NetServerConfig::default(),
        )
        .unwrap();
        (server, serving)
    }

    #[test]
    fn serves_predictions_bitwise_identical_to_in_process() {
        let stream = quick_stream();
        let (server, serving) = scheduler_server(&stream);
        let x = stream.domain(0).test.x.slice_rows(0, 6);
        let reference = serving.predict_ite(&x).unwrap();

        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let tags = vec![0u64; x.rows()];
        for _ in 0..3 {
            let ite = client.predict(&tags, &x, None).unwrap();
            assert_eq!(ite.len(), reference.len());
            for (a, b) in ite.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        let stats = server.shutdown().unwrap();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.responses_ok, 3);
        assert_eq!(stats.rejected_serve, 0);
        assert_eq!(stats.accepted, 1);
        // Single-engine backend: every response attributes to seat 0 at
        // the engine's published version.
        assert_eq!(
            stats.replica_served(),
            [ReplicaServed {
                replica: Some((0, 1)),
                responses: 3
            }]
        );
    }

    #[test]
    fn replicated_router_attributes_responses_per_replica_version() {
        let stream = quick_stream();
        let mut engine = CerlEngineBuilder::new(quick_cfg()).seed(3).build().unwrap();
        engine
            .observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        let x = stream.domain(0).test.x.slice_rows(0, 4);
        let reference = engine.predict_ite(&x).unwrap();

        let map = cerl_core::snapshot::ShardMap::from_replicas(2, &[(0, vec![0, 1])]).unwrap();
        let router = Arc::new(ShardRouter::new(vec![engine.clone(), engine], map).unwrap());
        router.set_route_policy(Arc::new(cerl_serve::RoundRobin::new()));
        let server = NetServer::bind(
            "127.0.0.1:0",
            NetBackend::Router(Arc::clone(&router)),
            NetServerConfig {
                admin_bind: Some("127.0.0.1:0".into()),
                ..NetServerConfig::default()
            },
        )
        .unwrap();

        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let tags = vec![0u64; x.rows()];
        for _ in 0..6 {
            let ite = client.predict(&tags, &x, None).unwrap();
            for (a, b) in ite.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "replicas must answer bitwise");
            }
        }

        let mut admin = NetClient::connect(server.admin_addr().unwrap()).unwrap();
        let metrics = admin.scrape_metrics().unwrap();
        let stats = server.shutdown().unwrap();
        // Round-robin alternates the domain between its two replicas:
        // six serial single-domain requests split 3/3, both at the
        // engines' published version 1 — the wire never carried any of
        // this, yet every response is attributed.
        assert_eq!(
            stats.replica_served(),
            [
                ReplicaServed {
                    replica: Some((0, 1)),
                    responses: 3
                },
                ReplicaServed {
                    replica: Some((1, 1)),
                    responses: 3
                },
            ]
        );
        for row in [
            r#"cerl_net_replica_responses_total{shard="0",version="1"} 3"#,
            r#"cerl_net_replica_responses_total{shard="1",version="1"} 3"#,
        ] {
            assert!(metrics.contains(row), "missing `{row}` in:\n{metrics}");
        }
    }

    #[test]
    fn hostile_frames_get_a_typed_answer_and_a_close_without_hurting_others() {
        let stream = quick_stream();
        let (server, serving) = scheduler_server(&stream);
        let x = stream.domain(0).test.x.slice_rows(0, 4);
        let reference = serving.predict_ite(&x).unwrap();
        let tags = vec![0u64; x.rows()];

        let mut healthy = NetClient::connect(server.local_addr()).unwrap();
        let mut hostile = NetClient::connect(server.local_addr()).unwrap();

        // A frame whose payload is garbage: typed MalformedRequest, then
        // the server hangs up on the corrupt stream.
        let mut frame = Vec::new();
        frame.extend_from_slice(&8u32.to_le_bytes());
        frame.extend_from_slice(&[0xFF; 8]);
        hostile.send_raw(&frame).unwrap();
        match hostile.recv_response().unwrap() {
            Response::Error { status, .. } => assert_eq!(status, Status::MalformedRequest),
            other => panic!("expected error response, got {other:?}"),
        }
        match hostile.recv_response() {
            Err(NetError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected EOF after protocol fault, got {other:?}"),
        }

        // The healthy connection is completely unaffected.
        let ite = healthy.predict(&tags, &x, None).unwrap();
        assert_eq!(ite, reference);

        let stats = server.shutdown().unwrap();
        assert_eq!(stats.malformed, 1);
        assert_eq!(stats.rejected_client, 1);
        assert_eq!(stats.rejected_serve, 0);
        assert_eq!(stats.responses_ok, 1);
    }

    #[test]
    fn admin_plane_and_udp_probe_report_live_state() {
        let stream = quick_stream();
        let mut engine = CerlEngineBuilder::new(quick_cfg()).seed(3).build().unwrap();
        engine
            .observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        let serving = Arc::new(ServingEngine::new(engine));
        let scheduler = Arc::new(BatchScheduler::new(
            Arc::clone(&serving),
            BatchConfig {
                max_wait: Duration::from_millis(2),
                ..BatchConfig::default()
            },
        ));
        let ring = TraceRing::new(64, 1);
        let server = NetServer::bind(
            "127.0.0.1:0",
            NetBackend::Scheduler(scheduler),
            NetServerConfig {
                admin_bind: Some("127.0.0.1:0".into()),
                trace: Some(Arc::clone(&ring)),
                ..NetServerConfig::default()
            },
        )
        .unwrap();
        let admin_addr = server.admin_addr().unwrap();

        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let x = stream.domain(0).test.x.slice_rows(0, 4);
        let tags = vec![0u64; x.rows()];
        for _ in 0..5 {
            client.predict(&tags, &x, None).unwrap();
        }

        // The UDP probe answers any datagram without a TCP handshake.
        let udp = UdpSocket::bind("127.0.0.1:0").unwrap();
        udp.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        udp.send_to(b"ping", server.local_addr()).unwrap();
        let mut buf = [0u8; 64];
        let (n, _) = udp.recv_from(&mut buf).unwrap();
        let line = std::str::from_utf8(&buf[..n]).unwrap();
        assert!(line.starts_with("ok:1:"), "unexpected health line {line:?}");

        let mut admin = NetClient::connect(admin_addr).unwrap();
        let health = admin.health().unwrap();
        assert!(
            health.starts_with("ok:1:"),
            "unexpected health body {health:?}"
        );

        let metrics = admin.scrape_metrics().unwrap();
        assert!(
            metrics.contains("cerl_net_responses_ok_total 5"),
            "missing net counters:\n{metrics}"
        );
        assert!(
            metrics.contains("cerl_serve_requests_total"),
            "missing backend serving metrics:\n{metrics}"
        );
        assert!(
            metrics.contains("cerl_net_conn_requests_total{conn="),
            "missing per-connection rows:\n{metrics}"
        );
        assert!(
            metrics.contains("cerl_obs_trace_sampled_total 5"),
            "missing trace accounting:\n{metrics}"
        );
        assert!(
            metrics.contains("# TYPE cerl_serve_queue_wait_seconds histogram"),
            "missing latency histogram:\n{metrics}"
        );

        // Every request was sampled (1-in-1) and every span completed
        // with monotone stamps through the written stage.
        let spans = ring.dump(16);
        assert_eq!(spans.len(), 5);
        for span in &spans {
            assert!(span.is_monotone());
            assert!(span.stamp(cerl_obs::Stage::Written).is_some());
        }
        let dump = admin.trace_dump().unwrap();
        assert!(dump.contains("span id="), "no spans in dump:\n{dump}");

        // A predict frame on the admin port is rejected as malformed
        // without touching the backend.
        let mut confused = NetClient::connect(admin_addr).unwrap();
        let mut frame = Vec::new();
        wire::encode_request(
            &Request {
                request_id: 9,
                deadline_ms: 0,
                cols: 1,
                tags: vec![0],
                covariates: vec![1.0],
            },
            &mut frame,
        );
        confused.send_raw(&frame).unwrap();
        let AdminResponse { status, .. } = confused.recv_admin_response().unwrap();
        assert_eq!(status, Status::MalformedRequest);

        let stats = server.shutdown().unwrap();
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.responses_ok, 5);
        assert_eq!(stats.admin_requests, 3);
        assert!(stats.peak_connections >= 3, "{stats:?}");
        assert_eq!(stats.malformed, 1);
    }

    #[test]
    fn rejects_connections_past_the_limit() {
        let stream = quick_stream();
        let mut engine = CerlEngineBuilder::new(quick_cfg()).seed(3).build().unwrap();
        engine
            .observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        let serving = Arc::new(ServingEngine::new(engine));
        let scheduler = Arc::new(BatchScheduler::with_defaults(serving));
        let server = NetServer::bind(
            "127.0.0.1:0",
            NetBackend::Scheduler(scheduler),
            NetServerConfig {
                max_connections: 2,
                ..NetServerConfig::default()
            },
        )
        .unwrap();

        let _a = NetClient::connect(server.local_addr()).unwrap();
        let _b = NetClient::connect(server.local_addr()).unwrap();
        let mut c = NetClient::connect(server.local_addr()).unwrap();
        // The third connection is accepted then immediately closed.
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match c.recv_response() {
            Err(NetError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected over-limit close, got {other:?}"),
        }
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.accepted, 3);
        assert!(stats.closed >= 1);
    }
}
