//! Shard-per-domain routing: one serving fleet, N independently
//! hot-swappable engines.
//!
//! The paper's deployment is inherently sharded: observational data
//! arrives *per domain* (a city, a cohort, a geography), and each
//! domain's estimator retrains on its own cadence. [`ShardRouter`] fronts
//! N [`ServingEngine`] shards with a
//! [`ShardMap`] — the `domain → shard`
//! assignment that also travels inside snapshot metadata
//! ([`ModelSnapshot::shard_map`](cerl_core::snapshot::ModelSnapshot)) so
//! a replica restoring from bytes learns the fleet topology along with
//! its weights:
//!
//! * **Routing.** [`ShardRouter::predict_ite`] resolves the request's
//!   domain id through the map and serves it from a shard of that
//!   domain's replica-set — through the shard's [`BatchScheduler`] when
//!   the router was built [`with_batching`](ShardRouter::with_batching),
//!   directly otherwise. Unknown domains fail fast with
//!   [`ServeError::UnknownDomain`].
//! * **Replicated domains and the policy contract.** A
//!   [`ShardMap`] may serve one domain from *several* identical shards
//!   (a [`ReplicaSet`] — the read-scaling answer to one celebrity
//!   domain saturating one engine). Which replica serves a given
//!   sub-batch is decided by the router's pluggable
//!   [`RoutePolicy`] ([`set_route_policy`](ShardRouter::set_route_policy);
//!   default [`LeastLoaded`]). The contract, machine-checked by the
//!   property suite: **policy choice may never change results, only
//!   placement** — replicas serve identical models and per-row
//!   inference is shard-independent, so every policy returns rows
//!   bitwise identical to an unreplicated reference; a policy answer
//!   outside the replica-set is ignored in favor of the set's primary.
//!   Single-replica domains skip the policy entirely and route exactly
//!   as they did before replication existed. Replica membership changes
//!   ride the same machinery as rebalancing:
//!   [`begin_add_replica`](ShardRouter::begin_add_replica) stages +
//!   probes, [`commit_rebalance`](ShardRouter::commit_rebalance)
//!   publishes then flips the map, while
//!   [`drain_replica`](ShardRouter::drain_replica) /
//!   [`restore_replica`](ShardRouter::restore_replica) /
//!   [`remove_replica`](ShardRouter::remove_replica) take a replica out
//!   of rotation reversibly, then for good.
//! * **Independent hot swaps.** [`ShardRouter::swap_shard_engine`] /
//!   [`ShardRouter::swap_shard_snapshot_bytes`] publish a new version on
//!   one shard (with the warm-up probe of
//!   [`swap_engine_warm`](ServingEngine::swap_engine_warm) — a broken
//!   successor is never published) while every other shard keeps serving
//!   undisturbed.
//! * **Cross-shard queries.** [`ShardRouter::predict_ite_scatter`]
//!   serves a *mixed-domain* request — every row carries its own domain
//!   tag — by demultiplexing rows into per-shard sub-batches (original
//!   row order preserved within each sub-batch), fanning the sub-batches
//!   out through each shard's scheduler (or a pinned
//!   [`predict_ite_parallel`](ServingEngine::predict_ite_parallel) pass
//!   when unbatched), and gathering the slices back into submission
//!   order. Per-row inference is batch-independent, so the merged result
//!   is **bitwise identical** to a single unsharded engine serving the
//!   same rows (property-tested in `tests/property_based.rs`).
//! * **Zero-downtime rebalancing.** [`ShardRouter::begin_rebalance`]
//!   stages a successor engine for the destination shard (probed at
//!   staging time — see
//!   [`probe_successor`](ServingEngine::probe_successor)) and opens the
//!   *dual-route window*: the routing map is untouched, so reads of the
//!   moving domain keep landing on the source shard, which still holds
//!   it. [`ShardRouter::commit_rebalance`] publishes the staged engine on
//!   the destination **first** (a warm swap) and only then flips the
//!   [`ShardMap`] with a single `Arc` replacement — requests pin the map
//!   once per call, so each one observes either the old or the new
//!   topology in full, never a torn mixture, and whichever shard a
//!   request routes to held the domain at the instant its map was
//!   pinned. [`ShardRouter::abort_rebalance`] drops the staged engine;
//!   nothing was ever published, so rollback is a no-op for readers.
//! * **Observability.** The router keeps its own [`ServeStats`]
//!   (end-to-end latency, per-version request accounting across the
//!   fleet, scatter fan-out shape); [`ShardRouter::shard_stats`] exposes
//!   each shard scheduler's queue-wait and batch-shape numbers for
//!   canary watching.

use crate::error::ServeError;
use crate::orchestrator::{CanarySnapshot, ShardLoad};
use crate::policy::{LeastLoaded, RouteContext, RoutePolicy};
use crate::scheduler::{BatchConfig, BatchScheduler, ResponseHandle, ServeMetrics, ServeStats};
use cerl_core::engine::CerlEngine;
use cerl_core::error::CerlError;
use cerl_core::serving::ServingEngine;
use cerl_core::snapshot::{ModelSnapshot, ReplicaSet, ShardMap};
use cerl_math::Matrix;
use cerl_obs::{DomainCounters, MetricsRegistry, Stage, TraceSpan};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::task::{Context, Poll};
use std::time::Instant;

/// One shard of the fleet: the hot-swappable engine plus its optional
/// batching front-end.
struct ShardSlot {
    engine: Arc<ServingEngine>,
    scheduler: Option<BatchScheduler>,
}

/// An in-flight topology change: staged at `begin_rebalance` /
/// `begin_add_replica`, consumed by `commit_rebalance` /
/// `abort_rebalance`. While one of these is pending the routing map is
/// unchanged — the staged engine is invisible to readers until the
/// commit publishes it.
enum PendingChange {
    /// Move `domain`'s replica from shard `from` to shard `to`.
    Move {
        domain: u64,
        from: usize,
        to: usize,
        staged: CerlEngine,
    },
    /// Add a replica of `domain` on `shard` (read scaling).
    AddReplica {
        domain: u64,
        shard: usize,
        staged: CerlEngine,
    },
}

impl PendingChange {
    fn domain(&self) -> u64 {
        match self {
            PendingChange::Move { domain, .. } | PendingChange::AddReplica { domain, .. } => {
                *domain
            }
        }
    }
}

/// Outcome of one cross-shard scatter-gather request
/// ([`ShardRouter::predict_ite_scatter_versioned`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScatterResponse {
    /// Predicted ITEs in the request's original row order.
    pub ite: Vec<f64>,
    /// `(shard, engine version)` for every shard that served part of the
    /// request, ascending by shard index. Each sub-batch ran against one
    /// pinned version, so every output row is attributable to exactly
    /// one entry here — via its row's domain tag and the pinned map for
    /// single-replica domains, or via
    /// [`ScatterResponse::placements`] when a routing policy chose among
    /// replicas.
    pub shard_versions: Vec<(usize, u64)>,
    /// `(domain, shard)` placements the routing policy made for this
    /// request, ascending by domain — the per-replica attribution trail:
    /// a row's domain tag resolves here to the shard (and through
    /// [`ScatterResponse::shard_versions`] to the exact engine version)
    /// that served it. Empty when the pinned topology had no replicated
    /// domain: attribution then follows the map itself, exactly as
    /// before replication existed.
    pub placements: Vec<(u64, usize)>,
}

/// In-flight response of a [`ShardRouter::submit_scatter`] call.
///
/// Resolves once every participating shard's sub-batch has answered;
/// consume it by blocking ([`ScatterHandle::wait`]) or by `.await`ing /
/// polling it. Polling drives each still-pending per-shard
/// [`ResponseHandle`] with the caller's waker, so a reactor wakes
/// exactly when a sub-batch lands. Any sub-batch failure fails the
/// whole request with that sub-batch's typed error (sub-batches already
/// submitted still execute; their slices are discarded). Dropping the
/// handle abandons the request the same way.
#[must_use = "submit_scatter() only enqueues; wait() or poll to receive the prediction"]
pub struct ScatterHandle {
    rows: usize,
    rows_by_shard: Vec<Vec<usize>>,
    placements: Vec<(u64, usize)>,
    pending: Vec<(usize, ResponseHandle)>,
    resolved: Vec<(usize, u64, Vec<f64>)>,
    submitted: Instant,
    metrics: Arc<ServeMetrics>,
    trace: Option<TraceSpan>,
    done: bool,
}

impl ScatterHandle {
    /// Block until every sub-batch has answered and gather the merged
    /// [`ScatterResponse`].
    pub fn wait(mut self) -> Result<ScatterResponse, ServeError> {
        while !self.pending.is_empty() {
            let (shard, handle) = self.pending.remove(0);
            match handle.wait() {
                Ok((version, slice)) => self.resolved.push((shard, version, slice)),
                Err(e) => return Err(self.fail(e)),
            }
        }
        Ok(self.finish())
    }

    fn fail(&mut self, e: ServeError) -> ServeError {
        self.done = true;
        if let Some(trace) = &self.trace {
            trace.stamp(Stage::Gathered);
        }
        self.metrics.record_rejection(&e);
        e
    }

    /// Gather resolved slices into submission order and record the
    /// request (shared tail of `wait` and `poll`).
    fn finish(&mut self) -> ScatterResponse {
        self.done = true;
        if let Some(trace) = &self.trace {
            trace.stamp(Stage::Gathered);
        }
        let mut ite = vec![0.0f64; self.rows];
        self.resolved.sort_unstable_by_key(|&(shard, _, _)| shard);
        let mut shard_versions = Vec::with_capacity(self.resolved.len());
        for (shard, version, slice) in &self.resolved {
            // panic-ok: resolved entries were produced from
            // rows_by_shard's own enumerate() indices.
            gather(&mut ite, &self.rows_by_shard[*shard], slice);
            shard_versions.push((*shard, *version));
        }
        self.metrics
            .record_scatter(&shard_versions, self.submitted.elapsed());
        ScatterResponse {
            ite,
            shard_versions,
            placements: std::mem::take(&mut self.placements),
        }
    }
}

impl Future for ScatterHandle {
    type Output = Result<ScatterResponse, ServeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        // panic-ok: Future contract violation by the caller — polling
        // after Ready is a programming error, not a serving fault.
        assert!(!this.done, "ScatterHandle polled after completion");
        let mut i = 0;
        while i < this.pending.len() {
            // panic-ok: i < pending.len() by the loop condition.
            match Pin::new(&mut this.pending[i].1).poll(cx) {
                Poll::Pending => i += 1,
                Poll::Ready(outcome) => {
                    let (shard, _) = this.pending.swap_remove(i);
                    match outcome {
                        Ok((version, slice)) => this.resolved.push((shard, version, slice)),
                        Err(e) => return Poll::Ready(Err(this.fail(e))),
                    }
                }
            }
        }
        if this.pending.is_empty() {
            Poll::Ready(Ok(this.finish()))
        } else {
            Poll::Pending
        }
    }
}

/// Domain-keyed router over N independently hot-swappable serving shards
/// (see the [module docs](self)).
pub struct ShardRouter {
    shards: Vec<ShardSlot>,
    /// The routing topology, swapped atomically on a rebalance commit.
    /// Requests clone the `Arc` once and route every row of the request
    /// through that pinned topology.
    map: RwLock<Arc<ShardMap>>,
    /// At most one topology change stages at a time; the mutex also
    /// serializes begin/commit/abort and the drain/restore map flips
    /// against each other (the map `RwLock` alone orders readers, but
    /// read-modify-write sequences need this).
    rebalance: Mutex<Option<PendingChange>>,
    /// Which replica serves a replicated domain's sub-batch. Swappable
    /// at runtime; never consulted for single-replica domains.
    policy: RwLock<Arc<dyn RoutePolicy>>,
    /// Replicas taken out of rotation by `drain_replica` and still
    /// restorable (their engines keep holding the domain).
    draining: Mutex<Vec<(u64, usize)>>,
    /// Per-domain request/row counters — the hot-domain attribution
    /// signal behind `cerl_serve_domain_*` registry rows.
    domains: DomainCounters,
    metrics: Arc<ServeMetrics>,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.shards.len())
            .field("domains", &self.map().len())
            .field(
                "batched",
                &self.shards.first().is_some_and(|s| s.scheduler.is_some()),
            )
            .field("rebalancing", &self.rebalance_in_progress())
            .finish_non_exhaustive()
    }
}

impl ShardRouter {
    /// Build an unbatched router: requests go straight to their shard's
    /// engine. `engines[i]` serves shard `i`; the map must declare
    /// exactly `engines.len()` shards.
    pub fn new(engines: Vec<CerlEngine>, map: ShardMap) -> Result<Self, ServeError> {
        Self::build(engines, map, None)
    }

    /// Build a router with a [`BatchScheduler`] (one per shard, same
    /// knobs) coalescing each shard's traffic.
    pub fn with_batching(
        engines: Vec<CerlEngine>,
        map: ShardMap,
        batch: BatchConfig,
    ) -> Result<Self, ServeError> {
        Self::build(engines, map, Some(batch))
    }

    /// Rebuild a fleet from per-shard snapshot bytes. The shard map is
    /// read from the snapshot metadata (every replica that carries one
    /// must agree), and when the replicas also carry their shard index
    /// ([`ShardRouter::shard_snapshot_bytes`] always embeds it) each one
    /// is seated at that index, so the order replicas were fetched from
    /// a registry in does not matter. Index-free replicas (all or none —
    /// mixing is rejected) are seated positionally: shard `i` restores
    /// from `replicas[i]`.
    pub fn from_snapshot_bytes(
        replicas: &[Vec<u8>],
        batch: Option<BatchConfig>,
    ) -> Result<Self, ServeError> {
        let mut seats: Vec<Option<CerlEngine>> = (0..replicas.len()).map(|_| None).collect();
        let mut positional = Vec::new();
        let mut map: Option<ShardMap> = None;
        for bytes in replicas {
            let snapshot = ModelSnapshot::from_bytes(bytes).map_err(ServeError::Engine)?;
            match (&map, &snapshot.shard_map) {
                (None, Some(found)) => map = Some(found.clone()),
                (Some(agreed), Some(found)) if agreed != found => {
                    // Name the disagreement: a registry captured
                    // mid-rebalance shows up as a `moved` entry, which is
                    // far more actionable than "maps differ".
                    let diff = agreed.diff(found);
                    let detail = if diff.is_empty() {
                        "shard counts differ".to_string()
                    } else {
                        diff.moved
                            .iter()
                            .map(ToString::to_string)
                            .chain(diff.added.iter().map(|a| {
                                format!(
                                    "domain {} only in one map (replica-set {})",
                                    a.domain, a.replicas
                                )
                            }))
                            .chain(
                                diff.removed
                                    .iter()
                                    .map(|a| format!("domain {} missing from one map", a.domain)),
                            )
                            .collect::<Vec<_>>()
                            .join("; ")
                    };
                    return Err(invalid_fleet(format!(
                        "replica snapshots carry conflicting shard maps: {detail}"
                    )));
                }
                _ => {}
            }
            let shard_index = snapshot.shard_index;
            let engine = CerlEngine::from_snapshot(snapshot).map_err(ServeError::Engine)?;
            match shard_index {
                Some(shard) => {
                    let seat = seats.get_mut(shard).ok_or_else(|| {
                        invalid_fleet(format!(
                            "replica claims shard {shard} but only {} replica(s) were provided",
                            replicas.len()
                        ))
                    })?;
                    if seat.is_some() {
                        return Err(invalid_fleet(format!("two replicas claim shard {shard}")));
                    }
                    *seat = Some(engine);
                }
                None => positional.push(engine),
            }
        }
        let map =
            map.ok_or_else(|| invalid_fleet("no replica snapshot carries a shard map".into()))?;
        if map.shard_count() != replicas.len() {
            return Err(ServeError::FleetSizeMismatch {
                expected: map.shard_count(),
                found: replicas.len(),
            });
        }
        let engines = if positional.len() == replicas.len() {
            positional
        } else if positional.is_empty() {
            // Every replica named its seat; seats.len() == replicas.len()
            // and no seat was claimed twice, so all are filled.
            seats.into_iter().flatten().collect()
        } else {
            return Err(invalid_fleet(
                "some replica snapshots carry a shard index and some do not".into(),
            ));
        };
        Self::build(engines, map, batch)
    }

    fn build(
        engines: Vec<CerlEngine>,
        map: ShardMap,
        batch: Option<BatchConfig>,
    ) -> Result<Self, ServeError> {
        if engines.is_empty() {
            return Err(invalid_fleet("a fleet needs at least one shard".into()));
        }
        if map.shard_count() != engines.len() {
            return Err(invalid_fleet(format!(
                "shard map declares {} shard(s) but {} engine(s) were provided",
                map.shard_count(),
                engines.len()
            )));
        }
        let shards = engines
            .into_iter()
            .map(|engine| {
                let engine = Arc::new(ServingEngine::new(engine));
                let scheduler = batch
                    .as_ref()
                    .map(|cfg| BatchScheduler::new(Arc::clone(&engine), cfg.clone()));
                ShardSlot { engine, scheduler }
            })
            .collect();
        Ok(Self {
            shards,
            map: RwLock::new(Arc::new(map)),
            rebalance: Mutex::new(None),
            policy: RwLock::new(Arc::new(LeastLoaded)),
            draining: Mutex::new(Vec::new()),
            domains: DomainCounters::new(),
            metrics: Arc::new(ServeMetrics::default()),
        })
    }

    /// Swap the replica routing policy (default [`LeastLoaded`]). Takes
    /// effect for requests submitted after the call; in-flight requests
    /// finish under the policy they started with. Policies never change
    /// results, only placement (see the [module docs](self)), so
    /// swapping mid-traffic is always safe.
    pub fn set_route_policy(&self, policy: Arc<dyn RoutePolicy>) {
        *self.policy.write().unwrap_or_else(PoisonError::into_inner) = policy;
    }

    /// The replica routing policy currently in effect.
    pub fn route_policy(&self) -> Arc<dyn RoutePolicy> {
        self.policy
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Ask the current policy which replica serves `rows` rows of
    /// `domain` under `replicas`. Single-replica sets short-circuit to
    /// the one member without touching the policy or assembling fleet
    /// state; a policy answer outside the set degrades to the primary.
    fn choose_replica(&self, domain: u64, rows: usize, replicas: &ReplicaSet) -> usize {
        if replicas.len() == 1 {
            return replicas.primary();
        }
        let policy = self.route_policy();
        let loads = self.shard_loads();
        let versions = self.shard_versions();
        let ctx = RouteContext {
            loads: &loads,
            versions: &versions,
        };
        let choice = policy.choose(domain, rows, replicas, &ctx);
        if replicas.contains(choice) {
            choice
        } else {
            replicas.primary()
        }
    }

    /// Resolve the *primary* shard serving `domain` under the current
    /// topology (the smallest replica id — the whole replica-set for a
    /// replicated domain comes from [`ShardRouter::replicas`]; which
    /// replica a given request actually lands on is the
    /// [`RoutePolicy`]'s call).
    pub fn route(&self, domain: u64) -> Result<usize, ServeError> {
        self.map()
            .shard_for(domain)
            .ok_or(ServeError::UnknownDomain { domain })
    }

    /// The full replica-set serving `domain` under the current topology.
    pub fn replicas(&self, domain: u64) -> Result<ReplicaSet, ServeError> {
        self.map()
            .replicas_for(domain)
            .cloned()
            .ok_or(ServeError::UnknownDomain { domain })
    }

    /// Predicted ITEs for one request belonging to `domain`.
    pub fn predict_ite(&self, domain: u64, x: &Matrix) -> Result<Vec<f64>, ServeError> {
        Ok(self.predict_ite_versioned(domain, x)?.1)
    }

    /// Like [`ShardRouter::predict_ite`], also reporting the engine
    /// version (of the serving shard) that answered.
    pub fn predict_ite_versioned(
        &self,
        domain: u64,
        x: &Matrix,
    ) -> Result<(u64, Vec<f64>), ServeError> {
        let start = Instant::now();
        let outcome = self
            .map()
            .replicas_for(domain)
            .ok_or(ServeError::UnknownDomain { domain })
            .map(|replicas| self.choose_replica(domain, x.rows(), replicas))
            .and_then(|shard| {
                // panic-ok: the pinned map's replica ids were validated
                // against the fleet size at construction.
                let slot = &self.shards[shard];
                match &slot.scheduler {
                    Some(scheduler) => scheduler.predict_ite_versioned(x),
                    None => slot
                        .engine
                        .predict_ite_versioned(x)
                        .map_err(ServeError::from),
                }
            });
        match outcome {
            Ok((version, ite)) => {
                self.domains.record(domain, x.rows() as u64);
                self.metrics.record_response(version, start.elapsed());
                Ok((version, ite))
            }
            Err(e) => {
                self.metrics.record_rejection(&e);
                Err(e)
            }
        }
    }

    /// Predicted ITEs for a mixed-domain request: row `i` of `x` belongs
    /// to `domains[i]`. Rows are demuxed into per-shard sub-batches,
    /// fanned out, and gathered back into the original row order — the
    /// merged result is bitwise identical to one unsharded engine
    /// serving the same rows.
    pub fn predict_ite_scatter(&self, domains: &[u64], x: &Matrix) -> Result<Vec<f64>, ServeError> {
        Ok(self.predict_ite_scatter_versioned(domains, x)?.ite)
    }

    /// Like [`ShardRouter::predict_ite_scatter`], also reporting which
    /// shards (and which engine versions) answered.
    ///
    /// The topology is pinned **once** for the whole request: every row
    /// routes through the same [`ShardMap`] even if a rebalance commits
    /// mid-call, and each sub-batch runs against one pinned engine
    /// version of its shard. Any sub-batch failure fails the whole
    /// request with that sub-batch's typed error (sub-batches already
    /// submitted still execute; their slices are discarded).
    pub fn predict_ite_scatter_versioned(
        &self,
        domains: &[u64],
        x: &Matrix,
    ) -> Result<ScatterResponse, ServeError> {
        self.submit_scatter(domains, x)?.wait()
    }

    /// Enqueue one mixed-domain request without blocking for its result.
    ///
    /// The demux and per-shard submissions happen here (so topology is
    /// pinned and row order fixed at call time); the returned
    /// [`ScatterHandle`] resolves — by blocking
    /// ([`ScatterHandle::wait`]) or by polling (it is a [`Future`]) —
    /// once every shard's sub-batch has answered. On a **batched** fleet
    /// this call never blocks on inference, which is what lets a single
    /// reactor thread keep thousands of scatter requests in flight; on
    /// an unbatched fleet each shard's pinned parallel pass runs inline
    /// before this returns.
    pub fn submit_scatter(&self, domains: &[u64], x: &Matrix) -> Result<ScatterHandle, ServeError> {
        self.submit_scatter_traced(domains, x, None)
    }

    /// [`ShardRouter::submit_scatter`] with an optional trace span whose
    /// stage stamps follow the request through every shard's scheduler.
    ///
    /// All sub-batches share the one span: each stage up to inference
    /// records the *earliest* time any sub-batch reached it
    /// (first-writer-wins in [`cerl_obs::TraceSpan::stamp`]), while
    /// `Gathered` is stamped once, when the *last* sub-batch settles,
    /// so the gather-to-write gap is the write and not the skew between
    /// shards. Completion stays with the caller — the
    /// router never calls [`cerl_obs::TraceSpan::complete`].
    pub fn submit_scatter_traced(
        &self,
        domains: &[u64],
        x: &Matrix,
        trace: Option<TraceSpan>,
    ) -> Result<ScatterHandle, ServeError> {
        match self.scatter_submit(domains, x, trace) {
            Ok(handle) => Ok(handle),
            Err(e) => {
                self.metrics.record_rejection(&e);
                Err(e)
            }
        }
    }

    fn scatter_submit(
        &self,
        domains: &[u64],
        x: &Matrix,
        trace: Option<TraceSpan>,
    ) -> Result<ScatterHandle, ServeError> {
        let submitted = Instant::now();
        if domains.len() != x.rows() {
            return Err(ServeError::DomainTagMismatch {
                rows: x.rows(),
                tags: domains.len(),
            });
        }
        if x.rows() == 0 {
            return Err(ServeError::Engine(CerlError::EmptyInput {
                what: "scatter request matrix has no rows",
            }));
        }
        // Pin the topology once; resolve every row before any work runs
        // so an unknown domain rejects the request without partial
        // execution.
        let map = self.map();
        let mut rows_by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        // Group rows per domain: hot-domain counters attribute whole
        // sub-batches, and a routing policy places a domain's sub-batch
        // knowing its size. Ascending by domain.
        let mut groups: Vec<(u64, usize)> = Vec::new();
        for &domain in domains {
            match groups.binary_search_by_key(&domain, |g| g.0) {
                // panic-ok: binary_search returned an occupied index.
                Ok(i) => groups[i].1 += 1,
                Err(i) => groups.insert(i, (domain, 1)),
            }
        }
        // Place every domain's sub-batch: the one mapped shard for
        // single-replica domains (bitwise identical to the
        // pre-replication router), the policy's pick otherwise.
        let mut placements: Vec<(u64, usize)> = Vec::with_capacity(groups.len());
        let mut replicated = false;
        for &(domain, rows) in &groups {
            let replicas = map
                .replicas_for(domain)
                .ok_or(ServeError::UnknownDomain { domain })?;
            replicated |= replicas.len() > 1;
            let shard = self.choose_replica(domain, rows, replicas);
            placements.push((domain, shard));
            self.domains.record(domain, rows as u64);
        }
        for (row, &domain) in domains.iter().enumerate() {
            let shard = match placements.binary_search_by_key(&domain, |g| g.0) {
                // panic-ok: every request domain was placed above.
                Ok(i) => placements[i].1,
                Err(_) => unreachable!("domain placed above"), // panic-ok: see Ok arm
            };
            // panic-ok: placements hold members of validated
            // replica-sets, all < shards.len().
            rows_by_shard[shard].push(row);
        }
        // The attribution trail is only carried when a policy actually
        // had a choice; with no replicated domain in the request,
        // attribution follows the pinned map exactly as before.
        if !replicated {
            placements.clear();
        }

        // Fan out: with batching, submit every sub-batch before waiting
        // on any, so the shards' collector threads coalesce and execute
        // them concurrently (a sub-batch small enough for an idle
        // shard's inline pass runs here); unbatched shards run a pinned
        // parallel pass inline. `rows_by_shard[shard]` is ascending, so
        // each sub-batch preserves the request's original row order.
        let mut pending: Vec<(usize, ResponseHandle)> = Vec::new();
        let mut resolved: Vec<(usize, u64, Vec<f64>)> = Vec::new();
        for (shard, rows) in rows_by_shard
            .iter()
            .enumerate()
            .filter(|(_, rows)| !rows.is_empty())
        {
            let sub = x.select_rows(rows);
            // panic-ok: shard is an enumerate() index over a Vec sized
            // to shards.len() (both sites in this arm).
            match &self.shards[shard].scheduler {
                Some(scheduler) => {
                    let handle = scheduler.submit_traced(sub, trace.clone())?;
                    pending.push((shard, handle.without_gathered_stamp()));
                }
                None => {
                    // panic-ok: same enumerate() bound as above.
                    let (version, slice) = self.shards[shard]
                        .engine
                        .predict_ite_parallel_versioned(&sub, 0)
                        .map_err(ServeError::Engine)?;
                    resolved.push((shard, version, slice));
                }
            }
        }
        Ok(ScatterHandle {
            rows: x.rows(),
            rows_by_shard,
            placements,
            pending,
            resolved,
            submitted,
            metrics: Arc::clone(&self.metrics),
            trace,
            done: false,
        })
    }

    /// Stage a rebalance: move `domain` to `to_shard`, whose next engine
    /// will be `successor` (an engine that holds the domain — typically
    /// the destination's current model retrained on the domain's data, or
    /// a snapshot restored from the source shard).
    ///
    /// The successor is probed immediately (staging fails fast if it
    /// cannot serve) but **not** published: this call opens the
    /// dual-route window in which the routing map still sends the
    /// domain's reads to its current shard. Only one rebalance may be in
    /// flight per router.
    pub fn begin_rebalance(
        &self,
        domain: u64,
        to_shard: usize,
        successor: CerlEngine,
    ) -> Result<(), ServeError> {
        let from = self.route(domain)?;
        self.begin_move_replica(domain, from, to_shard, successor)
    }

    /// [`ShardRouter::begin_rebalance`] for an explicit source replica:
    /// move `domain`'s replica on `from_shard` to `to_shard`. For a
    /// single-replica domain `from_shard` is its one shard and this is
    /// exactly `begin_rebalance`; for a replicated domain it names which
    /// member of the replica-set moves.
    pub fn begin_move_replica(
        &self,
        domain: u64,
        from_shard: usize,
        to_shard: usize,
        successor: CerlEngine,
    ) -> Result<(), ServeError> {
        let mut pending = self
            .rebalance
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(p) = pending.as_ref() {
            return Err(ServeError::RebalanceInProgress { domain: p.domain() });
        }
        let replicas = self.replicas(domain)?;
        if to_shard >= self.shards.len() {
            return Err(ServeError::UnknownShard {
                shard: to_shard,
                shards: self.shards.len(),
            });
        }
        if !replicas.contains(from_shard) {
            return Err(invalid_fleet(format!(
                "domain {domain} has no replica on shard {from_shard} (replica-set {replicas})"
            )));
        }
        if replicas.contains(to_shard) {
            return Err(ServeError::ReplicaAlreadyServing {
                domain,
                shard: to_shard,
            });
        }
        ServingEngine::probe_successor(&successor).map_err(ServeError::Engine)?;
        *pending = Some(PendingChange::Move {
            domain,
            from: from_shard,
            to: to_shard,
            staged: successor,
        });
        Ok(())
    }

    /// Stage a read-scaling replica: `domain`'s replica-set grows by
    /// `shard`, whose next engine will be `successor` (which must hold
    /// the domain — typically restored from another replica's snapshot
    /// bytes).
    ///
    /// Mirrors [`ShardRouter::begin_rebalance`]'s contract exactly: the
    /// successor is probed now but **not** published, the map is
    /// untouched until [`commit_rebalance`](ShardRouter::commit_rebalance)
    /// (which publishes the engine *first*, then grows the set in one
    /// `Arc` flip), and [`abort_rebalance`](ShardRouter::abort_rebalance)
    /// drops the staged engine without readers ever seeing it.
    pub fn begin_add_replica(
        &self,
        domain: u64,
        shard: usize,
        successor: CerlEngine,
    ) -> Result<(), ServeError> {
        let mut pending = self
            .rebalance
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(p) = pending.as_ref() {
            return Err(ServeError::RebalanceInProgress { domain: p.domain() });
        }
        let replicas = self.replicas(domain)?;
        if shard >= self.shards.len() {
            return Err(ServeError::UnknownShard {
                shard,
                shards: self.shards.len(),
            });
        }
        if replicas.contains(shard) {
            return Err(ServeError::ReplicaAlreadyServing { domain, shard });
        }
        ServingEngine::probe_successor(&successor).map_err(ServeError::Engine)?;
        *pending = Some(PendingChange::AddReplica {
            domain,
            shard,
            staged: successor,
        });
        Ok(())
    }

    /// Take `domain`'s replica on `shard` out of rotation, reversibly.
    ///
    /// The map flips immediately (one `Arc` replacement — requests that
    /// pinned the old map finish against `shard`, which still holds the
    /// domain), and the replica enters the **draining** state: no new
    /// traffic, engine untouched, restorable in one call
    /// ([`restore_replica`](ShardRouter::restore_replica)) until
    /// [`remove_replica`](ShardRouter::remove_replica) finalizes.
    /// Refuses to unserve a domain ([`ServeError::LastReplica`]) and
    /// refuses while a staged change is pending (the staged change's
    /// commit was validated against the pre-drain topology).
    pub fn drain_replica(&self, domain: u64, shard: usize) -> Result<(), ServeError> {
        let pending = self
            .rebalance
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(p) = pending.as_ref() {
            return Err(ServeError::RebalanceInProgress { domain: p.domain() });
        }
        let map = self.map();
        let replicas = map
            .replicas_for(domain)
            .ok_or(ServeError::UnknownDomain { domain })?;
        if replicas.len() == 1 && replicas.contains(shard) {
            return Err(ServeError::LastReplica { domain, shard });
        }
        let flipped = map
            .with_replica_removed(domain, shard)
            .map_err(ServeError::Engine)?;
        *self.map.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(flipped);
        self.draining
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((domain, shard));
        Ok(())
    }

    /// Put a draining replica back into rotation: the reverse of
    /// [`drain_replica`](ShardRouter::drain_replica), one `Arc` flip.
    /// The engine never stopped holding the domain, so restored traffic
    /// serves immediately at the replica's published version.
    pub fn restore_replica(&self, domain: u64, shard: usize) -> Result<(), ServeError> {
        let pending = self
            .rebalance
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(p) = pending.as_ref() {
            return Err(ServeError::RebalanceInProgress { domain: p.domain() });
        }
        let mut draining = self.draining.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(at) = draining.iter().position(|&d| d == (domain, shard)) else {
            return Err(ServeError::ReplicaNotDraining { domain, shard });
        };
        let flipped = self
            .map()
            .with_replica_added(domain, shard)
            .map_err(ServeError::Engine)?;
        *self.map.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(flipped);
        draining.remove(at);
        Ok(())
    }

    /// Finalize a drained replica's removal: the `(domain, shard)` pair
    /// leaves the draining list and can no longer be restored. Pure
    /// bookkeeping — traffic already stopped at
    /// [`drain_replica`](ShardRouter::drain_replica), and the shard's
    /// engine is untouched (it may still serve *other* domains; the
    /// drained domain's rows simply never route there again).
    pub fn remove_replica(&self, domain: u64, shard: usize) -> Result<(), ServeError> {
        let mut draining = self.draining.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(at) = draining.iter().position(|&d| d == (domain, shard)) else {
            return Err(ServeError::ReplicaNotDraining { domain, shard });
        };
        draining.remove(at);
        Ok(())
    }

    /// Replicas currently draining (out of rotation, restorable), as
    /// `(domain, shard)` in drain order.
    pub fn draining_replicas(&self) -> Vec<(u64, usize)> {
        self.draining
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// [`ShardRouter::begin_rebalance`] with the successor shipped as
    /// snapshot bytes (parsed and validated before anything is staged).
    pub fn begin_rebalance_snapshot_bytes(
        &self,
        domain: u64,
        to_shard: usize,
        bytes: &[u8],
    ) -> Result<(), ServeError> {
        let successor = CerlEngine::load_bytes(bytes).map_err(ServeError::Engine)?;
        self.begin_rebalance(domain, to_shard, successor)
    }

    /// Commit the staged rebalance; returns the destination shard's new
    /// engine version.
    ///
    /// Ordering is the whole point: the staged engine is warm-swapped
    /// into the destination **before** the map flips, so from the moment
    /// a request can route the domain to the destination, the
    /// destination's published engine already holds it. The flip itself
    /// is a single `Arc` replacement — a request pins either the old map
    /// (routing to the source shard, which still answers) or the new one,
    /// never a torn mixture. If the final warm swap fails (the staged
    /// engine degraded between probe and publish — effectively never),
    /// the rebalance is cleared, the map is untouched, and the error is
    /// returned: equivalent to an abort.
    pub fn commit_rebalance(&self) -> Result<u64, ServeError> {
        let mut pending = self
            .rebalance
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let change = pending.take().ok_or(ServeError::NoRebalancePending)?;
        match change {
            PendingChange::Move {
                domain,
                from,
                to,
                staged,
            } => {
                // panic-ok: begin_move_replica validated `to` against the
                // fleet size before staging this change.
                let version = self.shards[to]
                    .engine
                    .swap_engine_warm(staged)
                    .map_err(ServeError::Engine)?;
                let flipped = self
                    .map()
                    .with_replica_replaced(domain, from, to)
                    .map_err(ServeError::Engine)?;
                *self.map.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(flipped);
                Ok(version)
            }
            PendingChange::AddReplica {
                domain,
                shard,
                staged,
            } => {
                // panic-ok: begin_add_replica validated `shard` against
                // the fleet size before staging this change.
                let version = self.shards[shard]
                    .engine
                    .swap_engine_warm(staged)
                    .map_err(ServeError::Engine)?;
                let flipped = self
                    .map()
                    .with_replica_added(domain, shard)
                    .map_err(ServeError::Engine)?;
                *self.map.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(flipped);
                Ok(version)
            }
        }
    }

    /// Drop the staged rebalance. Nothing was published during the
    /// window, so readers never observed the staged engine and the map is
    /// exactly as it was before [`ShardRouter::begin_rebalance`].
    pub fn abort_rebalance(&self) -> Result<(), ServeError> {
        self.rebalance
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .map(drop)
            .ok_or(ServeError::NoRebalancePending)
    }

    /// The in-flight replica move as `(domain, from_shard, to_shard)`,
    /// if one is staged (`None` while a replica *add* is staged — see
    /// [`ShardRouter::replica_add_in_progress`]).
    pub fn rebalance_in_progress(&self) -> Option<(u64, usize, usize)> {
        match self
            .rebalance
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            Some(PendingChange::Move {
                domain, from, to, ..
            }) => Some((*domain, *from, *to)),
            Some(PendingChange::AddReplica { .. }) | None => None,
        }
    }

    /// The in-flight replica add as `(domain, shard)`, if one is staged.
    pub fn replica_add_in_progress(&self) -> Option<(u64, usize)> {
        match self
            .rebalance
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            Some(PendingChange::AddReplica { domain, shard, .. }) => Some((*domain, *shard)),
            Some(PendingChange::Move { .. }) | None => None,
        }
    }

    /// The (warm) hot-swap of one shard: probe `engine` with one batch,
    /// then publish it as the shard's next version. Other shards are
    /// untouched; a successor that cannot serve is never published.
    pub fn swap_shard_engine(&self, shard: usize, engine: CerlEngine) -> Result<u64, ServeError> {
        Ok(self.shard(shard)?.swap_engine_warm(engine)?)
    }

    /// Warm snapshot swap of one shard (replica bytes shipped from a
    /// trainer): parsed, validated, and probed before the pointer moves.
    pub fn swap_shard_snapshot_bytes(&self, shard: usize, bytes: &[u8]) -> Result<u64, ServeError> {
        Ok(self.shard(shard)?.swap_snapshot_bytes_warm(bytes)?)
    }

    /// Snapshot bytes of one shard's current engine with the fleet's
    /// shard map embedded — what a registry should store so a restoring
    /// replica (or [`ShardRouter::from_snapshot_bytes`]) learns the
    /// topology too.
    pub fn shard_snapshot_bytes(&self, shard: usize) -> Result<Vec<u8>, ServeError> {
        let snapshot = self
            .shard(shard)?
            .current()
            .engine()
            .snapshot()
            .map_err(ServeError::Engine)?
            .with_shard_map(self.map().as_ref().clone())
            .with_shard_index(shard);
        snapshot.to_bytes().map_err(ServeError::Engine)
    }

    /// Direct handle to one shard's serving engine.
    pub fn shard(&self, shard: usize) -> Result<&Arc<ServingEngine>, ServeError> {
        Ok(&self.slot(shard)?.engine)
    }

    /// Number of shards in the fleet.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Currently published engine version of every shard, by index.
    pub fn shard_versions(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.engine.version()).collect()
    }

    /// Pin the current routing topology (one `Arc` clone under a read
    /// lock held for nanoseconds). The returned map stays internally
    /// consistent for as long as the caller holds it; a concurrent
    /// rebalance commit only redirects *future* pins.
    pub fn map(&self) -> Arc<ShardMap> {
        self.map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Fleet-level statistics: end-to-end latency over every routed
    /// request and per-version accounting aggregated across shards
    /// (shard versions are independent; attribute with
    /// [`ShardRouter::shard_stats`]).
    pub fn stats(&self) -> ServeStats {
        self.metrics.snapshot()
    }

    /// Per-shard load counters (requests and rows each shard's engine has
    /// served since fleet construction), by shard index.
    ///
    /// Both the batched and the unbatched serve paths execute on the
    /// shard's [`ServingEngine`], so these counters see all traffic —
    /// including scatter sub-batches — regardless of front-end. This is
    /// the snapshot the rebalance planner orders moves by
    /// (largest-imbalance-first).
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, slot)| {
                let stats = slot.engine.stats();
                ShardLoad {
                    shard,
                    requests: stats.requests_served,
                    rows: stats.rows_predicted,
                }
            })
            .collect()
    }

    /// Per-domain request/row counters (ascending by domain id, plus an
    /// aggregate `domain: None` row beyond the tracking table) — the
    /// hot-domain attribution signal: the domain whose rows dwarf the
    /// rest is the one to read-scale with
    /// [`begin_add_replica`](ShardRouter::begin_add_replica).
    pub fn domain_loads(&self) -> Vec<cerl_obs::DomainLoad> {
        self.domains.snapshot()
    }

    /// Number of engine versions still live across the fleet: every
    /// shard's published version plus superseded versions pinned by
    /// still-running requests (see
    /// [`ServingEngine::live_version_count`]).
    pub fn live_version_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.engine.live_version_count())
            .sum()
    }

    /// Export fleet-level serving metrics into `reg` under the
    /// `cerl_serve_*` namespace, plus per-shard load counters
    /// (`{shard="N"}`), each shard's published engine version, and the
    /// fleet-wide live-version gauge. Scrape-time work only — nothing
    /// here touches the request path.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.metrics.export_metrics("cerl_serve", reg);
        for load in self.shard_loads() {
            let shard = load.shard.to_string();
            reg.counter(
                "cerl_serve_shard_requests_total",
                "Requests served by each shard's engine (all front-ends).",
                &[("shard", &shard)],
                load.requests,
            );
            reg.counter(
                "cerl_serve_shard_rows_total",
                "Rows predicted by each shard's engine (all front-ends).",
                &[("shard", &shard)],
                load.rows,
            );
        }
        for (shard, version) in self.shard_versions().into_iter().enumerate() {
            let shard = shard.to_string();
            reg.gauge(
                "cerl_serve_shard_version",
                "Currently published engine version of each shard.",
                &[("shard", &shard)],
                version as f64,
            );
        }
        for load in self.domains.snapshot() {
            let domain = load
                .domain
                .map_or_else(|| "other".to_string(), |d| d.to_string());
            reg.counter(
                "cerl_serve_domain_requests_total",
                "Requests attributed to each domain (hot-domain signal; a scatter counts once \
                 per domain it touches; 'other' aggregates beyond the tracking table).",
                &[("domain", &domain)],
                load.requests,
            );
            reg.counter(
                "cerl_serve_domain_rows_total",
                "Rows served for each domain across all front-ends.",
                &[("domain", &domain)],
                load.rows,
            );
        }
        reg.gauge(
            "cerl_core_live_versions",
            "Engine versions still live across the fleet (published plus request-pinned).",
            &[],
            self.live_version_count() as f64,
        );
    }

    /// Fleet-level canary counters: cumulative request/rejection counts
    /// plus the raw end-to-end latency bucket counts, cheap enough to
    /// snapshot on every poll. Two snapshots bracket a canary window —
    /// see [`CanarySnapshot`] and the `orchestrator` module docs.
    pub fn canary_snapshot(&self) -> CanarySnapshot {
        self.metrics.canary_snapshot()
    }

    /// The per-shard scheduler's statistics (queue wait, batch shape,
    /// per-version counts), or `None` when the router is unbatched.
    pub fn shard_stats(&self, shard: usize) -> Result<Option<ServeStats>, ServeError> {
        Ok(self
            .slot(shard)?
            .scheduler
            .as_ref()
            .map(BatchScheduler::stats))
    }

    fn slot(&self, shard: usize) -> Result<&ShardSlot, ServeError> {
        self.shards.get(shard).ok_or(ServeError::UnknownShard {
            shard,
            shards: self.shards.len(),
        })
    }
}

/// Scatter one shard's result slice back into the merged output at the
/// rows it was demuxed from.
fn gather(out: &mut [f64], rows: &[usize], slice: &[f64]) {
    debug_assert_eq!(rows.len(), slice.len());
    for (&row, &value) in rows.iter().zip(slice) {
        // panic-ok: rows are original request-row indices and `out` was
        // sized to the request's row count by the caller.
        out[row] = value;
    }
}

fn invalid_fleet(reason: String) -> ServeError {
    ServeError::Engine(CerlError::InvalidConfig {
        field: "shard_map",
        reason,
    })
}

// Compile-time proof the router may be shared across request threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardRouter>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use cerl_core::config::CerlConfig;
    use cerl_core::engine::CerlEngineBuilder;
    use cerl_data::{DomainStream, SyntheticConfig, SyntheticGenerator};
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
            71,
        );
        DomainStream::synthetic(&gen, domains, 0, 71)
    }

    /// Shard i trained on domain i of the stream.
    fn shard_engines(stream: &DomainStream, shards: usize) -> Vec<CerlEngine> {
        (0..shards)
            .map(|d| {
                let mut engine = CerlEngineBuilder::new(quick_cfg())
                    .seed(13 + d as u64)
                    .build()
                    .unwrap();
                engine
                    .observe(&stream.domain(d).train, &stream.domain(d).val)
                    .unwrap();
                engine
            })
            .collect()
    }

    #[test]
    fn routes_domains_to_their_shards() {
        let stream = quick_stream(2);
        let engines = shard_engines(&stream, 2);
        let references = engines.clone();
        let map = ShardMap::from_pairs(2, &[(0, 0), (1, 1)]).unwrap();
        let router = ShardRouter::new(engines, map).unwrap();

        for d in 0..2u64 {
            let x = &stream.domain(d as usize).test.x;
            let (version, routed) = router.predict_ite_versioned(d, x).unwrap();
            assert_eq!(version, 1);
            assert_eq!(routed, references[d as usize].predict_ite(x).unwrap());
        }
        let x = &stream.domain(0).test.x;
        assert!(matches!(
            router.predict_ite(99, x),
            Err(ServeError::UnknownDomain { domain: 99 })
        ));
        let stats = router.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.per_version_requests, vec![(1, 2)]);
        assert_eq!(router.shard_stats(0).unwrap(), None); // unbatched
        assert!(router.shard_stats(5).is_err());
    }

    #[test]
    fn per_shard_swap_leaves_other_shards_alone() {
        let stream = quick_stream(3);
        let engines = shard_engines(&stream, 2);
        let map = ShardMap::from_pairs(2, &[(0, 0), (1, 1)]).unwrap();
        let router = ShardRouter::new(engines, map).unwrap();

        let x0 = &stream.domain(0).test.x;
        let before_shard0 = router.predict_ite(0, x0).unwrap();

        // Retrain shard 1 on a further domain and swap only that shard.
        let mut successor = CerlEngineBuilder::new(quick_cfg())
            .seed(14)
            .build()
            .unwrap();
        for d in [1usize, 2] {
            successor
                .observe(&stream.domain(d).train, &stream.domain(d).val)
                .unwrap();
        }
        let version = router.swap_shard_engine(1, successor.clone()).unwrap();
        assert_eq!(version, 2);
        assert_eq!(router.shard_versions(), vec![1, 2]);

        let x1 = &stream.domain(1).test.x;
        assert_eq!(
            router.predict_ite(1, x1).unwrap(),
            successor.predict_ite(x1).unwrap()
        );
        // Shard 0 still serves its original version bitwise-identically.
        assert_eq!(router.predict_ite(0, x0).unwrap(), before_shard0);

        // A broken successor is rejected and nothing changes.
        let untrained = CerlEngineBuilder::new(quick_cfg()).build().unwrap();
        assert!(router.swap_shard_engine(1, untrained).is_err());
        assert_eq!(router.shard_versions(), vec![1, 2]);
        assert!(matches!(
            router.swap_shard_engine(7, successor),
            Err(ServeError::UnknownShard {
                shard: 7,
                shards: 2
            })
        ));
    }

    #[test]
    fn snapshot_bytes_carry_the_shard_map_and_rebuild_the_fleet() {
        let stream = quick_stream(2);
        let engines = shard_engines(&stream, 2);
        let map = ShardMap::from_pairs(2, &[(0, 0), (7, 1)]).unwrap();
        let router = ShardRouter::new(engines, map.clone()).unwrap();

        let replicas: Vec<Vec<u8>> = (0..2)
            .map(|s| router.shard_snapshot_bytes(s).unwrap())
            .collect();
        // Each replica's snapshot embeds the fleet map.
        for bytes in &replicas {
            let snapshot = ModelSnapshot::from_bytes(bytes).unwrap();
            assert_eq!(snapshot.shard_map.as_ref(), Some(&map));
        }

        let rebuilt = ShardRouter::from_snapshot_bytes(&replicas, None).unwrap();
        assert_eq!(rebuilt.shard_count(), 2);
        let x = &stream.domain(0).test.x;
        assert_eq!(
            rebuilt.predict_ite(0, x).unwrap(),
            router.predict_ite(0, x).unwrap()
        );
        assert_eq!(rebuilt.route(7).unwrap(), 1);
        assert!(rebuilt.route(1).is_err());

        // Registry fetch order must not matter: each replica carries its
        // shard index, so a reversed fleet still routes domain 0 to the
        // engine trained for it.
        let reversed: Vec<Vec<u8>> = replicas.iter().rev().cloned().collect();
        let reordered = ShardRouter::from_snapshot_bytes(&reversed, None).unwrap();
        assert_eq!(
            reordered.predict_ite(0, x).unwrap(),
            router.predict_ite(0, x).unwrap()
        );
        // Two replicas claiming the same shard cannot build a fleet.
        let duplicated = vec![replicas[0].clone(), replicas[0].clone()];
        assert!(ShardRouter::from_snapshot_bytes(&duplicated, None).is_err());

        // A fleet whose snapshots carry no map cannot be rebuilt blind.
        let bare = router
            .shard(0)
            .unwrap()
            .current()
            .engine()
            .save_bytes()
            .unwrap();
        assert!(ShardRouter::from_snapshot_bytes(&[bare], None).is_err());
    }

    #[test]
    fn mismatched_map_and_fleet_size_is_rejected() {
        let stream = quick_stream(1);
        let engines = shard_engines(&stream, 1);
        let map = ShardMap::from_pairs(2, &[(0, 0), (1, 1)]).unwrap();
        assert!(ShardRouter::new(engines, map).is_err());
        let map = ShardMap::from_pairs(1, &[(0, 0)]).unwrap();
        assert!(ShardRouter::new(Vec::new(), map).is_err());
    }

    /// Two shards holding clones of the same engine: scatter output must
    /// be bitwise what the single engine answers for the mixed rows.
    #[test]
    fn scatter_merges_subbatches_back_into_submission_order() {
        let stream = quick_stream(1);
        let mut reference = CerlEngineBuilder::new(quick_cfg())
            .seed(13)
            .build()
            .unwrap();
        reference
            .observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        let map = ShardMap::from_pairs(2, &[(0, 0), (1, 1), (5, 1)]).unwrap();
        let router =
            ShardRouter::new(vec![reference.clone(), reference.clone()], map.clone()).unwrap();

        let x = stream.domain(0).test.x.slice_rows(0, 12);
        let tags: Vec<u64> = (0..12).map(|i| [0u64, 1, 5, 1][i % 4]).collect();
        let response = router.predict_ite_scatter_versioned(&tags, &x).unwrap();
        let expected = reference.predict_ite(&x).unwrap();
        assert_eq!(response.ite.len(), expected.len());
        for (i, (a, b)) in response.ite.iter().zip(&expected).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
        assert_eq!(response.shard_versions, vec![(0, 1), (1, 1)]);

        // A single-domain scatter touches one shard only.
        let lone = router.predict_ite_scatter_versioned(&[5; 12], &x).unwrap();
        assert_eq!(lone.shard_versions, vec![(1, 1)]);
        assert_eq!(lone.ite, expected);

        // Batched router: identical bits through the scheduler fan-out.
        let batched = ShardRouter::with_batching(
            vec![reference.clone(), reference],
            map,
            BatchConfig {
                max_wait: Duration::from_millis(2),
                ..BatchConfig::default()
            },
        )
        .unwrap();
        let via_schedulers = batched.predict_ite_scatter(&tags, &x).unwrap();
        for (a, b) in via_schedulers.iter().zip(&expected) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for shard in 0..2 {
            let stats = batched.shard_stats(shard).unwrap().expect("batched");
            assert_eq!(stats.requests, 1, "each shard saw one sub-batch");
        }

        // Typed failures: unknown tag, tag/row mismatch, empty request.
        assert!(matches!(
            router.predict_ite_scatter(&[9; 12], &x),
            Err(ServeError::UnknownDomain { domain: 9 })
        ));
        assert!(matches!(
            router.predict_ite_scatter(&tags[..3], &x),
            Err(ServeError::DomainTagMismatch { rows: 12, tags: 3 })
        ));
        assert!(matches!(
            router.predict_ite_scatter(&[], &Matrix::zeros(0, x.cols())),
            Err(ServeError::Engine(CerlError::EmptyInput { .. }))
        ));

        let stats = router.stats();
        assert_eq!(stats.scatter_requests, 2);
        assert_eq!(stats.scatter_subrequests, 3);
        assert_eq!(stats.mean_shards_per_scatter(), 1.5);
        assert_eq!(stats.rejected, 3);
        // Scatter counts once per participating shard in the version
        // table: 3 sub-batches, all on version 1.
        assert_eq!(stats.per_version_requests, vec![(1, 3)]);
    }

    #[test]
    fn rebalance_commit_publishes_destination_before_flipping_the_map() {
        let stream = quick_stream(2);
        let engines = shard_engines(&stream, 2);
        let references = engines.clone();
        let map = ShardMap::from_pairs(2, &[(0, 0), (1, 0), (2, 1)]).unwrap();
        let router = ShardRouter::new(engines, map).unwrap();
        let x = stream.domain(1).test.x.slice_rows(0, 6);

        // Stage: destination's successor holds domain 1 (here: shard 1's
        // engine retrained on it).
        let mut successor = references[1].clone();
        successor
            .observe(&stream.domain(1).train, &stream.domain(1).val)
            .unwrap();
        router.begin_rebalance(1, 1, successor.clone()).unwrap();
        assert_eq!(router.rebalance_in_progress(), Some((1, 0, 1)));

        // Dual-route window: the map is untouched, the source still
        // answers, the destination still serves its old version.
        assert_eq!(router.route(1).unwrap(), 0);
        assert_eq!(
            router.predict_ite(1, &x).unwrap(),
            references[0].predict_ite(&x).unwrap()
        );
        assert_eq!(router.shard_versions(), vec![1, 1]);

        // A second begin is refused while one is staged.
        assert!(matches!(
            router.begin_rebalance(2, 0, references[0].clone()),
            Err(ServeError::RebalanceInProgress { domain: 1 })
        ));

        let version = router.commit_rebalance().unwrap();
        assert_eq!(version, 2);
        assert_eq!(router.shard_versions(), vec![1, 2]);
        assert_eq!(router.route(1).unwrap(), 1);
        assert_eq!(
            router.predict_ite(1, &x).unwrap(),
            successor.predict_ite(&x).unwrap()
        );
        // Domain 0 stayed on the source, bitwise untouched.
        let x0 = stream.domain(0).test.x.slice_rows(0, 6);
        assert_eq!(
            router.predict_ite(0, &x0).unwrap(),
            references[0].predict_ite(&x0).unwrap()
        );
        assert_eq!(router.rebalance_in_progress(), None);
        assert!(matches!(
            router.commit_rebalance(),
            Err(ServeError::NoRebalancePending)
        ));

        // The rebalanced topology rides in fresh snapshot bytes (v2
        // round-trip) and rebuilds a fleet that routes the new way.
        let replicas: Vec<Vec<u8>> = (0..2)
            .map(|s| router.shard_snapshot_bytes(s).unwrap())
            .collect();
        let rebuilt = ShardRouter::from_snapshot_bytes(&replicas, None).unwrap();
        assert_eq!(rebuilt.route(1).unwrap(), 1);
        assert_eq!(
            rebuilt.predict_ite(1, &x).unwrap(),
            successor.predict_ite(&x).unwrap()
        );
    }

    #[test]
    fn rebalance_begin_validates_and_abort_rolls_back_cleanly() {
        let stream = quick_stream(2);
        let engines = shard_engines(&stream, 2);
        let references = engines.clone();
        let map = ShardMap::from_pairs(2, &[(0, 0), (1, 0), (2, 1)]).unwrap();
        let router = ShardRouter::new(engines, map).unwrap();

        // Bad begins: unmapped domain, out-of-range shard, no-op move,
        // successor that cannot serve. None of them stage anything.
        assert!(matches!(
            router.begin_rebalance(9, 1, references[0].clone()),
            Err(ServeError::UnknownDomain { domain: 9 })
        ));
        assert!(matches!(
            router.begin_rebalance(1, 5, references[0].clone()),
            Err(ServeError::UnknownShard {
                shard: 5,
                shards: 2
            })
        ));
        assert!(router.begin_rebalance(1, 0, references[0].clone()).is_err());
        let untrained = CerlEngineBuilder::new(quick_cfg()).build().unwrap();
        assert!(matches!(
            router.begin_rebalance(1, 1, untrained),
            Err(ServeError::Engine(CerlError::NotTrained))
        ));
        assert_eq!(router.rebalance_in_progress(), None);

        // Stage a real move, then abort: map, versions, and answers are
        // exactly as before the begin.
        let x = stream.domain(1).test.x.slice_rows(0, 6);
        let before = router.predict_ite(1, &x).unwrap();
        router.begin_rebalance(1, 1, references[0].clone()).unwrap();
        router.abort_rebalance().unwrap();
        assert_eq!(router.rebalance_in_progress(), None);
        assert_eq!(router.route(1).unwrap(), 0);
        assert_eq!(router.shard_versions(), vec![1, 1]);
        assert_eq!(router.predict_ite(1, &x).unwrap(), before);
        assert!(matches!(
            router.abort_rebalance(),
            Err(ServeError::NoRebalancePending)
        ));

        // The snapshot-bytes staging path stages (and aborts) too.
        let bytes = references[1].save_bytes().unwrap();
        router.begin_rebalance_snapshot_bytes(1, 1, &bytes).unwrap();
        assert_eq!(router.rebalance_in_progress(), Some((1, 0, 1)));
        router.abort_rebalance().unwrap();
    }

    #[test]
    fn fleet_restore_size_mismatch_names_expected_vs_found() {
        let stream = quick_stream(3);
        let engines = shard_engines(&stream, 3);
        let map = ShardMap::from_pairs(3, &[(0, 0), (1, 1), (2, 2)]).unwrap();
        let router = ShardRouter::new(engines, map).unwrap();
        // Only two of the three replicas reach the restore.
        let partial: Vec<Vec<u8>> = (0..2)
            .map(|s| router.shard_snapshot_bytes(s).unwrap())
            .collect();
        match ShardRouter::from_snapshot_bytes(&partial, None) {
            Err(
                e @ ServeError::FleetSizeMismatch {
                    expected: 3,
                    found: 2,
                },
            ) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("3 shard(s)") && msg.contains("2 replica snapshot(s)"),
                    "{msg}"
                );
            }
            other => panic!("expected FleetSizeMismatch, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn conflicting_replica_maps_name_the_moved_domain() {
        let stream = quick_stream(2);
        let engines = shard_engines(&stream, 2);
        let map = ShardMap::from_pairs(2, &[(0, 0), (1, 0), (2, 1)]).unwrap();
        let router = ShardRouter::new(engines, map).unwrap();
        let before = router.shard_snapshot_bytes(0).unwrap();
        // A registry captured replica 1 after a rebalance of domain 1.
        let mut successor = router.shard(1).unwrap().current().engine().clone();
        successor
            .observe(&stream.domain(1).train, &stream.domain(1).val)
            .unwrap();
        router.begin_rebalance(1, 1, successor).unwrap();
        router.commit_rebalance().unwrap();
        let after = router.shard_snapshot_bytes(1).unwrap();
        match ShardRouter::from_snapshot_bytes(&[before, after], None) {
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("domain 1 moved shard 0 -> 1"),
                    "conflict should name the move: {msg}"
                );
            }
            Ok(_) => panic!("conflicting maps must not rebuild a fleet"),
        }
    }

    #[test]
    fn batched_router_serves_through_shard_schedulers() {
        let stream = quick_stream(2);
        let engines = shard_engines(&stream, 2);
        let references = engines.clone();
        let map = ShardMap::from_pairs(2, &[(0, 0), (1, 1)]).unwrap();
        let router = ShardRouter::with_batching(
            engines,
            map,
            BatchConfig {
                max_wait: Duration::from_millis(5),
                ..BatchConfig::default()
            },
        )
        .unwrap();

        for d in 0..2u64 {
            let x = stream.domain(d as usize).test.x.slice_rows(0, 6);
            let routed = router.predict_ite(d, &x).unwrap();
            assert_eq!(routed, references[d as usize].predict_ite(&x).unwrap());
        }
        // The shard schedulers saw the traffic and measured queue wait.
        for s in 0..2 {
            let stats = router.shard_stats(s).unwrap().expect("batched");
            assert_eq!(stats.requests, 1);
            assert_eq!(stats.queue_wait.count, 1);
        }
        assert_eq!(router.stats().requests, 2);
    }

    #[test]
    fn scatter_stamps_gathered_when_its_last_shard_settles() {
        use cerl_obs::TraceRing;
        use std::task::{Context, Waker};

        let stream = quick_stream(2);
        let map = ShardMap::from_pairs(2, &[(0, 0), (1, 1)]).unwrap();
        let router =
            ShardRouter::with_batching(shard_engines(&stream, 2), map, BatchConfig::default())
                .unwrap();
        // Park shard 1's collector inside one large pass.
        let base = &stream.domain(1).test.x;
        let idx: Vec<usize> = (0..30_000).map(|i| i % base.rows()).collect();
        let big_x = base.select_rows(&idx);
        let big = router
            .submit_scatter(&vec![1; big_x.rows()], &big_x)
            .unwrap();
        while router.shard_stats(1).unwrap().unwrap().batches == 0 {
            std::thread::yield_now();
        }

        let ring = TraceRing::new(4, 1);
        let span = ring.begin(0, 1).unwrap();
        let mut rows = stream.domain(0).test.x.slice_rows(0, 4).as_slice().to_vec();
        rows.extend_from_slice(base.slice_rows(0, 4).as_slice());
        let x = Matrix::from_vec(8, base.cols(), rows);
        let mut handle = router
            .submit_scatter_traced(&[0, 0, 0, 0, 1, 1, 1, 1], &x, Some(span.clone()))
            .unwrap();
        // Shard 0's sub-batch settles while shard 1 is still parked.
        let mut cx = Context::from_waker(Waker::noop());
        while router.shard_stats(0).unwrap().unwrap().requests == 0 {
            assert!(Pin::new(&mut handle).poll(&mut cx).is_pending());
            std::thread::yield_now();
        }
        // Shard 1's sub-batch queued behind the parked pass, so it
        // completes after that pass has answered.
        assert!(big.wait().is_ok());
        let parked_done = ring.now_nanos();
        assert!(handle.wait().is_ok());
        span.complete();

        let snap = ring.dump(1)[0];
        let gathered = snap.stamp(Stage::Gathered).expect("gathered stamped");
        assert!(
            gathered >= parked_done,
            "Gathered at {gathered} ns, before the parked shard answered at {parked_done} ns"
        );
        assert!(snap.is_monotone());
    }

    /// One engine cloned across `shards` replicas — the replicated-fleet
    /// fixture: every replica publishes the identical model, so any
    /// placement must return bitwise the unreplicated engine's rows.
    fn replicated_fleet(shards: usize) -> (DomainStream, CerlEngine, ShardRouter) {
        let stream = quick_stream(1);
        let mut reference = CerlEngineBuilder::new(quick_cfg())
            .seed(13)
            .build()
            .unwrap();
        reference
            .observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        let map = ShardMap::from_replicas(shards, &[(0, (0..shards).collect())]).unwrap();
        assert!(map.is_replicated());
        let router = ShardRouter::new(vec![reference.clone(); shards], map).unwrap();
        (stream, reference, router)
    }

    #[test]
    fn replicated_domain_is_bitwise_identical_under_every_policy() {
        let (stream, reference, router) = replicated_fleet(3);
        let x = stream.domain(0).test.x.slice_rows(0, 24);
        let expected = reference.predict_ite(&x).unwrap();
        assert_eq!(router.replicas(0).unwrap().shards(), &[0, 1, 2]);
        assert_eq!(router.route(0).unwrap(), 0, "primary is the smallest id");

        let policies: Vec<Arc<dyn RoutePolicy>> = vec![
            Arc::new(LeastLoaded),
            Arc::new(crate::policy::RoundRobin::new()),
            Arc::new(crate::policy::VersionPinned::new(1)),
        ];
        for policy in policies {
            router.set_route_policy(Arc::clone(&policy));
            assert_eq!(router.route_policy().name(), policy.name());
            for _ in 0..3 {
                let direct = router.predict_ite(0, &x).unwrap();
                let response = router
                    .predict_ite_scatter_versioned(&vec![0; x.rows()], &x)
                    .unwrap();
                for (i, (a, b)) in direct.iter().zip(&expected).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{} row {i}", policy.name());
                }
                for (i, (a, b)) in response.ite.iter().zip(&expected).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{} row {i}", policy.name());
                }
                // Replicated request: the attribution trail names the
                // replica the policy placed the sub-batch on.
                assert_eq!(response.placements.len(), 1);
                let (domain, shard) = response.placements[0];
                assert_eq!(domain, 0);
                assert!(router.replicas(0).unwrap().contains(shard));
                assert_eq!(response.shard_versions, vec![(shard, 1)]);
            }
        }
        // Spreading happened: every replica served some of the traffic
        // (RoundRobin rotates; LeastLoaded steers to the coolest).
        let loads = router.shard_loads();
        assert!(
            loads.iter().all(|l| l.rows > 0),
            "all replicas should have served rows: {loads:?}"
        );
        // ...and the hot-domain counters attributed all of it to domain 0.
        let domains = router.domain_loads();
        assert_eq!(domains.len(), 1);
        assert_eq!(domains[0].domain, Some(0));
        assert_eq!(domains[0].requests, 18, "9 direct + 9 scatter groups");
        assert_eq!(domains[0].rows, 18 * 24);
    }

    #[test]
    fn unreplicated_requests_carry_no_placement_trail() {
        let stream = quick_stream(2);
        let engines = shard_engines(&stream, 2);
        let map = ShardMap::from_pairs(2, &[(0, 0), (1, 1)]).unwrap();
        let router = ShardRouter::new(engines, map).unwrap();
        let x = stream.domain(0).test.x.slice_rows(0, 8);
        let response = router
            .predict_ite_scatter_versioned(&[0, 1, 0, 1, 0, 1, 0, 1], &x)
            .unwrap();
        assert!(
            response.placements.is_empty(),
            "attribution follows the map when no policy had a choice"
        );
        // Per-domain counters still attribute the traffic.
        let domains = router.domain_loads();
        assert_eq!(domains.len(), 2);
        assert_eq!((domains[0].domain, domains[0].rows), (Some(0), 4));
        assert_eq!((domains[1].domain, domains[1].rows), (Some(1), 4));
    }

    #[test]
    fn stray_policy_answers_degrade_to_the_primary() {
        /// Always answers a shard outside every replica-set.
        #[derive(Debug)]
        struct Hostile;
        impl RoutePolicy for Hostile {
            fn choose(
                &self,
                _domain: u64,
                _rows: usize,
                _replicas: &ReplicaSet,
                _ctx: &RouteContext<'_>,
            ) -> usize {
                usize::MAX
            }
            fn name(&self) -> &'static str {
                "hostile"
            }
        }
        let (stream, reference, router) = replicated_fleet(2);
        router.set_route_policy(Arc::new(Hostile));
        let x = stream.domain(0).test.x.slice_rows(0, 6);
        let response = router.predict_ite_scatter_versioned(&[0; 6], &x).unwrap();
        assert_eq!(response.ite, reference.predict_ite(&x).unwrap());
        assert_eq!(response.placements, vec![(0, 0)], "clamped to the primary");
    }

    #[test]
    fn replica_lifecycle_add_drain_restore_remove() {
        let stream = quick_stream(1);
        let mut reference = CerlEngineBuilder::new(quick_cfg())
            .seed(13)
            .build()
            .unwrap();
        reference
            .observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        // A 2-replica set {0, 1}; shard 2 is idle capacity to add into.
        let map = ShardMap::from_replicas(3, &[(0, vec![0, 1])]).unwrap();
        let router = ShardRouter::new(vec![reference.clone(); 3], map).unwrap();
        let x = stream.domain(0).test.x.slice_rows(0, 10);
        let expected = reference.predict_ite(&x).unwrap();

        // -- add: stage → probe → commit publishes then flips the map.
        assert!(matches!(
            router.begin_add_replica(0, 1, reference.clone()),
            Err(ServeError::ReplicaAlreadyServing {
                domain: 0,
                shard: 1
            })
        ));
        router.begin_add_replica(0, 2, reference.clone()).unwrap();
        assert_eq!(router.replica_add_in_progress(), Some((0, 2)));
        assert_eq!(router.rebalance_in_progress(), None);
        // Staged, not published: the map still reads {0, 1}.
        assert_eq!(router.replicas(0).unwrap().shards(), &[0, 1]);
        assert!(matches!(
            router.drain_replica(0, 1),
            Err(ServeError::RebalanceInProgress { domain: 0 })
        ));
        router.commit_rebalance().unwrap();
        assert_eq!(router.replicas(0).unwrap().shards(), &[0, 1, 2]);
        assert_eq!(router.predict_ite(0, &x).unwrap(), expected);

        // -- drain: reversible removal from rotation; engine untouched.
        router.drain_replica(0, 2).unwrap();
        assert_eq!(router.replicas(0).unwrap().shards(), &[0, 1]);
        assert_eq!(router.draining_replicas(), vec![(0, 2)]);
        assert_eq!(router.predict_ite(0, &x).unwrap(), expected);
        // -- restore: back into rotation.
        router.restore_replica(0, 2).unwrap();
        assert_eq!(router.replicas(0).unwrap().shards(), &[0, 1, 2]);
        assert!(router.draining_replicas().is_empty());
        assert!(matches!(
            router.restore_replica(0, 2),
            Err(ServeError::ReplicaNotDraining {
                domain: 0,
                shard: 2
            })
        ));

        // -- remove requires a prior drain; then it is final bookkeeping.
        assert!(matches!(
            router.remove_replica(0, 2),
            Err(ServeError::ReplicaNotDraining {
                domain: 0,
                shard: 2
            })
        ));
        router.drain_replica(0, 2).unwrap();
        router.remove_replica(0, 2).unwrap();
        assert!(router.draining_replicas().is_empty());
        assert_eq!(router.replicas(0).unwrap().shards(), &[0, 1]);

        // -- the last replica can never be drained.
        router.drain_replica(0, 1).unwrap();
        assert!(matches!(
            router.drain_replica(0, 0),
            Err(ServeError::LastReplica {
                domain: 0,
                shard: 0
            })
        ));
        assert_eq!(router.predict_ite(0, &x).unwrap(), expected);
    }
}
