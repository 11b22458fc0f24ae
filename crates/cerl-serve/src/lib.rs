//! # cerl-serve
//!
//! Serving front-end for the CERL engine stack: micro-batching,
//! shard-per-domain routing, and latency observability — the layer that
//! turns one-process inference ([`ServingEngine`](cerl_core::serving::ServingEngine)) into a deployable
//! service for heavy concurrent traffic.
//!
//! * [`scheduler`] — [`BatchScheduler`]: coalesce many small concurrent
//!   `predict_ite` requests into one fanned forward pass against a
//!   pinned engine version, demuxing per-request result slices back
//!   through private channels. Bounded submission queue
//!   ([`BatchConfig::queue_capacity`]). A request that finds the queue
//!   otherwise empty runs at once; a batch that drains with company keeps
//!   taking arrivals for as long as the previous pass took, within
//!   [`BatchConfig::max_wait`]; either closes at the row bound
//!   ([`BatchConfig::max_batch_rows`]).
//!   Batched results are **bitwise identical** to unbatched calls
//!   against the same engine version.
//! * [`router`] — [`ShardRouter`]: N independently hot-swappable
//!   [`ServingEngine`](cerl_core::serving::ServingEngine) shards keyed by a
//!   [`ShardMap`] (`domain → replica-set`)
//!   that also rides in snapshot metadata; per-shard warm swaps, typed
//!   [`ServeError::UnknownDomain`] routing errors, optional per-shard
//!   batching. Mixed-domain requests are served by
//!   [`ShardRouter::predict_ite_scatter`] (scatter-gather with results
//!   bitwise identical to a single unsharded engine), and
//!   [`ShardRouter::begin_rebalance`] /
//!   [`commit_rebalance`](ShardRouter::commit_rebalance) /
//!   [`abort_rebalance`](ShardRouter::abort_rebalance) move a domain
//!   between shards with zero downtime (see the dual-route contract in
//!   the [`router`] module docs).
//! * [`policy`] — [`RoutePolicy`]: which replica of a replicated (hot)
//!   domain serves a given sub-batch — [`LeastLoaded`] (default),
//!   [`RoundRobin`], [`VersionPinned`] for canary reads. Policies
//!   choose placement only; results are bitwise identical to an
//!   unreplicated reference under every policy.
//! * [`orchestrator`] — [`RebalancePlanner`] / [`RebalanceOrchestrator`]:
//!   turn a target [`ShardMap`] into a
//!   load-aware-ordered sequence of single-domain moves and execute them
//!   through the router's begin → probe → commit path, watching a canary
//!   window per move (windowed p95 and error-rate deltas) with automatic
//!   [`abort_rebalance`](ShardRouter::abort_rebalance) and plan halt
//!   ([`ServeError::PlanHalted`]) on regression.
//! * [`histogram`] — [`LatencyHistogram`]: fixed log-spaced buckets with
//!   wait-free atomic recording; [`ServeStats`] reports p50/p95/p99
//!   queue-wait and end-to-end latency plus per-version request
//!   accounting for watching canary swaps.
//! * [`error`] — [`ServeError`]: the front-end's typed failures,
//!   wrapping the engine's [`CerlError`](cerl_core::error::CerlError).
//!
//! ## Quick example: batched serving with a hot swap
//!
//! ```
//! use cerl_core::config::CerlConfig;
//! use cerl_core::engine::CerlEngineBuilder;
//! use cerl_core::serving::ServingEngine;
//! use cerl_data::{DomainStream, SyntheticConfig, SyntheticGenerator};
//! use cerl_serve::{BatchConfig, BatchScheduler};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let gen = SyntheticGenerator::new(SyntheticConfig::small(), 5);
//! let stream = DomainStream::synthetic(&gen, 2, 0, 5);
//! let mut cfg = CerlConfig::quick_test();
//! cfg.train.epochs = 2; // doc-test speed
//! let mut engine = CerlEngineBuilder::new(cfg).seed(5).build()?;
//! engine.observe(&stream.domain(0).train, &stream.domain(0).val)?;
//!
//! let serving = Arc::new(ServingEngine::new(engine));
//! let scheduler = BatchScheduler::new(
//!     Arc::clone(&serving),
//!     BatchConfig { max_wait: Duration::from_millis(5), ..BatchConfig::default() },
//! );
//!
//! // Concurrent small requests coalesce into one forward pass, and each
//! // caller gets back exactly what an unbatched call would return.
//! let x = stream.domain(0).test.x.slice_rows(0, 4);
//! let (version, batched) = scheduler.predict_ite_versioned(&x)?;
//! assert_eq!(version, 1);
//! assert_eq!(batched, serving.predict_ite(&x)?);
//!
//! // Retrain + warm-swap underneath the scheduler: in-flight batches
//! // keep their pinned version, later batches see version 2.
//! serving.observe_and_swap(&stream.domain(1).train, &stream.domain(1).val)?;
//! let (version, _) = scheduler.predict_ite_versioned(&x)?;
//! assert_eq!(version, 2);
//! let stats = scheduler.stats();
//! assert_eq!(stats.requests, 2);
//! assert_eq!(stats.per_version_requests, vec![(1, 1), (2, 1)]);
//! # Ok::<(), cerl_serve::ServeError>(())
//! ```
//!
//! ## Tuning the scheduler
//!
//! | knob | effect |
//! |------|--------|
//! | [`BatchConfig::max_batch_rows`] | Upper bound on coalesced rows per forward pass. Larger amortizes more setup but grows per-batch latency and peak memory. |
//! | [`BatchConfig::max_wait`] | Cap on how long a batch that drained with company stays open for further arrivals (within it, no longer than the previous forward pass took). A request that finds the queue otherwise empty runs at once and pays none of it. |
//! | [`BatchConfig::queue_capacity`] | Pending requests admitted before [`ServeError::QueueFull`] sheds load. Size it to `target_p99 / typical_batch_latency × mean_batch_requests`. |
//! | [`BatchConfig::worker_threads`] | Threads for the coalesced forward pass (0 = the machine's GEMM worker count). Results are bitwise identical for any value. |
//!
//! ## Shard-map format
//!
//! A [`ShardMap`] is built from
//! `(domain_id, shard_index)` pairs ([`ShardMap::from_pairs`]) or
//! `(domain_id, replica ids)` entries ([`ShardMap::from_replicas`])
//! over a declared shard count; it rejects out-of-range shards,
//! conflicting duplicate domains, and empty replica-sets, and it
//! serializes inside [`ModelSnapshot`](cerl_core::snapshot::ModelSnapshot)
//! (metadata format version 4; v2 single-shard and v3-era documents
//! still load) so fleet topology ships with model bytes.
//!
//! ## Histogram semantics
//!
//! [`LatencyHistogram`] buckets grow geometrically (~31% per bucket,
//! 1 µs … ~15 s + overflow), so reported quantiles are representative
//! values with ~±15% bucket resolution — stable, allocation-free, and
//! cheap enough to record on every request. `queue_wait` measures
//! submit → batch-execution-start; `end_to_end` measures
//! submit → response-in-hand, as the caller observes it.

#![warn(missing_docs)]

pub mod error;
pub mod histogram;
pub mod orchestrator;
pub mod policy;
pub mod router;
pub mod scheduler;

pub use error::ServeError;
pub use histogram::{LatencyHistogram, LatencySnapshot};
pub use orchestrator::{
    CanaryConfig, CanarySnapshot, CanaryWindow, MoveReport, OrchestratorConfig, PlanReport,
    RebalanceOrchestrator, RebalancePlan, RebalancePlanner, ReplicaReport, ShardLoad,
};
pub use policy::{LeastLoaded, RoundRobin, RouteContext, RoutePolicy, VersionPinned};
pub use router::{ScatterHandle, ScatterResponse, ShardRouter};
pub use scheduler::{BatchConfig, BatchScheduler, ResponseHandle, ServeStats};

// Routing metadata lives in cerl-core (it is snapshot state); re-export
// it here so `cerl_serve::ShardMap` works without a cerl-core import.
pub use cerl_core::snapshot::{
    ReplicaChange, ReplicaSet, ShardAssignment, ShardMap, ShardMapDiff, ShardMove,
};
