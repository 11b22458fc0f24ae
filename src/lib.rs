//! # cerl
//!
//! Facade crate for the CERL workspace — a Rust reproduction of
//! *Continual Causal Inference with Incremental Observational Data*
//! (Chu, Li, Rathbun & Li, ICDE 2023).
//!
//! CERL estimates individual (ITE) and average (ATE) treatment effects
//! from observational data arriving **incrementally from non-stationary
//! domains**, without access to previous raw data: a bounded memory of
//! herding-selected feature representations, feature-representation
//! distillation, and a representation-space transformation `φ` carry
//! knowledge across stages.
//!
//! ## Crates
//!
//! | crate | contents |
//! |-------|----------|
//! | [`math`] | dense matrices, Cholesky/Jacobi, special functions, hub-Toeplitz correlations |
//! | [`rand`] | normal/gamma/Dirichlet/categorical/MVN samplers, seed derivation |
//! | [`nn`] | tape autodiff, layers (incl. cosine normalization), Adam/SGD |
//! | [`ot`] | Sinkhorn-Wasserstein and MMD representation-balance penalties |
//! | [`data`] | synthetic §IV.C generator, News/BlogCatalog simulators, domain streams |
//! | [`core`] | the CERL learner, serving engine, CFR baselines, strategies, metrics |
//! | [`serve`] | micro-batching scheduler, domain→replica-set router with pluggable route policies, latency histograms |
//! | [`net`] | epoll socket front-end: binary wire protocol, admission deadlines, connection backpressure |
//! | [`obs`] | wait-free request tracing, unified metrics registry, structured fleet events |
//!
//! ## Quickstart: the serving engine
//!
//! [`CerlEngine`](prelude::CerlEngine) is the recommended entry point: a
//! fallible builder validates the configuration, the covariate dimension
//! is inferred from the first observed domain, every request path returns
//! a typed [`CerlError`](prelude::CerlError) instead of panicking, and a
//! trained estimator round-trips through a versioned snapshot container —
//! so a service can restart (or hot-swap replicas) without losing the model.
//!
//! ```
//! use cerl::prelude::*;
//!
//! // Three incrementally available domains with shifted distributions.
//! let gen = SyntheticGenerator::new(SyntheticConfig::small(), 42);
//! let stream = DomainStream::synthetic(&gen, 3, 0, 42);
//!
//! let mut cfg = CerlConfig::quick_test();
//! cfg.train.epochs = 2; // doc-test speed; use the default for real runs
//! let mut engine = CerlEngineBuilder::new(cfg).seed(42).build()?;
//!
//! for d in 0..stream.len() {
//!     let report = engine.observe(&stream.domain(d).train, &stream.domain(d).val)?;
//!     assert_eq!(report.stage, d + 1);
//! }
//!
//! // One model serves every seen domain; raw history was never retained.
//! let test = &stream.domain(0).test;
//! let metrics = EffectMetrics::on_dataset(test, &engine.predict_ite(&test.x)?);
//! assert!(metrics.sqrt_pehe.is_finite());
//!
//! // Persist across restarts / ship to another replica (an f64 payload
//! // round-trips every weight bitwise).
//! let bytes = engine.save_bytes_binary(SnapshotPayload::F64)?;
//! let restored = CerlEngine::load_bytes(&bytes)?;
//! assert_eq!(restored.predict_ite(&test.x)?, engine.predict_ite(&test.x)?);
//! # Ok::<(), CerlError>(())
//! ```
//!
//! ## Concurrent serving
//!
//! For a process with many request threads, wrap the engine in a
//! [`ServingEngine`](prelude::ServingEngine): readers pin the current
//! engine version through a lock held only for an `Arc` clone, large
//! requests fan out across scoped worker threads with bitwise-deterministic
//! results, and a writer can hot-swap a retrained or freshly deserialized
//! engine under load without readers ever blocking on training:
//!
//! ```
//! use cerl::prelude::*;
//!
//! let gen = SyntheticGenerator::new(SyntheticConfig::small(), 9);
//! let stream = DomainStream::synthetic(&gen, 2, 0, 9);
//! let mut cfg = CerlConfig::quick_test();
//! cfg.train.epochs = 2; // doc-test speed
//! let mut engine = CerlEngineBuilder::new(cfg).seed(9).build()?;
//! engine.observe(&stream.domain(0).train, &stream.domain(0).val)?;
//!
//! let serving = std::sync::Arc::new(ServingEngine::new(engine));
//! let x = &stream.domain(0).test.x;
//! let ite = serving.predict_ite_parallel(x, 4)?; // fan out one request
//! assert_eq!(ite, serving.predict_ite(x)?);      // ... deterministically
//!
//! // Train the next domain in and publish it; concurrent readers keep
//! // answering from version 1 until the single-pointer swap.
//! let (_, version) =
//!     serving.observe_and_swap(&stream.domain(1).train, &stream.domain(1).val)?;
//! assert_eq!(version, 2);
//! # Ok::<(), CerlError>(())
//! ```
//!
//! ## Raw speed: f32 serving and compact snapshots
//!
//! Training always runs in `f64`. A serving replica can opt into
//! [`PrecisionMode::F32`](prelude::PrecisionMode): the trained weights
//! are narrowed once into a compiled plan and every predict runs
//! through `f32` GEMMs — half the memory traffic on the hot path. The
//! determinism contract is **per precision mode**: within one mode,
//! predictions stay bitwise-identical across entry points, thread
//! counts, and restarts; switching modes changes rounding, never the
//! contract.
//!
//! Snapshots have one format (`save_bytes_binary`): a sectioned
//! little-endian container that stores the float payload as raw
//! IEEE-754 values under one version number,
//! [`SNAPSHOT_FORMAT_VERSION`](prelude::SNAPSHOT_FORMAT_VERSION).
//! [`SnapshotPayload::F64`](prelude::SnapshotPayload) keeps every weight
//! bitwise; `SnapshotPayload::F32` narrows the payload to 4 bytes per
//! weight, close to halving fleet-restore and rebalance staging bytes.
//! The payload kind rides in the container header, so `load_bytes`
//! restores both through the same call:
//!
//! ```
//! use cerl::prelude::*;
//!
//! let gen = SyntheticGenerator::new(SyntheticConfig::small(), 7);
//! let stream = DomainStream::synthetic(&gen, 1, 0, 7);
//! let mut cfg = CerlConfig::quick_test();
//! cfg.train.epochs = 2; // doc-test speed
//! let mut engine = CerlEngineBuilder::new(cfg).seed(7).build()?;
//! engine.observe(&stream.domain(0).train, &stream.domain(0).val)?;
//! let x = &stream.domain(0).test.x;
//!
//! // Opt into f32 inference; training (observe) stays f64.
//! engine.set_precision(PrecisionMode::F32)?;
//! let fast = engine.predict_ite(x)?;
//!
//! // A narrowed payload: at most 3/5 of the full-fidelity container.
//! let wide = engine.save_bytes_binary(SnapshotPayload::F64)?;
//! let bin = engine.save_bytes_binary(SnapshotPayload::F32)?;
//! assert!(bin.len() * 5 <= wide.len() * 3);
//!
//! // The full-fidelity container restores every weight bitwise.
//! let exact = CerlEngine::load_bytes(&wide)?;
//! assert_eq!(exact.precision(), PrecisionMode::F64);
//!
//! // A restored replica defaults to F64 (precision is serving state,
//! // not model state).
//! let mut replica = CerlEngine::load_bytes(&bin)?;
//! assert_eq!(replica.precision(), PrecisionMode::F64);
//! replica.set_precision(PrecisionMode::F32)?;
//! // The f32 payload holds exactly the floats the f32 plan compiles
//! // from, so the replica's f32 serving is bitwise the source's.
//! assert_eq!(replica.predict_ite(x)?, fast);
//! # Ok::<(), CerlError>(())
//! ```
//!
//! Bytes of any other snapshot version are refused with a typed
//! [`SnapshotError::UnsupportedVersion`](prelude::SnapshotError), and
//! bytes that are not a container at all with `SnapshotError::Malformed`.
//!
//! ## Serving at scale: batching and sharding
//!
//! The [`serve`] layer turns the engine into a service
//! front-end. A [`BatchScheduler`](prelude::BatchScheduler) coalesces
//! many small concurrent requests into one fanned forward pass — with a
//! bounded submission queue, a lone request that runs at once, batches
//! under load that stay open about one forward pass (at most `max_wait`,
//! or until `max_batch_rows`), and results
//! bitwise identical to unbatched calls — and a
//! [`ShardRouter`](prelude::ShardRouter) keys N independently
//! hot-swappable engines by the
//! [`ShardMap`](prelude::ShardMap) carried in snapshot metadata.
//! [`ServeStats`](prelude::ServeStats) reports p50/p95/p99 queue-wait
//! and end-to-end latency plus per-version request counts for watching
//! a canary swap:
//!
//! ```
//! use cerl::prelude::*;
//! use std::time::Duration;
//!
//! let gen = SyntheticGenerator::new(SyntheticConfig::small(), 11);
//! let stream = DomainStream::synthetic(&gen, 2, 0, 11);
//! let mut cfg = CerlConfig::quick_test();
//! cfg.train.epochs = 2; // doc-test speed
//!
//! // One engine per domain shard, routed by domain id.
//! let engines: Vec<CerlEngine> = (0..2)
//!     .map(|d| {
//!         let mut e = CerlEngineBuilder::new(cfg.clone()).seed(d as u64).build()?;
//!         e.observe(&stream.domain(d).train, &stream.domain(d).val)?;
//!         Ok(e)
//!     })
//!     .collect::<Result<_, CerlError>>()?;
//! let map = ShardMap::from_pairs(2, &[(0, 0), (1, 1)])?;
//! let router = ShardRouter::with_batching(
//!     engines,
//!     map,
//!     BatchConfig { max_wait: Duration::from_millis(2), ..BatchConfig::default() },
//! )?;
//!
//! let x = stream.domain(1).test.x.slice_rows(0, 4);
//! let (version, ite) = router.predict_ite_versioned(1, &x)?;
//! assert_eq!((version, ite.len()), (1, 4));
//! assert!(matches!(
//!     router.predict_ite(42, &x),
//!     Err(ServeError::UnknownDomain { domain: 42 })
//! ));
//! assert_eq!(router.stats().requests, 1);
//! # Ok::<(), cerl::serve::ServeError>(())
//! ```
//!
//! ## Cross-shard queries and rebalancing
//!
//! Real traffic mixes domains in one request, and fleet topology is not
//! forever. [`ShardRouter::predict_ite_scatter`](prelude::ShardRouter)
//! serves a request whose rows span domains: rows are demuxed by the
//! pinned [`ShardMap`](prelude::ShardMap) into per-shard sub-batches,
//! fanned out, and merged back in the original row order — bitwise
//! identical to one unsharded engine serving the same rows. To move a
//! domain between shards with zero downtime,
//! [`begin_rebalance`](prelude::ShardRouter::begin_rebalance) stages a
//! probed successor for the destination (reads keep routing to the
//! source — the *dual-route window*),
//! [`commit_rebalance`](prelude::ShardRouter::commit_rebalance)
//! publishes the successor and then flips the map with one atomic
//! pointer swap (no request ever sees a torn topology), and
//! [`abort_rebalance`](prelude::ShardRouter::abort_rebalance) discards
//! the staged engine without readers ever having seen it:
//!
//! ```
//! use cerl::prelude::*;
//!
//! let gen = SyntheticGenerator::new(SyntheticConfig::small(), 13);
//! let stream = DomainStream::synthetic(&gen, 2, 0, 13);
//! let mut cfg = CerlConfig::quick_test();
//! cfg.train.epochs = 2; // doc-test speed
//! let mut engine = CerlEngineBuilder::new(cfg).seed(13).build()?;
//! engine.observe(&stream.domain(0).train, &stream.domain(0).val)?;
//!
//! // Two shards (clones of one engine, for the doc's determinism);
//! // domains 0 and 1 start on shard 0, domain 2 on shard 1.
//! let map = ShardMap::from_pairs(2, &[(0, 0), (1, 0), (2, 1)])?;
//! let router = ShardRouter::new(vec![engine.clone(), engine.clone()], map)?;
//!
//! // A mixed-domain request: each row carries its own domain tag.
//! let x = stream.domain(0).test.x.slice_rows(0, 6);
//! let tags = [0u64, 2, 1, 2, 0, 1];
//! let scatter = router.predict_ite_scatter(&tags, &x)?;
//! assert_eq!(scatter, engine.predict_ite(&x)?); // bitwise, despite the fan-out
//!
//! // Move domain 1 to shard 1: stage (dual-route window opens), commit
//! // (destination publishes first, then the map flips atomically).
//! router.begin_rebalance(1, 1, engine.clone())?;
//! assert_eq!(router.route(1)?, 0); // reads still on the source
//! router.commit_rebalance()?;
//! assert_eq!(router.route(1)?, 1);
//! assert_eq!(router.predict_ite_scatter(&tags, &x)?, scatter);
//! # Ok::<(), cerl::serve::ServeError>(())
//! ```
//!
//! ## Replicated domains
//!
//! One celebrity domain can saturate one engine. The
//! [`ShardMap`](prelude::ShardMap) therefore maps each domain to an
//! ordered **replica-set** ([`ReplicaSet`](prelude::ReplicaSet)) of
//! shards all serving the same model, and a pluggable
//! [`RoutePolicy`](prelude::RoutePolicy) picks the serving replica per
//! sub-batch — [`LeastLoaded`](prelude::LeastLoaded) (default),
//! [`RoundRobin`](prelude::RoundRobin), or
//! [`VersionPinned`](prelude::VersionPinned) for canary reads. Policies
//! choose *placement only*: results stay bitwise identical to an
//! unreplicated reference under every policy, and single-replica
//! domains never consult a policy at all. Replica membership changes
//! ride the rebalance machinery —
//! [`add_replica`](prelude::RebalanceOrchestrator::add_replica) /
//! [`drain_replica`](prelude::RebalanceOrchestrator::drain_replica) /
//! [`remove_replica`](prelude::RebalanceOrchestrator::remove_replica)
//! each watch a canary window and auto-abort on regression
//! ([`ServeError::ReplicaChangeAborted`](prelude::ServeError)):
//!
//! ```
//! use cerl::prelude::*;
//! use std::sync::Arc;
//!
//! let gen = SyntheticGenerator::new(SyntheticConfig::small(), 29);
//! let stream = DomainStream::synthetic(&gen, 1, 0, 29);
//! let mut cfg = CerlConfig::quick_test();
//! cfg.train.epochs = 2; // doc-test speed
//! let mut engine = CerlEngineBuilder::new(cfg).seed(29).build()?;
//! engine.observe(&stream.domain(0).train, &stream.domain(0).val)?;
//!
//! // Hot domain 0 on two replicas of a 2-shard fleet (clones of one
//! // engine — a replica-set always serves one model).
//! let map = ShardMap::from_replicas(2, &[(0, vec![0, 1])])?;
//! let router = Arc::new(ShardRouter::new(vec![engine.clone(), engine.clone()], map)?);
//! assert_eq!(router.replicas(0)?.shards(), &[0, 1]);
//!
//! // Any policy, same rows: spreading is invisible in the results.
//! let x = stream.domain(0).test.x.slice_rows(0, 8);
//! let reference = engine.predict_ite(&x)?;
//! for policy in [
//!     Arc::new(RoundRobin::new()) as Arc<dyn RoutePolicy>,
//!     Arc::new(LeastLoaded),
//!     Arc::new(VersionPinned::new(1)),
//! ] {
//!     router.set_route_policy(policy);
//!     assert_eq!(router.predict_ite(0, &x)?, reference); // bitwise
//! }
//!
//! // Scale back in: drain is reversible, remove is final — and under
//! // an orchestrator both watch a canary window first.
//! let orchestrator = RebalanceOrchestrator::new(
//!     Arc::clone(&router),
//!     OrchestratorConfig {
//!         canary: CanaryConfig { window_requests: 0, ..CanaryConfig::default() },
//!         ..OrchestratorConfig::default()
//!     },
//! );
//! orchestrator.drain_replica(0, 1)?;
//! assert_eq!(router.draining_replicas(), vec![(0, 1)]);
//! orchestrator.remove_replica(0, 1)?;
//! assert_eq!(router.replicas(0)?.shards(), &[0]);
//! assert_eq!(router.predict_ite(0, &x)?, reference); // still bitwise
//! # Ok::<(), cerl::serve::ServeError>(())
//! ```
//!
//! The per-domain request counters behind
//! [`ShardRouter::domain_loads`](prelude::ShardRouter::domain_loads)
//! (exported as `cerl_serve_domain_requests_total` /
//! `cerl_serve_domain_rows_total`) are the attribution signal that says
//! *which* domain earned a replica.
//!
//! ## Planned topology changes
//!
//! Moving domains one `begin`/`commit` at a time does not scale to a
//! fleet whose topology evolves with every arriving domain. A
//! [`RebalanceOrchestrator`](prelude::RebalanceOrchestrator) takes a
//! *target* [`ShardMap`](prelude::ShardMap), derives the move list
//! ([`ShardMap::diff`](prelude::ShardMap::diff)), orders it load-aware
//! (hottest source shard drains first), and executes every move through
//! the zero-downtime path — watching a **canary window** per move
//! (windowed p95 latency and error-rate deltas against a pre-plan
//! baseline) and auto-aborting with
//! [`ServeError::PlanHalted`](prelude::ServeError) if live traffic
//! regresses, leaving the fleet on the valid topology formed by the
//! committed prefix:
//!
//! ```
//! use cerl::prelude::*;
//! use std::sync::Arc;
//!
//! let gen = SyntheticGenerator::new(SyntheticConfig::small(), 17);
//! let stream = DomainStream::synthetic(&gen, 1, 0, 17);
//! let mut cfg = CerlConfig::quick_test();
//! cfg.train.epochs = 2; // doc-test speed
//! let mut engine = CerlEngineBuilder::new(cfg).seed(17).build()?;
//! engine.observe(&stream.domain(0).train, &stream.domain(0).val)?;
//!
//! // Three domains packed onto shard 0 of a 3-shard fleet (clones of one
//! // engine, for the doc's determinism); the target spreads them out.
//! let packed = ShardMap::from_pairs(3, &[(0, 0), (1, 0), (2, 0)])?;
//! let target = ShardMap::from_pairs(3, &[(0, 0), (1, 1), (2, 2)])?;
//! let router = Arc::new(ShardRouter::new(
//!     vec![engine.clone(), engine.clone(), engine.clone()],
//!     packed,
//! )?);
//!
//! let orchestrator = RebalanceOrchestrator::new(
//!     Arc::clone(&router),
//!     OrchestratorConfig {
//!         // An idle doc-test fleet: close canary windows immediately.
//!         canary: CanaryConfig { window_requests: 0, ..CanaryConfig::default() },
//!         ..OrchestratorConfig::default()
//!     },
//! );
//! let plan = orchestrator.plan(&target)?;
//! assert_eq!(plan.len(), 2);
//!
//! // Each move's successor must hold the arriving domain plus whatever
//! // its destination already serves (here: a clone of the one engine).
//! let report = orchestrator.execute(&plan, |_mv| Ok(engine.clone()))?;
//! assert_eq!(report.moves.len(), 2);
//! assert_eq!(router.route(1)?, 1);
//! assert_eq!(router.route(2)?, 2);
//!
//! // The topology now matches the target: a fresh plan is empty.
//! assert!(orchestrator.plan(&target)?.is_empty());
//! # Ok::<(), cerl::serve::ServeError>(())
//! ```
//!
//! ## Serving over the network
//!
//! The [`net`] layer puts a real socket in front of all of the above: a
//! [`NetServer`](prelude::NetServer) runs a single-threaded `epoll`
//! reactor (no external runtime) that decodes a length-prefixed binary
//! protocol, submits each request to a [`NetBackend`](prelude::NetBackend)
//! — a [`BatchScheduler`](prelude::BatchScheduler) or a
//! [`ShardRouter`](prelude::ShardRouter) — and polls the returned handles
//! as `Future`s via per-connection wakers, so one thread multiplexes
//! thousands of in-flight requests. A prediction served over the socket
//! is **bitwise identical** to the same request answered in-process.
//!
//! Request frames (little-endian; responses mirror the header and carry
//! either ITE rows or a typed status + detail string):
//!
//! | bytes | field |
//! |-------|-------|
//! | 4 | frame length `u32` (16 MiB cap — hostile prefixes are rejected, never allocated) |
//! | 1, 1, 1, 1 | magic `0xC3`, protocol version, kind (0 = request), flags (must be 0) |
//! | 8 | request id `u64` (echoed in the response) |
//! | 4 | admission deadline in ms, `u32` (0 = none) |
//! | 4, 4 | rows `u32`, cols `u32` |
//! | rows × 8 | per-row domain tags `u64` (ignored by the scheduler backend) |
//! | rows × cols × 8 | covariates, `f64` bit patterns |
//!
//! Per connection the reactor enforces a bounded in-flight window,
//! sheds requests whose **admission deadline** expires before a slot
//! frees (typed [`Deadline`](prelude::WireStatus::Deadline) response,
//! no inference spent), and stops *reading* any socket whose response
//! backlog passes the high-water mark, so a slow reader pushes back on
//! itself instead of on the fleet. Malformed bytes always produce a
//! typed [`MalformedRequest`](prelude::WireStatus::MalformedRequest) —
//! client faults and serve faults are counted separately
//! ([`NetStatsSnapshot`](prelude::NetStatsSnapshot)), mirroring the
//! canary taxonomy of
//! [`ServeError::is_client_fault`](prelude::ServeError::is_client_fault).
//!
//! ```
//! use cerl::prelude::*;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let gen = SyntheticGenerator::new(SyntheticConfig::small(), 19);
//! let stream = DomainStream::synthetic(&gen, 1, 0, 19);
//! let mut cfg = CerlConfig::quick_test();
//! cfg.train.epochs = 2; // doc-test speed
//! let mut engine = CerlEngineBuilder::new(cfg).seed(19).build()?;
//! engine.observe(&stream.domain(0).train, &stream.domain(0).val)?;
//!
//! // In-process stack: serving engine + micro-batching scheduler.
//! let serving = Arc::new(ServingEngine::new(engine));
//! let scheduler = Arc::new(BatchScheduler::new(
//!     Arc::clone(&serving),
//!     BatchConfig { max_wait: Duration::from_millis(1), ..BatchConfig::default() },
//! ));
//!
//! // Put a socket in front of it and talk to it like any client would.
//! let server = NetServer::bind(
//!     "127.0.0.1:0",
//!     NetBackend::Scheduler(scheduler),
//!     NetServerConfig::default(),
//! )?;
//! let mut client = NetClient::connect(server.local_addr())?;
//!
//! let x = stream.domain(0).test.x.slice_rows(0, 4);
//! let ite = client.predict(&[0; 4], &x, Some(Duration::from_secs(5)))?;
//! assert_eq!(ite, serving.predict_ite(&x)?); // bitwise, across the socket
//!
//! let stats = server.shutdown()?;
//! assert_eq!((stats.responses_ok, stats.rejected_serve), (1, 0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Watching a live fleet
//!
//! The [`obs`] layer is the serving stack's observability plane, and it
//! is wired through every tier above: give the server a
//! [`TraceRing`](prelude::TraceRing) and every sampled request carries a
//! span stamped at each pipeline stage (`accepted → decoded →
//! admission_wait → submitted → queue_wait → batched → inference →
//! gathered → written`) — wait-free, no lock or allocation on the hot
//! path, 1-in-N sampling, and an explicit dropped-span counter when the
//! ring overflows. Give it an `admin_bind` address and the same reactor
//! serves an **admin plane** on a second listener: unified
//! Prometheus-style metrics exposition (net counters, per-connection
//! rows, scheduler/router latency histograms, per-shard loads, trace
//! accounting), an `ok:<versions>:<inflight>` health line (also
//! answered to any **UDP datagram** on the serve address, for probes
//! that cannot afford a TCP handshake), and recent span/event dumps.
//! [`RebalanceOrchestrator`](prelude::RebalanceOrchestrator) emits
//! structured [`EventKind`](prelude::EventKind) records (baseline
//! captured, move committed/aborted, plan halted) into the same ring.
//!
//! Admin frames reuse the wire protocol with their own kinds
//! ([`AdminOp`](prelude::AdminOp): `Metrics`, `Health`, `TraceDump`);
//! the serve listener rejects them, and the admin listener rejects
//! predict frames — the planes cannot be crossed by a confused client.
//!
//! ```
//! use cerl::prelude::*;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let gen = SyntheticGenerator::new(SyntheticConfig::small(), 23);
//! let stream = DomainStream::synthetic(&gen, 1, 0, 23);
//! let mut cfg = CerlConfig::quick_test();
//! cfg.train.epochs = 2; // doc-test speed
//! let mut engine = CerlEngineBuilder::new(cfg).seed(23).build()?;
//! engine.observe(&stream.domain(0).train, &stream.domain(0).val)?;
//!
//! let serving = Arc::new(ServingEngine::new(engine));
//! let scheduler = Arc::new(BatchScheduler::new(
//!     Arc::clone(&serving),
//!     BatchConfig { max_wait: Duration::from_millis(1), ..BatchConfig::default() },
//! ));
//!
//! // Trace every request (sample_every = 1) and open the admin plane.
//! let ring = TraceRing::new(256, 1);
//! let server = NetServer::bind(
//!     "127.0.0.1:0",
//!     NetBackend::Scheduler(scheduler),
//!     NetServerConfig {
//!         admin_bind: Some("127.0.0.1:0".into()),
//!         trace: Some(Arc::clone(&ring)),
//!         ..NetServerConfig::default()
//!     },
//! )?;
//!
//! let mut client = NetClient::connect(server.local_addr())?;
//! let x = stream.domain(0).test.x.slice_rows(0, 4);
//! for _ in 0..3 {
//!     client.predict(&[0; 4], &x, None)?;
//! }
//!
//! // Scrape the fleet over the admin listener.
//! let mut admin = NetClient::connect(server.admin_addr().unwrap())?;
//! assert!(admin.health()?.starts_with("ok:1:")); // versions : inflight
//! let metrics = admin.scrape_metrics()?;
//! assert!(metrics.contains("cerl_net_responses_ok_total 3"));
//! assert!(metrics.contains("cerl_serve_requests_total"));
//! assert!(metrics.contains("cerl_obs_trace_sampled_total 3"));
//!
//! // Every span retired with monotone stage stamps.
//! let spans = ring.dump(16);
//! assert_eq!(spans.len(), 3);
//! assert!(spans.iter().all(|s| s.is_monotone()));
//! assert!(spans[0].stamp(Stage::Written).is_some());
//!
//! server.shutdown()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Invariants, machine-checked
//!
//! The concurrency discipline the serving stack depends on is enforced
//! by `cerl-analyze`, a dependency-free static-analysis pass that runs
//! as a deny-mode CI lane (and locally via
//! `cargo run -p cerl-analyze -- --deny`):
//!
//! | Rule id | Invariant |
//! |---|---|
//! | `unsafe-comment` | every `unsafe` carries a `// SAFETY:` justification |
//! | `atomic-ordering` | every `Ordering::*` in non-test code carries an `// ordering:` comment naming the happens-before edge it relies on (or stating there is none) |
//! | `seqcst-hot-path` | `SeqCst` is flagged unconditionally in hot-path modules — not waivable by annotation; today the workspace contains **zero** `SeqCst` sites |
//! | `panic-path` | no `unwrap`/`expect`/`panic!`/`assert!`/slice-indexing in non-test serving-path code without a `// panic-ok:` reason stating the bound or contract — scoped by crate prefix over all of `cerl-serve` (including the replica route policies of `policy.rs`), `cerl-net`, `cerl-obs` (including the per-domain counters of `domains.rs`), `cerl-core`'s serving module, and the dense kernels |
//! | `lock-blocking` | no lock guard held across `recv()`/`submit()`/`accept()`/`sleep`/`join()` (waive with `// lock-ok:`) |
//! | `lock-order` | the hot-swap discipline: the writer lock is acquired before the published-pointer lock (document a caller obligation with `// lock-order:`) |
//! | `taxonomy` | every `ServeError` variant is classified by `is_client_fault` (no wildcard arm) and every wire `Status` is mapped in encode/decode |
//! | `obs-stage` | every trace `.stamp(` call site names a literal `Stage::<variant>`, and within one function the named stages follow the request lifecycle order (generic forwarders waive with `// obs-stage:`) |
//!
//! Annotations live where the code lives, so `git blame` answers "why
//! is this ordering sufficient" the same way it answers "why is this
//! line here". Findings print as `file:line — rule — message`, with a
//! JSON summary (`--json`) for tooling. The analyzer's own fixtures
//! (`crates/cerl-analyze/fixtures/`) pin each rule's fire/no-fire
//! behaviour, and a self-test asserts the workspace scans clean.
//!
//! ## Research-style API
//!
//! The original research-facing types remain available: construct
//! [`Cerl`](prelude::Cerl) directly when the covariate dimension is known
//! up front, or use the infallible `observe`/`predict_ite` wrappers (which
//! panic with the typed error's message on misuse):
//!
//! ```
//! use cerl::prelude::*;
//!
//! let gen = SyntheticGenerator::new(SyntheticConfig::small(), 42);
//! let stream = DomainStream::synthetic(&gen, 2, 0, 42);
//!
//! let mut cfg = CerlConfig::quick_test();
//! cfg.train.epochs = 2; // doc-test speed
//! let mut learner = Cerl::new(stream.domain(0).train.dim(), cfg, 42);
//! for d in 0..stream.len() {
//!     learner.observe(&stream.domain(d).train, &stream.domain(d).val);
//! }
//! assert_eq!(learner.stage(), 2);
//! ```

pub use cerl_core as core;
pub use cerl_data as data;
pub use cerl_math as math;
pub use cerl_net as net;
pub use cerl_nn as nn;
pub use cerl_obs as obs;
pub use cerl_ot as ot;
pub use cerl_rand as rand;
pub use cerl_serve as serve;

/// Convenient single-import surface for applications.
pub mod prelude {
    pub use cerl_core::{
        paper_lineup, Ablation, Cerl, CerlConfig, CerlEngine, CerlEngineBuilder, CerlError, CfrA,
        CfrB, CfrC, CfrModel, ContinualEstimator, DistillKind, EffectMetrics, IpmKind, Memory,
        ModelSnapshot, NetConfig, PrecisionMode, ReplicaChange, ReplicaSet, SLearner,
        ServingEngine, ServingStats, ServingStatsSnapshot, ShardAssignment, ShardMap, ShardMapDiff,
        ShardMove, SnapshotError, SnapshotPayload, StageReport, TLearner, TrainConfig, TrainReport,
        VersionStats, VersionedEngine, SNAPSHOT_FORMAT_VERSION,
    };
    pub use cerl_data::{
        CausalDataset, DataError, DomainShift, DomainStream, SemiSyntheticConfig,
        SemiSyntheticGenerator, SyntheticConfig, SyntheticGenerator,
    };
    pub use cerl_math::Matrix;
    pub use cerl_net::{
        AdminOp, AdminRequest, AdminResponse, ConnStatsSnapshot, NetBackend, NetClient, NetError,
        NetServer, NetServerConfig, NetStatsSnapshot, Request as WireRequest,
        Response as WireResponse, Status as WireStatus, WireError,
    };
    pub use cerl_obs::{
        DomainCounters, DomainLoad, EventKind, EventSnapshot, MetricsRegistry, SpanSnapshot, Stage,
        TraceRing, TraceSpan, TraceStats,
    };
    pub use cerl_serve::{
        BatchConfig, BatchScheduler, CanaryConfig, CanarySnapshot, CanaryWindow, LatencyHistogram,
        LatencySnapshot, LeastLoaded, MoveReport, OrchestratorConfig, PlanReport,
        RebalanceOrchestrator, RebalancePlan, RebalancePlanner, ReplicaReport, ResponseHandle,
        RoundRobin, RouteContext, RoutePolicy, ScatterHandle, ScatterResponse, ServeError,
        ServeStats, ShardLoad, ShardRouter, VersionPinned,
    };
}
