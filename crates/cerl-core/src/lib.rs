//! # cerl-core
//!
//! CERL — *Continual Causal Effect Representation Learning* (Chu et al.,
//! ICDE 2023) — estimates individual and average treatment effects from
//! observational data that arrives **incrementally from non-stationary
//! domains**, without retaining raw previous data.
//!
//! The crate provides:
//!
//! * [`engine`] — the serving facade: [`CerlEngine`]
//!   with a fallible builder, typed errors, batched inference, and
//!   versioned model snapshots.
//! * [`serving`] — the concurrent layer on top:
//!   [`ServingEngine`] shares one engine across
//!   reader threads behind an atomically swappable snapshot pointer,
//!   fans large requests across workers
//!   ([`predict_ite_parallel`](serving::ServingEngine::predict_ite_parallel)),
//!   publishes every successor through one warm-probed path
//!   ([`publish`](serving::ServingEngine::publish)), and counts traffic
//!   in [`ServingStats`].
//! * [`error`] / [`snapshot`] — [`CerlError`] and the
//!   [`ModelSnapshot`] persistence format: one binary container, one
//!   version.
//! * [`cfr`] — the baseline causal-effect learner (Eq. 5): selective +
//!   balanced representation learning with two-head outcome inference.
//! * [`continual`] — [`Cerl`], Algorithm 1: feature
//!   distillation (Eq. 6), feature transformation (Eq. 7), herding memory,
//!   and global representation balancing (Eqs. 8–9).
//! * [`strategies`] — CFR-A/B/C adaptation baselines and the common
//!   [`ContinualEstimator`] trait (fallible
//!   `try_observe`/`try_predict_ite` core with infallible wrappers).
//! * [`baselines`] — classic S-learner / T-learner meta-learners.
//! * [`herding`] / [`memory`] — bounded representation memory.
//! * [`repr`] / [`heads`] / [`transform`] — network components.
//! * [`metrics`] — `√ε_PEHE` and `ε_ATE`.
//! * [`config`] — every hyper-parameter of Eq. 9 plus ablation switches,
//!   with up-front validation ([`CerlConfig::validate`](config::CerlConfig::validate)).
//!
//! ## Quick example
//!
//! ```
//! use cerl_core::config::CerlConfig;
//! use cerl_core::engine::CerlEngineBuilder;
//! use cerl_core::metrics::EffectMetrics;
//! use cerl_data::{DomainStream, SyntheticConfig, SyntheticGenerator};
//!
//! // Two incrementally available domains from shifted distributions.
//! let gen = SyntheticGenerator::new(SyntheticConfig::small(), 7);
//! let stream = DomainStream::synthetic(&gen, 2, 0, 7);
//!
//! let mut cfg = CerlConfig::quick_test();
//! cfg.train.epochs = 3; // demo speed
//! let mut engine = CerlEngineBuilder::new(cfg).seed(7).build()?;
//! for d in 0..stream.len() {
//!     engine.observe(&stream.domain(d).train, &stream.domain(d).val)?;
//! }
//! // One model now serves all seen domains — no raw data retained — and
//! // survives process restarts via versioned snapshot bytes.
//! let test = &stream.domain(0).test;
//! let metrics = EffectMetrics::on_dataset(test, &engine.predict_ite(&test.x)?);
//! assert!(metrics.sqrt_pehe.is_finite());
//! let bytes = engine.save_bytes_binary(cerl_core::snapshot::SnapshotPayload::F64)?;
//! let restored = cerl_core::engine::CerlEngine::load_bytes(&bytes)?;
//! assert_eq!(restored.predict_ite(&test.x)?, engine.predict_ite(&test.x)?);
//! # Ok::<(), cerl_core::error::CerlError>(())
//! ```
//!
//! ## Serving under concurrency
//!
//! To serve many request threads from one process — and keep serving while
//! new domains are trained in — wrap the engine in a
//! [`ServingEngine`]. Readers pin the current
//! engine version through a lock held only for an `Arc` clone;
//! [`observe_and_swap`](serving::ServingEngine::observe_and_swap) trains a
//! successor off to the side and publishes it with a single pointer swap:
//!
//! ```
//! use cerl_core::config::CerlConfig;
//! use cerl_core::engine::CerlEngineBuilder;
//! use cerl_core::serving::ServingEngine;
//! use cerl_data::{DomainStream, SyntheticConfig, SyntheticGenerator};
//!
//! let gen = SyntheticGenerator::new(SyntheticConfig::small(), 7);
//! let stream = DomainStream::synthetic(&gen, 2, 0, 7);
//! let mut cfg = CerlConfig::quick_test();
//! cfg.train.epochs = 2; // doc-test speed
//! let mut engine = CerlEngineBuilder::new(cfg).seed(7).build()?;
//! engine.observe(&stream.domain(0).train, &stream.domain(0).val)?;
//!
//! let serving = std::sync::Arc::new(ServingEngine::new(engine));
//! let x = &stream.domain(0).test.x;
//! // Request threads: `serving.predict_ite(&x)` from as many threads as
//! // desired; large matrices can fan out across workers.
//! let ite = serving.predict_ite_parallel(x, 4)?;
//! // Trainer thread: readers keep answering version 1 during this call.
//! serving.observe_and_swap(&stream.domain(1).train, &stream.domain(1).val)?;
//! assert_eq!(serving.version(), 2);
//! assert_eq!(serving.stats().requests_served, 1);
//! # assert_eq!(ite.len(), x.rows());
//! # Ok::<(), cerl_core::error::CerlError>(())
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod cfr;
pub mod config;
pub mod continual;
pub mod engine;
pub mod error;
pub mod heads;
pub mod herding;
pub mod memory;
pub mod metrics;
pub mod precision;
pub mod repr;
pub mod serving;
pub mod snapshot;
pub mod strategies;
pub mod trainer;
pub mod transform;

pub use baselines::{SLearner, TLearner};
pub use cfr::CfrModel;
pub use config::{
    Ablation, ActivationKind, CerlConfig, DistillKind, IpmKind, NetConfig, TrainConfig,
};
pub use continual::{Cerl, StageReport};
pub use engine::{CerlEngine, CerlEngineBuilder};
pub use error::{CerlError, SnapshotError};
pub use memory::Memory;
pub use metrics::EffectMetrics;
pub use precision::PrecisionMode;
pub use serving::{
    ServingEngine, ServingStats, ServingStatsSnapshot, VersionStats, VersionedEngine,
};
pub use snapshot::{
    ModelSnapshot, ReplicaChange, ReplicaSet, ShardAssignment, ShardMap, ShardMapDiff, ShardMove,
    SnapshotPayload, SNAPSHOT_FORMAT_VERSION,
};
pub use strategies::{paper_lineup, CfrA, CfrB, CfrC, ContinualEstimator};
pub use trainer::TrainReport;
