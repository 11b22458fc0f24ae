//! Serving-grade engine facade over the continual estimator.
//!
//! [`CerlEngine`] is the object a long-running service holds across stages
//! and requests:
//!
//! * **Fallible builder** — [`CerlEngineBuilder::build`] validates the
//!   configuration up front and returns [`CerlError`] instead of panicking;
//!   the covariate dimension is inferred from the first observed domain,
//!   so the engine can be constructed before any data exists.
//! * **Typed errors end to end** — [`CerlEngine::observe`] and every
//!   predict method return `Result`, so malformed requests (wrong
//!   dimension, empty batches) surface as structured errors a handler can
//!   map to a 4xx instead of crashing a worker.
//! * **Versioned snapshots** — [`CerlEngine::save_bytes_binary`] /
//!   [`CerlEngine::load_bytes`] persist the trained estimator across
//!   process restarts in the one snapshot container format and let
//!   replicas hot-swap models; with an f64 payload, restored engines
//!   predict bitwise-identically and keep learning.
//! * **Batched inference** — [`CerlEngine::predict_ite_batch`] serves a
//!   set of request matrices in one call, and
//!   [`CerlEngine::predict_ite_chunked`] bounds peak working-set size for
//!   very large request matrices by slicing them into row chunks.
//!
//! ```
//! use cerl_core::config::CerlConfig;
//! use cerl_core::engine::CerlEngineBuilder;
//! use cerl_core::snapshot::SnapshotPayload;
//! use cerl_data::{DomainStream, SyntheticConfig, SyntheticGenerator};
//!
//! let gen = SyntheticGenerator::new(SyntheticConfig::small(), 7);
//! let stream = DomainStream::synthetic(&gen, 2, 0, 7);
//!
//! let mut cfg = CerlConfig::quick_test();
//! cfg.train.epochs = 2; // doc-test speed
//! let mut engine = CerlEngineBuilder::new(cfg).seed(7).build()?;
//!
//! for d in 0..stream.len() {
//!     engine.observe(&stream.domain(d).train, &stream.domain(d).val)?;
//! }
//! let ite = engine.predict_ite(&stream.domain(0).test.x)?;
//! assert_eq!(ite.len(), stream.domain(0).test.n());
//!
//! // Persist, restart, keep serving.
//! let bytes = engine.save_bytes_binary(SnapshotPayload::F64)?;
//! let restored = cerl_core::engine::CerlEngine::load_bytes(&bytes)?;
//! assert_eq!(restored.predict_ite(&stream.domain(0).test.x)?, ite);
//! # Ok::<(), cerl_core::error::CerlError>(())
//! ```

use crate::config::CerlConfig;
use crate::continual::{Cerl, StageReport};
use crate::error::CerlError;
use crate::memory::Memory;
use crate::precision::{self, PrecisionMode, Predictor};
use crate::snapshot::{ModelSnapshot, SnapshotPayload};
use cerl_data::CausalDataset;
use cerl_math::Matrix;
use std::sync::Arc;

/// Default row-chunk size used by
/// [`CerlEngine::predict_ite_chunked`] when the caller passes 0.
pub const DEFAULT_PREDICT_CHUNK_ROWS: usize = 4096;

/// Fallible builder for [`CerlEngine`].
#[derive(Debug, Clone)]
pub struct CerlEngineBuilder {
    cfg: CerlConfig,
    seed: u64,
    d_in: Option<usize>,
    precision: PrecisionMode,
}

impl CerlEngineBuilder {
    /// Start building an engine with the given configuration.
    pub fn new(cfg: CerlConfig) -> Self {
        Self {
            cfg,
            seed: 0,
            d_in: None,
            precision: PrecisionMode::default(),
        }
    }

    /// Base seed for all stage RNG streams (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Precision the engine answers predict requests in (default
    /// [`PrecisionMode::F64`]). Training always runs in `f64`; see
    /// [`crate::precision`] for the per-mode determinism contract.
    pub fn precision(mut self, mode: PrecisionMode) -> Self {
        self.precision = mode;
        self
    }

    /// Fix the covariate dimension up front instead of inferring it from
    /// the first observed domain. Useful when the serving schema is known
    /// at deploy time: requests with the wrong width are rejected even
    /// before the first training domain arrives.
    pub fn covariate_dim(mut self, d_in: usize) -> Self {
        self.d_in = Some(d_in);
        self
    }

    /// Validate the configuration and produce an engine.
    ///
    /// Returns [`CerlError::InvalidConfig`] naming the offending field, or
    /// [`CerlError::EmptyInput`] when an explicit covariate dimension of 0
    /// was requested. No network parameters are allocated until the
    /// covariate dimension is known (explicitly or from the first domain).
    pub fn build(self) -> Result<CerlEngine, CerlError> {
        self.cfg.validate()?;
        let model = match self.d_in {
            Some(0) => {
                return Err(CerlError::EmptyInput {
                    what: "covariate dimension (d_in = 0)",
                })
            }
            Some(d_in) => Some(Cerl::try_new(d_in, self.cfg.clone(), self.seed)?),
            None => None,
        };
        Ok(CerlEngine {
            cfg: self.cfg,
            seed: self.seed,
            model,
            precision: self.precision,
            plan: None,
        })
    }
}

/// Long-lived serving facade: observes domains as they arrive, answers
/// prediction requests, and saves/loads versioned snapshots.
///
/// `Clone` produces an independent replica (all state is owned); the
/// concurrent [`ServingEngine`](crate::serving::ServingEngine) uses this to
/// train a successor off to the side while readers keep hitting the
/// current engine.
#[derive(Clone)]
pub struct CerlEngine {
    cfg: CerlConfig,
    seed: u64,
    model: Option<Cerl>,
    /// Precision predict and embed requests are answered in. Training
    /// always runs in `f64`.
    precision: PrecisionMode,
    /// The inference plan in `precision`; `Some` exactly when the engine
    /// is trained (recompiled after every
    /// [`observe`](CerlEngine::observe), since weights change).
    plan: Option<Arc<dyn Predictor>>,
}

impl CerlEngine {
    /// Builder entry point (alias for [`CerlEngineBuilder::new`]).
    pub fn builder(cfg: CerlConfig) -> CerlEngineBuilder {
        CerlEngineBuilder::new(cfg)
    }

    /// Observe the next incrementally available domain.
    ///
    /// On the very first call the covariate dimension is inferred from
    /// `train` (unless fixed via [`CerlEngineBuilder::covariate_dim`]) and
    /// the underlying estimator is created. On error the engine state is
    /// unchanged.
    pub fn observe(
        &mut self,
        train: &CausalDataset,
        val: &CausalDataset,
    ) -> Result<StageReport, CerlError> {
        let report = match self.model.as_mut() {
            Some(model) => model.try_observe(train, val)?,
            None => {
                if train.dim() == 0 {
                    return Err(CerlError::EmptyInput {
                        what: "first domain has no covariates",
                    });
                }
                // Build the estimator in a local and only install it once
                // the first stage succeeds, so a malformed first domain
                // does not lock in an inferred covariate dimension.
                let mut model = Cerl::try_new(train.dim(), self.cfg.clone(), self.seed)?;
                let report = model.try_observe(train, val)?;
                self.model = Some(model);
                report
            }
        };
        // The stage rewrote the weights: the compiled plan is stale.
        self.refresh_plan()?;
        Ok(report)
    }

    /// Switch the precision predict requests are answered in.
    ///
    /// The inference plan is recompiled in the new precision from the
    /// current weights (immediately if trained, otherwise at the first
    /// successful [`observe`](CerlEngine::observe)). See
    /// [`crate::precision`] for the per-mode determinism contract.
    pub fn set_precision(&mut self, mode: PrecisionMode) -> Result<(), CerlError> {
        self.precision = mode;
        self.refresh_plan()
    }

    /// Precision predict requests are answered in.
    pub fn precision(&self) -> PrecisionMode {
        self.precision
    }

    /// Re-establish the invariant on [`CerlEngine::plan`]: compiled in
    /// the engine's precision exactly when a trained model exists.
    fn refresh_plan(&mut self) -> Result<(), CerlError> {
        self.plan = match self.trained() {
            Ok(model) => Some(precision::compile(self.precision, model.cfr())?),
            Err(_) => None,
        };
        Ok(())
    }

    fn compiled(&self) -> Result<&dyn Predictor, CerlError> {
        self.plan.as_deref().ok_or(CerlError::NotTrained)
    }

    /// Predict ITEs for one validated-or-validatable request matrix in
    /// the engine's precision mode. All public predict paths funnel here,
    /// so batched/chunked/single calls stay bitwise-consistent per mode.
    fn predict_rows(&self, x: &Matrix) -> Result<Vec<f64>, CerlError> {
        self.compiled()?.predict_ite(x)
    }

    /// Predicted individual treatment effects for one request matrix, in
    /// the engine's [`PrecisionMode`].
    pub fn predict_ite(&self, x: &Matrix) -> Result<Vec<f64>, CerlError> {
        self.predict_rows(x)
    }

    /// Predicted potential outcomes `(ŷ₀, ŷ₁)` for one request matrix, in
    /// the engine's [`PrecisionMode`].
    pub fn predict_potential_outcomes(
        &self,
        x: &Matrix,
    ) -> Result<(Vec<f64>, Vec<f64>), CerlError> {
        self.compiled()?.predict_potential_outcomes(x)
    }

    /// Representations `g(x)` of raw covariates, from the same compiled
    /// plan and in the same [`PrecisionMode`] as the predictions (widened
    /// to `f64`). Training computes its own embeddings in `f64` whatever
    /// the serving mode.
    pub fn embed(&self, x: &Matrix) -> Result<Matrix, CerlError> {
        self.compiled()?.embed(x)
    }

    /// Serve a batch of request matrices in one call; result `i` is the
    /// ITE vector for `chunks[i]`.
    ///
    /// Validation is all-or-nothing: every chunk's dimension is checked
    /// before any inference runs, so a malformed chunk in the middle of a
    /// batch cannot leave the caller with partial results.
    pub fn predict_ite_batch(&self, chunks: &[Matrix]) -> Result<Vec<Vec<f64>>, CerlError> {
        let model = self.trained()?;
        let expected = model.d_in();
        for chunk in chunks {
            if chunk.cols() != expected {
                return Err(CerlError::DimensionMismatch {
                    expected,
                    found: chunk.cols(),
                });
            }
        }
        chunks
            .iter()
            .map(|chunk| self.predict_rows(chunk))
            .collect()
    }

    /// Predict ITEs for one large request matrix in row chunks of at most
    /// `chunk_rows` (0 selects [`DEFAULT_PREDICT_CHUNK_ROWS`]), bounding
    /// the transient activation memory while producing exactly the same
    /// output as a single [`CerlEngine::predict_ite`] call.
    pub fn predict_ite_chunked(
        &self,
        x: &Matrix,
        chunk_rows: usize,
    ) -> Result<Vec<f64>, CerlError> {
        let model = self.trained()?;
        if x.cols() != model.d_in() {
            return Err(CerlError::DimensionMismatch {
                expected: model.d_in(),
                found: x.cols(),
            });
        }
        let chunk_rows = if chunk_rows == 0 {
            DEFAULT_PREDICT_CHUNK_ROWS
        } else {
            chunk_rows
        };
        let n = x.rows();
        let mut out = Vec::with_capacity(n);
        let mut start = 0;
        while start < n {
            let end = (start + chunk_rows).min(n);
            out.extend(self.predict_rows(&x.slice_rows(start, end))?);
            start = end;
        }
        Ok(out)
    }

    /// Completed continual stages (0 until the first domain is observed).
    pub fn stage(&self) -> usize {
        self.model.as_ref().map_or(0, Cerl::stage)
    }

    /// Whether at least one domain has been observed.
    pub fn is_trained(&self) -> bool {
        self.stage() > 0
    }

    /// Covariate dimension served by this engine, once known (fixed via
    /// [`CerlEngineBuilder::covariate_dim`] or inferred from the first
    /// observed domain).
    pub fn covariate_dim(&self) -> Option<usize> {
        self.model.as_ref().map(Cerl::d_in)
    }

    /// Configuration in use.
    pub fn config(&self) -> &CerlConfig {
        &self.cfg
    }

    /// Base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current representation memory, when one exists.
    pub fn memory(&self) -> Option<&Memory> {
        self.model.as_ref().and_then(Cerl::memory)
    }

    /// Capture the engine's full state as a versioned snapshot.
    ///
    /// Fails with [`CerlError::NotTrained`] before the first observed
    /// domain — an untrained model is one configuration away from
    /// reconstruction, so there is nothing worth persisting (and nothing a
    /// restoring replica could serve).
    pub fn snapshot(&self) -> Result<ModelSnapshot, CerlError> {
        Ok(self.trained()?.to_snapshot())
    }

    /// Serialize the engine to the snapshot container (see
    /// [`crate::snapshot`] for the format).
    ///
    /// [`SnapshotPayload::F64`] round-trips bitwise;
    /// [`SnapshotPayload::F32`] narrows model floats exactly as
    /// [`PrecisionMode::F32`] serving does, so a replica restored from it
    /// and opted into f32 mode serves bitwise-identical predictions to
    /// this engine's f32 mode. [`CerlEngine::load_bytes`] reads both
    /// payloads.
    pub fn save_bytes_binary(&self, payload: SnapshotPayload) -> Result<Vec<u8>, CerlError> {
        self.snapshot()?.to_binary_bytes(payload)
    }

    /// Rebuild an engine from snapshot bytes (from
    /// [`CerlEngine::save_bytes_binary`], another replica, or a model
    /// registry). The restored engine serves
    /// bitwise-identical predictions and continues `observe`-ing subsequent
    /// domains.
    pub fn load_bytes(bytes: &[u8]) -> Result<Self, CerlError> {
        Self::from_snapshot(ModelSnapshot::from_bytes(bytes)?)
    }

    /// Rebuild an engine from an already-parsed snapshot.
    ///
    /// The restored engine answers in [`PrecisionMode::F64`] — precision
    /// is a serving property, not model state; a fleet that wants an
    /// `f32` version calls [`CerlEngine::set_precision`] before
    /// publishing.
    pub fn from_snapshot(snapshot: ModelSnapshot) -> Result<Self, CerlError> {
        // Restore compiles (and smoke-checks) the f64 plan; keep it.
        let (model, plan) = snapshot.into_cerl()?;
        Ok(Self {
            cfg: model.config().clone(),
            seed: model.seed(),
            model: Some(model),
            precision: PrecisionMode::F64,
            plan: plan.map(|p| Arc::new(p) as Arc<dyn Predictor>),
        })
    }

    /// Borrow the underlying estimator (after the first observed domain).
    pub fn estimator(&self) -> Option<&Cerl> {
        self.model.as_ref()
    }

    fn trained(&self) -> Result<&Cerl, CerlError> {
        match self.model.as_ref() {
            Some(model) if model.stage() > 0 => Ok(model),
            _ => Err(CerlError::NotTrained),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            41,
        );
        DomainStream::synthetic(&gen, domains, 0, 41)
    }

    #[test]
    fn builder_validates_config() {
        let mut cfg = quick_cfg();
        cfg.memory_size = 0;
        match CerlEngineBuilder::new(cfg).build() {
            Err(CerlError::InvalidConfig { field, .. }) => assert_eq!(field, "memory_size"),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn engine_infers_dimension_and_serves_all_domains() {
        let stream = quick_stream(2);
        let mut engine = CerlEngineBuilder::new(quick_cfg()).seed(5).build().unwrap();
        assert!(!engine.is_trained());
        assert!(matches!(
            engine.predict_ite(&stream.domain(0).test.x),
            Err(CerlError::NotTrained)
        ));
        for d in 0..2 {
            let report = engine
                .observe(&stream.domain(d).train, &stream.domain(d).val)
                .unwrap();
            assert_eq!(report.stage, d + 1);
        }
        assert_eq!(engine.stage(), 2);
        let ite = engine.predict_ite(&stream.domain(0).test.x).unwrap();
        assert_eq!(ite.len(), stream.domain(0).test.n());
    }

    #[test]
    fn explicit_dimension_rejects_foreign_domains() {
        let stream = quick_stream(1);
        let d_in = stream.domain(0).train.dim();
        let mut engine = CerlEngineBuilder::new(quick_cfg())
            .covariate_dim(d_in + 1)
            .build()
            .unwrap();
        match engine.observe(&stream.domain(0).train, &stream.domain(0).val) {
            Err(CerlError::DimensionMismatch { expected, found }) => {
                assert_eq!(expected, d_in + 1);
                assert_eq!(found, d_in);
            }
            other => panic!("expected DimensionMismatch, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn batch_and_chunked_prediction_match_single_call() {
        let stream = quick_stream(1);
        let mut engine = CerlEngineBuilder::new(quick_cfg()).seed(6).build().unwrap();
        engine
            .observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();

        let x = &stream.domain(0).test.x;
        let single = engine.predict_ite(x).unwrap();

        let n = x.rows();
        let first: Vec<usize> = (0..n / 2).collect();
        let second: Vec<usize> = (n / 2..n).collect();
        let batch = engine
            .predict_ite_batch(&[x.select_rows(&first), x.select_rows(&second)])
            .unwrap();
        let rejoined: Vec<f64> = batch.into_iter().flatten().collect();
        assert_eq!(rejoined, single);

        for chunk_rows in [1, 7, n, n + 100, 0] {
            assert_eq!(engine.predict_ite_chunked(x, chunk_rows).unwrap(), single);
        }
    }

    #[test]
    fn batch_validation_is_all_or_nothing() {
        let stream = quick_stream(1);
        let mut engine = CerlEngineBuilder::new(quick_cfg()).build().unwrap();
        engine
            .observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        let x = &stream.domain(0).test.x;
        let bad = cerl_math::Matrix::zeros(3, x.cols() + 2);
        assert!(matches!(
            engine.predict_ite_batch(&[x.clone(), bad]),
            Err(CerlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn f32_mode_is_close_to_f64_and_bitwise_stable_across_batching() {
        let stream = quick_stream(1);
        let mut engine = CerlEngineBuilder::new(quick_cfg()).seed(7).build().unwrap();
        engine
            .observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        let x = &stream.domain(0).test.x;
        let f64_ite = engine.predict_ite(x).unwrap();

        engine.set_precision(PrecisionMode::F32).unwrap();
        assert_eq!(engine.precision(), PrecisionMode::F32);
        let f32_ite = engine.predict_ite(x).unwrap();

        // Approximate agreement with the training-precision path: the
        // narrowing error through standardize → repr → heads → rescale
        // stays far below the effect scale.
        let scale = f64_ite.iter().fold(1.0f64, |acc, &v| acc.max(v.abs()));
        for (a, b) in f32_ite.iter().zip(&f64_ite) {
            assert!(
                (a - b).abs() <= 1e-3 * scale,
                "f32 {a} vs f64 {b} (scale {scale})"
            );
        }

        // Per-mode bitwise contract: batched == unbatched == chunked.
        let n = x.rows();
        let split: Vec<usize> = (0..n / 3).collect();
        let rest: Vec<usize> = (n / 3..n).collect();
        let batch: Vec<f64> = engine
            .predict_ite_batch(&[x.select_rows(&split), x.select_rows(&rest)])
            .unwrap()
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(batch, f32_ite);
        for chunk_rows in [1, 7, n, 0] {
            assert_eq!(engine.predict_ite_chunked(x, chunk_rows).unwrap(), f32_ite);
        }

        // Potential outcomes are served from the same plan: the ITE is
        // exactly their difference.
        let (y0, y1) = engine.predict_potential_outcomes(x).unwrap();
        let diff: Vec<f64> = y1.iter().zip(&y0).map(|(&a, &b)| a - b).collect();
        assert_eq!(diff, f32_ite);

        // Switching back restores the f64 path bitwise.
        engine.set_precision(PrecisionMode::F64).unwrap();
        assert_eq!(engine.predict_ite(x).unwrap(), f64_ite);
    }

    #[test]
    fn f32_mode_survives_observe_and_validates_requests() {
        let stream = quick_stream(2);
        // Opt in before any training: the plan compiles at first observe.
        let mut engine = CerlEngineBuilder::new(quick_cfg())
            .seed(8)
            .precision(PrecisionMode::F32)
            .build()
            .unwrap();
        assert!(matches!(
            engine.predict_ite(&stream.domain(0).test.x),
            Err(CerlError::NotTrained)
        ));
        engine
            .observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        let x = &stream.domain(0).test.x;
        let stage1 = engine.predict_ite(x).unwrap();
        assert_eq!(stage1.len(), x.rows());

        // Wrong-width requests keep failing with the typed error.
        let bad = Matrix::zeros(2, x.cols() + 1);
        assert!(matches!(
            engine.predict_ite(&bad),
            Err(CerlError::DimensionMismatch { .. })
        ));
        // Empty requests are answered (with nothing), not rejected.
        assert!(engine
            .predict_ite(&Matrix::zeros(0, x.cols()))
            .unwrap()
            .is_empty());

        // The next stage rewrites weights; the plan must follow them.
        engine
            .observe(&stream.domain(1).train, &stream.domain(1).val)
            .unwrap();
        let stage2 = engine.predict_ite(x).unwrap();
        assert_ne!(stage1, stage2, "stale f32 plan served pre-observe weights");

        // A clone is an independent replica answering identically.
        let replica = engine.clone();
        assert_eq!(replica.precision(), PrecisionMode::F32);
        assert_eq!(replica.predict_ite(x).unwrap(), stage2);
    }

    #[test]
    fn restored_snapshot_defaults_to_f64_and_can_opt_into_f32() {
        let stream = quick_stream(1);
        let mut engine = CerlEngineBuilder::new(quick_cfg())
            .seed(10)
            .build()
            .unwrap();
        engine
            .observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        engine.set_precision(PrecisionMode::F32).unwrap();
        let x = &stream.domain(0).test.x;
        let f32_ite = engine.predict_ite(x).unwrap();

        // Precision is serving state, not model state: it does not ride
        // in the snapshot.
        let bytes = engine.save_bytes_binary(SnapshotPayload::F64).unwrap();
        let mut restored = CerlEngine::load_bytes(&bytes).unwrap();
        assert_eq!(restored.precision(), PrecisionMode::F64);

        // Opting the replica in reproduces the f32 predictions bitwise —
        // same weights, same narrowing, same plan.
        restored.set_precision(PrecisionMode::F32).unwrap();
        assert_eq!(restored.predict_ite(x).unwrap(), f32_ite);
    }

    #[test]
    fn f32_payload_snapshot_is_compact_and_f32_serving_exact() {
        let stream = quick_stream(1);
        let mut engine = CerlEngineBuilder::new(quick_cfg())
            .seed(10)
            .build()
            .unwrap();
        engine
            .observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        engine.set_precision(PrecisionMode::F32).unwrap();
        let x = &stream.domain(0).test.x;
        let f32_ite = engine.predict_ite(x).unwrap();

        let wide = engine.save_bytes_binary(SnapshotPayload::F64).unwrap();
        let bin = engine.save_bytes_binary(SnapshotPayload::F32).unwrap();
        assert!(
            bin.len() * 5 <= wide.len() * 3,
            "f32 container {} must be at most 3/5 of the f64 container {}",
            bin.len(),
            wide.len()
        );

        // The narrowed payload holds exactly the floats the f32 plan
        // compiles from, so an f32-mode replica restored from it answers
        // bitwise-identically to this engine's f32 mode.
        let mut restored = CerlEngine::load_bytes(&bin).unwrap();
        assert_eq!(restored.precision(), PrecisionMode::F64);
        restored.set_precision(PrecisionMode::F32).unwrap();
        assert_eq!(restored.predict_ite(x).unwrap(), f32_ite);
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions_and_learning() {
        let stream = quick_stream(2);
        let mut engine = CerlEngineBuilder::new(quick_cfg()).seed(9).build().unwrap();
        assert!(matches!(
            engine.save_bytes_binary(SnapshotPayload::F64),
            Err(CerlError::NotTrained)
        ));
        engine
            .observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();

        let bytes = engine.save_bytes_binary(SnapshotPayload::F64).unwrap();
        let mut restored = CerlEngine::load_bytes(&bytes).unwrap();
        let x = &stream.domain(0).test.x;
        assert_eq!(
            restored.predict_ite(x).unwrap(),
            engine.predict_ite(x).unwrap()
        );

        // Both replicas continue identically on the next domain.
        engine
            .observe(&stream.domain(1).train, &stream.domain(1).val)
            .unwrap();
        restored
            .observe(&stream.domain(1).train, &stream.domain(1).val)
            .unwrap();
        assert_eq!(
            restored.predict_ite(x).unwrap(),
            engine.predict_ite(x).unwrap()
        );
    }
}
