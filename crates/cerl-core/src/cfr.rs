//! Baseline causal-effect learning model (paper §III-A.1) — a
//! counterfactual-regression (CFR) estimator: selective + balanced
//! representation learning with two-head outcome inference.
//!
//! Objective (Eq. 5): `L = L_Y + α·Wass(P,Q) + λ·L_w`.
//!
//! This model is both CERL's first-stage learner and the backbone of the
//! three adaptation strategies (CFR-A/B/C) the paper compares against.

use crate::config::{CerlConfig, IpmKind};
use crate::error::CerlError;
use crate::heads::OutcomeHeads;
use crate::precision::{InferencePlan, Predictor};
use crate::repr::ReprNet;
use crate::snapshot::CfrState;
use crate::trainer::{minibatches, validate_stage_inputs, EarlyStopper, TrainReport};
use cerl_data::{CausalDataset, OutcomeScaler, Standardizer};
use cerl_math::Matrix;
use cerl_nn::compose::{elastic_net_penalty, mse, weighted_sum};
use cerl_nn::{Adam, Graph, NodeId, Optimizer, ParamStore};
use cerl_ot::{linear_mmd, rbf_mmd, wasserstein, Bandwidth};
use cerl_rand::seeds;

/// Symmetric z-score clip applied by all model standardizers (guards
/// against exploding inputs when later domains activate features that were
/// nearly constant in the fitting domain).
pub(crate) const Z_CLIP: f64 = 8.0;

/// Counterfactual-regression model (representation net + two heads).
#[derive(Clone)]
pub struct CfrModel {
    cfg: CerlConfig,
    store: ParamStore,
    repr: ReprNet,
    heads: OutcomeHeads,
    x_std: Option<Standardizer>,
    y_scale: Option<OutcomeScaler>,
    seed: u64,
    d_in: usize,
    stages_trained: usize,
}

impl CfrModel {
    /// Create an untrained model for `d_in`-dimensional covariates.
    ///
    /// # Panics
    /// On an invalid configuration; [`CfrModel::try_new`] is the fallible
    /// form.
    pub fn new(d_in: usize, cfg: CerlConfig, seed: u64) -> Self {
        match Self::try_new(d_in, cfg, seed) {
            Ok(model) => model,
            Err(e) => panic!("CfrModel::new: {e}"),
        }
    }

    /// Create an untrained model, validating the configuration and the
    /// covariate dimension first.
    pub fn try_new(d_in: usize, cfg: CerlConfig, seed: u64) -> Result<Self, CerlError> {
        cfg.validate()?;
        if d_in == 0 {
            return Err(CerlError::EmptyInput {
                what: "covariate dimension (d_in = 0)",
            });
        }
        let mut store = ParamStore::new();
        let mut rng = seeds::rng_labeled(seed, "init");
        let repr = ReprNet::new(
            &mut store,
            &mut rng,
            d_in,
            &cfg.net,
            cfg.ablation.cosine_norm,
            "g",
        );
        let heads = OutcomeHeads::new(&mut store, &mut rng, cfg.net.repr_dim, &cfg.net, "h");
        Ok(Self {
            cfg,
            store,
            repr,
            heads,
            x_std: None,
            y_scale: None,
            seed,
            d_in,
            stages_trained: 0,
        })
    }

    /// Covariate dimension this model was built for.
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Configuration in use.
    pub fn config(&self) -> &CerlConfig {
        &self.cfg
    }

    /// Train from the current parameters on `train`, early-stopping on
    /// `val`.
    ///
    /// # Panics
    /// On invalid input; [`CfrModel::try_train`] is the fallible form.
    pub fn train(&mut self, train: &CausalDataset, val: &CausalDataset) -> TrainReport {
        match self.try_train(train, val) {
            Ok(report) => report,
            Err(e) => panic!("CfrModel::train: {e}"),
        }
    }

    /// Train from the current parameters on `train`, early-stopping on
    /// `val`. Refits the covariate/outcome scalers on `train` (this is what
    /// fine-tuning strategies do when new data arrives).
    pub fn try_train(
        &mut self,
        train: &CausalDataset,
        val: &CausalDataset,
    ) -> Result<TrainReport, CerlError> {
        validate_stage_inputs(train, val, self.d_in)?;
        let x_std = Standardizer::try_fit_clipped(&train.x, Z_CLIP)?;
        let y_scale = OutcomeScaler::try_fit(&train.y)?;
        let xs = x_std.try_transform(&train.x)?;
        let ys = Matrix::col_vector(&y_scale.transform(&train.y));
        let xv = x_std.try_transform(&val.x)?;
        let yv = y_scale.transform(&val.y);
        self.x_std = Some(x_std);
        self.y_scale = Some(y_scale);

        let params = {
            let mut p = self.repr.params();
            p.extend(self.heads.params());
            p
        };
        let mut opt = Adam::new(self.cfg.train.learning_rate);
        let mut stopper = EarlyStopper::new(params.clone(), self.cfg.train.patience);
        let mut rng = seeds::rng_labeled(self.seed, &format!("train-{}", self.stages_trained));

        let mut final_train_loss = f64::NAN;
        let mut epochs_run = 0;
        for _epoch in 0..self.cfg.train.epochs {
            epochs_run += 1;
            let mut epoch_loss = 0.0;
            let batches = minibatches(train.n(), self.cfg.train.batch_size, &mut rng);
            let n_batches = batches.len();
            for batch in batches {
                let xb = xs.select_rows(&batch);
                let yb = ys.select_rows(&batch);
                let tb: Vec<bool> = batch.iter().map(|&i| train.t[i]).collect();

                let mut g = Graph::new();
                let x = g.input(xb);
                let r = self.repr.forward(&mut g, &self.store, x);
                let y_hat = self.heads.forward_factual(&mut g, &self.store, r, &tb);
                let y_node = g.input(yb);
                let ly = mse(&mut g, y_hat, y_node);

                let mut terms = vec![(ly, 1.0)];
                if let Some(ipm) = self.ipm_term(&mut g, r, &tb) {
                    terms.push((ipm, self.cfg.alpha));
                }
                if self.cfg.lambda > 0.0 {
                    let lw = elastic_net_penalty(&mut g, &self.store, &self.repr.weights());
                    terms.push((lw, self.cfg.lambda));
                }
                let loss = weighted_sum(&mut g, &terms);
                epoch_loss += g.scalar(loss);

                let mut grads = g.backward(loss);
                if self.cfg.train.clip_norm > 0.0 {
                    grads.clip_global_norm(self.cfg.train.clip_norm);
                }
                opt.step(&mut self.store, &grads, &params);
            }
            final_train_loss = epoch_loss / n_batches.max(1) as f64;

            let val_loss = self.factual_mse_scaled(&xv, &yv, &val.t)?;
            if stopper.update(&self.store, val_loss) {
                break;
            }
        }
        stopper.restore_best(&mut self.store);
        self.stages_trained += 1;
        Ok(TrainReport {
            epochs_run,
            best_val_loss: stopper.best_loss(),
            final_train_loss,
        })
    }

    /// IPM balance term between treated/control representations within a
    /// batch; `None` when disabled or a group has < 2 units.
    fn ipm_term(&self, g: &mut Graph, r: NodeId, t: &[bool]) -> Option<NodeId> {
        if self.cfg.alpha == 0.0 || self.cfg.ipm == IpmKind::None {
            return None;
        }
        let treated: Vec<usize> = (0..t.len()).filter(|&i| t[i]).collect();
        let control: Vec<usize> = (0..t.len()).filter(|&i| !t[i]).collect();
        if treated.len() < 2 || control.len() < 2 {
            return None;
        }
        let rt = g.select_rows(r, &treated);
        let rc = g.select_rows(r, &control);
        match self.cfg.ipm {
            IpmKind::Wasserstein => Some(wasserstein(g, rt, rc, self.cfg.sinkhorn())),
            IpmKind::LinearMmd => Some(linear_mmd(g, rt, rc)),
            IpmKind::RbfMmd => Some(rbf_mmd(g, rt, rc, Bandwidth::MedianHeuristic)),
            IpmKind::None => None,
        }
    }

    /// Factual MSE in scaled-outcome space on pre-standardized covariates
    /// (validation criterion).
    fn factual_mse_scaled(
        &self,
        x_std: &Matrix,
        y_scaled: &[f64],
        t: &[bool],
    ) -> Result<f64, CerlError> {
        if x_std.rows() == 0 {
            return Ok(0.0);
        }
        let plan = InferencePlan::<f64>::network(&self.store, &self.repr, &self.heads);
        let (y0, y1) = plan.predict_potential_outcomes(x_std)?;
        let mut se = 0.0;
        for i in 0..x_std.rows() {
            let pred = if t[i] { y1[i] } else { y0[i] };
            se += (pred - y_scaled[i]) * (pred - y_scaled[i]);
        }
        Ok(se / x_std.rows() as f64)
    }

    /// Representations of (raw) covariates under the trained pipeline.
    ///
    /// # Panics
    /// If called before training; [`CfrModel::try_embed`] is the fallible
    /// form.
    pub fn embed(&self, x: &Matrix) -> Matrix {
        match self.try_embed(x) {
            Ok(r) => r,
            Err(e) => panic!("CfrModel::embed: {e}"),
        }
    }

    /// Representations of (raw) covariates under the trained pipeline,
    /// failing with a typed error before training or on a dimension
    /// mismatch.
    pub fn try_embed(&self, x: &Matrix) -> Result<Matrix, CerlError> {
        InferencePlan::<f64>::compile(self)?.embed(x)
    }

    /// Predict both potential outcomes (original outcome scale).
    ///
    /// # Panics
    /// If called before training;
    /// [`CfrModel::try_predict_potential_outcomes`] is the fallible form.
    pub fn predict_potential_outcomes(&self, x: &Matrix) -> (Vec<f64>, Vec<f64>) {
        match self.try_predict_potential_outcomes(x) {
            Ok(pair) => pair,
            Err(e) => panic!("CfrModel::predict_potential_outcomes: {e}"),
        }
    }

    /// Predict both potential outcomes (original outcome scale), failing
    /// with a typed error before training or on a dimension mismatch.
    pub fn try_predict_potential_outcomes(
        &self,
        x: &Matrix,
    ) -> Result<(Vec<f64>, Vec<f64>), CerlError> {
        InferencePlan::<f64>::compile(self)?.predict_potential_outcomes(x)
    }

    /// Predicted individual treatment effects `ŷ₁ − ŷ₀`.
    ///
    /// # Panics
    /// If called before training; [`CfrModel::try_predict_ite`] is the
    /// fallible form.
    pub fn predict_ite(&self, x: &Matrix) -> Vec<f64> {
        match self.try_predict_ite(x) {
            Ok(ite) => ite,
            Err(e) => panic!("CfrModel::predict_ite: {e}"),
        }
    }

    /// Predicted individual treatment effects `ŷ₁ − ŷ₀`, failing with a
    /// typed error before training or on a dimension mismatch.
    pub fn try_predict_ite(&self, x: &Matrix) -> Result<Vec<f64>, CerlError> {
        InferencePlan::<f64>::compile(self)?.predict_ite(x)
    }

    // ---- internals exposed to the continual trainer -------------------

    pub(crate) fn store(&self) -> &ParamStore {
        &self.store
    }

    pub(crate) fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    pub(crate) fn repr(&self) -> &ReprNet {
        &self.repr
    }

    pub(crate) fn heads(&self) -> &OutcomeHeads {
        &self.heads
    }

    pub(crate) fn x_std(&self) -> Option<&Standardizer> {
        self.x_std.as_ref()
    }

    pub(crate) fn y_scale(&self) -> Option<&OutcomeScaler> {
        self.y_scale.as_ref()
    }

    pub(crate) fn set_scalers(&mut self, x_std: Standardizer, y_scale: OutcomeScaler) {
        self.x_std = Some(x_std);
        self.y_scale = Some(y_scale);
    }

    /// Re-initialize the representation network and heads with fresh
    /// random parameters (the paper's continual stages train *new
    /// parameters* `w_d`; knowledge transfer happens through distillation
    /// and memory replay, not warm starting).
    pub(crate) fn reinitialize(&mut self, stage: usize) {
        let mut rng = seeds::rng_labeled(self.seed, &format!("reinit-{stage}"));
        let d_in = self.d_in;
        self.repr = ReprNet::new(
            &mut self.store,
            &mut rng,
            d_in,
            &self.cfg.net,
            self.cfg.ablation.cosine_norm,
            &format!("g{stage}"),
        );
        self.heads = OutcomeHeads::new(
            &mut self.store,
            &mut rng,
            self.cfg.net.repr_dim,
            &self.cfg.net,
            &format!("h{stage}"),
        );
    }

    pub(crate) fn bump_stage(&mut self) {
        self.stages_trained += 1;
    }

    /// Capture everything needed to reconstruct this model (snapshot
    /// support).
    pub(crate) fn to_state(&self) -> CfrState {
        CfrState {
            store: self.store.clone(),
            repr: self.repr.clone(),
            heads: self.heads.clone(),
            x_std: self.x_std.clone(),
            y_scale: self.y_scale,
            d_in: self.d_in,
            stages_trained: self.stages_trained,
        }
    }

    /// Rebuild a model from a captured state; the caller (snapshot layer)
    /// has already validated parameter-id consistency.
    pub(crate) fn from_state(state: CfrState, cfg: CerlConfig, seed: u64) -> Self {
        Self {
            cfg,
            store: state.store,
            repr: state.repr,
            heads: state.heads,
            x_std: state.x_std,
            y_scale: state.y_scale,
            seed,
            d_in: state.d_in,
            stages_trained: state.stages_trained,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EffectMetrics;
    use cerl_data::{SyntheticConfig, SyntheticGenerator};
    use rand::SeedableRng;

    fn quick_data() -> (CausalDataset, CausalDataset, CausalDataset) {
        let gen = SyntheticGenerator::new(
            SyntheticConfig {
                n_units: 600,
                ..SyntheticConfig::small()
            },
            42,
        );
        let data = gen.domain(0, 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let s = data.split(0.6, 0.2, &mut rng);
        (s.train, s.val, s.test)
    }

    #[test]
    fn training_reduces_validation_loss_and_learns_effects() {
        let (train, val, test) = quick_data();
        let mut cfg = CerlConfig::quick_test();
        cfg.train.epochs = 40;
        let mut model = CfrModel::new(train.dim(), cfg, 3);
        let report = model.train(&train, &val);
        assert!(report.best_val_loss.is_finite());
        assert!(report.epochs_run >= 1);

        let est = model.predict_ite(&test.x);
        let m = EffectMetrics::on_dataset(&test, &est);
        // True ATE ≈ 0.4–0.6 with τ = sin²; an untrained/na(ï)ve zero
        // estimator would have √PEHE ≈ 0.55. Require clear improvement.
        let zero = EffectMetrics::on_dataset(&test, &vec![0.0; test.n()]);
        assert!(
            m.sqrt_pehe < zero.sqrt_pehe,
            "learned {:.3} vs trivial {:.3}",
            m.sqrt_pehe,
            zero.sqrt_pehe
        );
        assert!(m.ate_error < 0.4, "ate_error {}", m.ate_error);
    }

    #[test]
    fn predict_before_training_panics() {
        let model = CfrModel::new(5, CerlConfig::quick_test(), 1);
        let x = Matrix::zeros(2, 5);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| model.predict_ite(&x)));
        assert!(result.is_err());
    }

    #[test]
    fn embedding_dimension_matches_config() {
        let (train, val, _) = quick_data();
        let cfg = CerlConfig::quick_test();
        let repr_dim = cfg.net.repr_dim;
        let mut model = CfrModel::new(train.dim(), cfg, 5);
        let small_cfg_train = train.clone();
        // Train briefly just to fit scalers.
        model.cfg.train.epochs = 2;
        model.train(&small_cfg_train, &val);
        let r = model.embed(&train.x);
        assert_eq!(r.shape(), (train.n(), repr_dim));
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, val, test) = quick_data();
        let mut cfg = CerlConfig::quick_test();
        cfg.train.epochs = 5;
        let mut m1 = CfrModel::new(train.dim(), cfg.clone(), 11);
        let mut m2 = CfrModel::new(train.dim(), cfg, 11);
        m1.train(&train, &val);
        m2.train(&train, &val);
        let e1 = m1.predict_ite(&test.x);
        let e2 = m2.predict_ite(&test.x);
        for (a, b) in e1.iter().zip(&e2) {
            assert_eq!(a, b, "non-deterministic training");
        }
    }
}
