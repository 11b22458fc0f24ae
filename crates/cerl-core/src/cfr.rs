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
use crate::trainer::{run_stage, validate_stage_inputs, TrainReport};
use cerl_data::{CausalDataset, OutcomeScaler, Standardizer};
use cerl_math::Matrix;
use cerl_nn::compose::{elastic_net_penalty, mse, weighted_sum};
use cerl_nn::{Graph, NodeId, ParamId, ParamStore};
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
    /// Create an untrained model for `d_in`-dimensional covariates,
    /// validating the configuration and the covariate dimension first.
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
    /// `val`. Refits the covariate/outcome scalers on `train` (this is what
    /// fine-tuning strategies do when new data arrives).
    ///
    /// The loss is Eq. 5: factual MSE, plus `α`·IPM between the batch's
    /// treated and control representations, plus `λ`·elastic net on `g`.
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

        let params = self.params();
        let mut rng = seeds::rng_labeled(self.seed, &format!("train-{}", self.stages_trained));
        let (store, repr, heads) = (&mut self.store, &self.repr, &self.heads);
        let cfg = &self.cfg;
        let report = run_stage(
            store,
            &params,
            &cfg.train,
            train.n(),
            &mut rng,
            |g, store, batch, _| {
                let tb: Vec<bool> = batch.iter().map(|&i| train.t[i]).collect();
                let x = g.input_rows(&xs, batch);
                let r = repr.forward(g, store, x);
                let y_hat = heads.forward_factual(g, store, r, &tb);
                let y = g.input_rows(&ys, batch);
                let mut terms = Vec::with_capacity(3);
                terms.push((mse(g, y_hat, y), 1.0));
                if let Some(ipm) = balance_term(cfg, g, r, &tb, None) {
                    terms.push((ipm, cfg.alpha));
                }
                if cfg.lambda > 0.0 {
                    let lw = elastic_net_penalty(g, store, &repr.weights());
                    terms.push((lw, cfg.lambda));
                }
                weighted_sum(g, &terms)
            },
            |_, store| {
                let plan = InferencePlan::<f64>::network(store, repr, heads);
                factual_mse_scaled(&plan, &xv, &yv, &val.t)
            },
        )?;
        self.stages_trained += 1;
        Ok(report)
    }

    /// Representations of (raw) covariates under the trained pipeline,
    /// failing with a typed error before training or on a dimension
    /// mismatch.
    pub fn try_embed(&self, x: &Matrix) -> Result<Matrix, CerlError> {
        InferencePlan::<f64>::compile(self)?.embed(x)
    }

    /// Predict both potential outcomes (original outcome scale), failing
    /// with a typed error before training or on a dimension mismatch.
    pub fn try_predict_potential_outcomes(
        &self,
        x: &Matrix,
    ) -> Result<(Vec<f64>, Vec<f64>), CerlError> {
        InferencePlan::<f64>::compile(self)?.predict_potential_outcomes(x)
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

    /// The store to train, beside the networks a loss reads it through.
    pub(crate) fn parts_mut(&mut self) -> (&mut ParamStore, &ReprNet, &OutcomeHeads) {
        (&mut self.store, &self.repr, &self.heads)
    }

    /// Parameters of `g` and `h`, in the order the optimiser steps them.
    pub(crate) fn params(&self) -> Vec<ParamId> {
        let mut p = self.repr.params();
        p.extend(self.heads.params());
        p
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

/// IPM balance term between the treated and control rows of `r`
/// (Eq. 3). With `mem` (CERL's φ-mapped memory rows and their treatments)
/// each group is stacked under its memory rows, balancing the global
/// representation space. `None` when disabled or a group has < 2 rows.
pub(crate) fn balance_term(
    cfg: &CerlConfig,
    g: &mut Graph,
    r: NodeId,
    t: &[bool],
    mem: Option<(NodeId, &[bool])>,
) -> Option<NodeId> {
    if cfg.alpha == 0.0 || cfg.ipm == IpmKind::None {
        return None;
    }
    // Row indices of one treatment arm, streamed onto the tape.
    fn arm(t: &[bool], treated: bool) -> impl Iterator<Item = usize> + '_ {
        (0..t.len()).filter(move |&i| t[i] == treated)
    }
    let count = |t: &[bool], treated: bool| arm(t, treated).count();
    let (nt, nc) = (count(t, true), count(t, false));
    let (treated, control) = match mem {
        Some((phi_mem, mt)) => {
            if nt + count(mt, true) < 2 || nc + count(mt, false) < 2 {
                return None;
            }
            let new_t = g.select_rows(r, arm(t, true));
            let new_c = g.select_rows(r, arm(t, false));
            let mem_t = g.select_rows(phi_mem, arm(mt, true));
            let mem_c = g.select_rows(phi_mem, arm(mt, false));
            (g.concat_rows(mem_t, new_t), g.concat_rows(mem_c, new_c))
        }
        None => {
            if nt < 2 || nc < 2 {
                return None;
            }
            (
                g.select_rows(r, arm(t, true)),
                g.select_rows(r, arm(t, false)),
            )
        }
    };
    match cfg.ipm {
        IpmKind::Wasserstein => Some(wasserstein(g, treated, control, cfg.sinkhorn())),
        IpmKind::LinearMmd => Some(linear_mmd(g, treated, control)),
        IpmKind::RbfMmd => Some(rbf_mmd(g, treated, control, Bandwidth::MedianHeuristic)),
        IpmKind::None => None,
    }
}

/// Mean squared error of the factual prediction (`ŷ₁` where treated, `ŷ₀`
/// otherwise) against `y`: the validation criterion of every
/// CFR-backbone stage. The caller guarantees at least one unit.
pub(crate) fn factual_mse(y0: &[f64], y1: &[f64], t: &[bool], y: &[f64]) -> f64 {
    let mut se = 0.0;
    for i in 0..y.len() {
        let pred = if t[i] { y1[i] } else { y0[i] };
        se += (pred - y[i]) * (pred - y[i]);
    }
    se / y.len() as f64
}

/// Factual MSE of `plan` on standardized covariates and scaled outcomes
/// (0 on an empty split): the validation criterion of a CFR stage.
pub(crate) fn factual_mse_scaled(
    plan: &InferencePlan<f64>,
    x_std: &Matrix,
    y_scaled: &[f64],
    t: &[bool],
) -> Result<f64, CerlError> {
    if x_std.rows() == 0 {
        return Ok(0.0);
    }
    let (y0, y1) = plan.predict_potential_outcomes(x_std)?;
    Ok(factual_mse(&y0, &y1, t, y_scaled))
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
        let mut model = CfrModel::try_new(train.dim(), cfg, 3).unwrap();
        let report = model.try_train(&train, &val).unwrap();
        assert!(report.best_val_loss.is_finite());
        assert!(report.epochs_run >= 1);

        let est = model.try_predict_ite(&test.x).unwrap();
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
    fn predict_before_training_is_not_trained() {
        let model = CfrModel::try_new(5, CerlConfig::quick_test(), 1).unwrap();
        let x = Matrix::zeros(2, 5);
        assert_eq!(model.try_predict_ite(&x), Err(CerlError::NotTrained));
    }

    #[test]
    fn embedding_dimension_matches_config() {
        let (train, val, _) = quick_data();
        let cfg = CerlConfig::quick_test();
        let repr_dim = cfg.net.repr_dim;
        let mut model = CfrModel::try_new(train.dim(), cfg, 5).unwrap();
        // Train briefly just to fit scalers.
        model.cfg.train.epochs = 2;
        model.try_train(&train, &val).unwrap();
        let r = model.try_embed(&train.x).unwrap();
        assert_eq!(r.shape(), (train.n(), repr_dim));
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, val, test) = quick_data();
        let mut cfg = CerlConfig::quick_test();
        cfg.train.epochs = 5;
        let mut m1 = CfrModel::try_new(train.dim(), cfg.clone(), 11).unwrap();
        let mut m2 = CfrModel::try_new(train.dim(), cfg, 11).unwrap();
        m1.try_train(&train, &val).unwrap();
        m2.try_train(&train, &val).unwrap();
        let e1 = m1.try_predict_ite(&test.x).unwrap();
        let e2 = m2.try_predict_ite(&test.x).unwrap();
        for (a, b) in e1.iter().zip(&e2) {
            assert_eq!(a, b, "non-deterministic training");
        }
    }
}
