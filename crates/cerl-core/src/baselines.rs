//! Classic meta-learner baselines: S-learner and T-learner.
//!
//! These are the standard regression-adjustment estimators the causal-
//! inference literature compares representation methods against (and what
//! packages like EconML ship as defaults). Both reuse the `cerl-nn`
//! substrate; under incremental data they behave like CFR-B (fine-tune on
//! each newly arrived domain), providing additional reference points beyond
//! the paper's CFR-A/B/C lineup.
//!
//! * **S-learner** — a single network `f(x, t)` with the treatment appended
//!   as an input feature; `ÎTE(x) = f(x, 1) − f(x, 0)`.
//! * **T-learner** — two networks `f₁(x)`, `f₀(x)` fit on the treated and
//!   control subsets respectively; `ÎTE(x) = f₁(x) − f₀(x)`.

use crate::config::{CerlConfig, TrainConfig};
use crate::error::CerlError;
use crate::precision::mlp_output;
use crate::strategies::ContinualEstimator;
use crate::trainer::{run_stage, validate_stage_inputs, TrainReport};
use cerl_data::{CausalDataset, OutcomeScaler, Standardizer};
use cerl_math::Matrix;
use cerl_nn::compose::mse;
use cerl_nn::{Activation, Mlp, ParamStore};
use cerl_rand::seeds;

/// Append the treatment indicator as one extra covariate column.
fn augment_with_treatment(x: &Matrix, t: &[bool]) -> Matrix {
    let tcol = Matrix::from_fn(x.rows(), 1, |i, _| if t[i] { 1.0 } else { 0.0 });
    x.hstack(&tcol)
}

/// Fit `net` to `(x, y)` as one stage of the shared loop: MSE on each
/// mini-batch, early stopping on the MSE over `(xv, yv)`.
fn train_regressor(
    store: &mut ParamStore,
    net: &Mlp,
    (x, y): (&Matrix, &[f64]),
    (xv, yv): (&Matrix, &[f64]),
    cfg: &TrainConfig,
    seed: u64,
) -> Result<TrainReport, CerlError> {
    let y = Matrix::col_vector(y);
    run_stage(
        store,
        &net.params(),
        cfg,
        x.rows(),
        &mut seeds::rng(seed, 0),
        |g, store, batch, _| {
            let xin = g.input_rows(x, batch);
            let yin = g.input_rows(&y, batch);
            let pred = net.forward(g, store, xin);
            mse(g, pred, yin)
        },
        |_, store| {
            if xv.rows() == 0 {
                return Ok(0.0);
            }
            let se = mlp_output(store, net, xv)
                .iter()
                .zip(yv)
                .map(|(p, t)| (p - t) * (p - t))
                .sum::<f64>();
            Ok(se / xv.rows() as f64)
        },
    )
}

/// S-learner: one regression network over `(x, t)`.
pub struct SLearner {
    cfg: CerlConfig,
    store: ParamStore,
    net: Mlp,
    x_std: Option<Standardizer>,
    y_scale: Option<OutcomeScaler>,
    seed: u64,
    d_in: usize,
}

impl SLearner {
    /// Create for `d_in`-dimensional covariates.
    pub fn new(d_in: usize, cfg: CerlConfig, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = seeds::rng_labeled(seed, "s-learner");
        let mut dims = vec![d_in + 1];
        dims.extend_from_slice(&cfg.net.repr_hidden);
        dims.push(cfg.net.repr_dim);
        dims.extend_from_slice(&cfg.net.head_hidden);
        dims.push(1);
        let net = Mlp::new(
            &mut store,
            &mut rng,
            &dims,
            cfg.net.activation.to_activation(),
            Activation::Identity,
            "s",
        );
        Self {
            cfg,
            store,
            net,
            x_std: None,
            y_scale: None,
            seed,
            d_in,
        }
    }

    /// Train (or fine-tune) on one dataset, reporting malformed input as a
    /// typed error.
    pub fn try_train(
        &mut self,
        train: &CausalDataset,
        val: &CausalDataset,
    ) -> Result<TrainReport, CerlError> {
        validate_stage_inputs(train, val, self.d_in)?;
        let x_std = Standardizer::try_fit_clipped(&train.x, crate::cfr::Z_CLIP)?;
        let y_scale = OutcomeScaler::try_fit(&train.y)?;
        let xs = augment_with_treatment(&x_std.try_transform(&train.x)?, &train.t);
        let ys = y_scale.transform(&train.y);
        let xv = augment_with_treatment(&x_std.try_transform(&val.x)?, &val.t);
        let yv = y_scale.transform(&val.y);
        self.x_std = Some(x_std);
        self.y_scale = Some(y_scale);
        train_regressor(
            &mut self.store,
            &self.net,
            (&xs, &ys),
            (&xv, &yv),
            &self.cfg.train,
            self.seed,
        )
    }
}

impl ContinualEstimator for SLearner {
    fn name(&self) -> String {
        "S-learner".into()
    }

    fn try_observe(&mut self, train: &CausalDataset, val: &CausalDataset) -> Result<(), CerlError> {
        self.try_train(train, val).map(|_| ())
    }

    fn try_predict_ite(&self, x: &Matrix) -> Result<Vec<f64>, CerlError> {
        let (std, scale) = match (self.x_std.as_ref(), self.y_scale.as_ref()) {
            (Some(std), Some(scale)) => (std, scale),
            _ => return Err(CerlError::NotTrained),
        };
        let xs = std.try_transform(x)?;
        let all_true = vec![true; x.rows()];
        let all_false = vec![false; x.rows()];
        let eval = |t: &[bool]| -> Vec<f64> {
            let xt = augment_with_treatment(&xs, t);
            scale.inverse(&mlp_output(&self.store, &self.net, &xt))
        };
        let y1 = eval(&all_true);
        let y0 = eval(&all_false);
        Ok(y1.iter().zip(&y0).map(|(a, b)| a - b).collect())
    }
}

/// T-learner: separate regression networks per treatment arm.
pub struct TLearner {
    cfg: CerlConfig,
    store: ParamStore,
    net0: Mlp,
    net1: Mlp,
    x_std: Option<Standardizer>,
    y_scale: Option<OutcomeScaler>,
    seed: u64,
    d_in: usize,
}

impl TLearner {
    /// Create for `d_in`-dimensional covariates.
    pub fn new(d_in: usize, cfg: CerlConfig, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = seeds::rng_labeled(seed, "t-learner");
        let mut dims = vec![d_in];
        dims.extend_from_slice(&cfg.net.repr_hidden);
        dims.push(cfg.net.repr_dim);
        dims.extend_from_slice(&cfg.net.head_hidden);
        dims.push(1);
        let act = cfg.net.activation.to_activation();
        let net0 = Mlp::new(&mut store, &mut rng, &dims, act, Activation::Identity, "t0");
        let net1 = Mlp::new(&mut store, &mut rng, &dims, act, Activation::Identity, "t1");
        Self {
            cfg,
            store,
            net0,
            net1,
            x_std: None,
            y_scale: None,
            seed,
            d_in,
        }
    }

    /// Train (or fine-tune) on one dataset, reporting malformed input as a
    /// typed error.
    pub fn try_train(
        &mut self,
        train: &CausalDataset,
        val: &CausalDataset,
    ) -> Result<(), CerlError> {
        validate_stage_inputs(train, val, self.d_in)?;
        let x_std = Standardizer::try_fit_clipped(&train.x, crate::cfr::Z_CLIP)?;
        let y_scale = OutcomeScaler::try_fit(&train.y)?;
        let xs = x_std.try_transform(&train.x)?;
        let ys = y_scale.transform(&train.y);
        let xv = x_std.try_transform(&val.x)?;
        let yv = y_scale.transform(&val.y);

        for (arm, net) in [(false, &self.net0), (true, &self.net1)] {
            let idx: Vec<usize> = (0..train.n()).filter(|&i| train.t[i] == arm).collect();
            if idx.len() < 4 {
                continue; // degenerate arm: keep previous parameters
            }
            let vidx: Vec<usize> = (0..val.n()).filter(|&i| val.t[i] == arm).collect();
            let ya: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
            let yva: Vec<f64> = vidx.iter().map(|&i| yv[i]).collect();
            train_regressor(
                &mut self.store,
                net,
                (&xs.select_rows(&idx), &ya),
                (&xv.select_rows(&vidx), &yva),
                &self.cfg.train,
                seeds::derive(self.seed, arm as u64),
            )?;
        }
        self.x_std = Some(x_std);
        self.y_scale = Some(y_scale);
        Ok(())
    }
}

impl ContinualEstimator for TLearner {
    fn name(&self) -> String {
        "T-learner".into()
    }

    fn try_observe(&mut self, train: &CausalDataset, val: &CausalDataset) -> Result<(), CerlError> {
        self.try_train(train, val)
    }

    fn try_predict_ite(&self, x: &Matrix) -> Result<Vec<f64>, CerlError> {
        let (std, scale) = match (self.x_std.as_ref(), self.y_scale.as_ref()) {
            (Some(std), Some(scale)) => (std, scale),
            _ => return Err(CerlError::NotTrained),
        };
        let xs = std.try_transform(x)?;
        let eval = |net: &Mlp| scale.inverse(&mlp_output(&self.store, net, &xs));
        let y1 = eval(&self.net1);
        let y0 = eval(&self.net0);
        Ok(y1.iter().zip(&y0).map(|(a, b)| a - b).collect())
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
                noise_sd: 0.4,
                ..SyntheticConfig::small()
            },
            9,
        );
        let data = gen.domain(0, 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let s = data.split(0.6, 0.2, &mut rng);
        (s.train, s.val, s.test)
    }

    fn quick_cfg() -> CerlConfig {
        let mut cfg = CerlConfig::quick_test();
        cfg.train.epochs = 30;
        cfg
    }

    #[test]
    fn s_learner_beats_trivial() {
        let (train, val, test) = quick_data();
        let mut s = SLearner::new(train.dim(), quick_cfg(), 3);
        let report = s.try_train(&train, &val).unwrap();
        assert!(report.best_val_loss.is_finite());
        let m = s.try_evaluate(&test).unwrap();
        let trivial = EffectMetrics::on_dataset(&test, &vec![0.0; test.n()]);
        assert!(m.sqrt_pehe < trivial.sqrt_pehe, "{m:?} vs {trivial:?}");
    }

    #[test]
    fn t_learner_beats_trivial_on_ate() {
        // T-learner's per-arm nets see only ~180 units each here, so its
        // PEHE carries the well-known regularization-bias penalty; its ATE,
        // however, must clearly beat the trivial zero estimator.
        let (train, val, test) = quick_data();
        let mut t = TLearner::new(train.dim(), quick_cfg(), 4);
        t.try_train(&train, &val).unwrap();
        let m = t.try_evaluate(&test).unwrap();
        let trivial = EffectMetrics::on_dataset(&test, &vec![0.0; test.n()]);
        assert!(
            m.ate_error < trivial.ate_error * 0.7,
            "{m:?} vs {trivial:?}"
        );
        assert!(
            m.sqrt_pehe < trivial.sqrt_pehe * 1.3,
            "{m:?} vs {trivial:?}"
        );
    }

    #[test]
    fn both_implement_the_estimator_interface() {
        let (train, val, test) = quick_data();
        let mut cfg = quick_cfg();
        cfg.train.epochs = 5;
        let mut lineup: Vec<Box<dyn ContinualEstimator>> = vec![
            Box::new(SLearner::new(train.dim(), cfg.clone(), 5)),
            Box::new(TLearner::new(train.dim(), cfg, 5)),
        ];
        for est in &mut lineup {
            est.try_observe(&train, &val).unwrap();
            let m = est.try_evaluate(&test).unwrap();
            assert!(m.sqrt_pehe.is_finite(), "{}", est.name());
        }
        assert_eq!(lineup[0].name(), "S-learner");
        assert_eq!(lineup[1].name(), "T-learner");
    }

    #[test]
    fn t_learner_skips_degenerate_arm() {
        // All-control data: the treated net keeps its init; predictions
        // remain finite.
        let (mut train, mut val, test) = quick_data();
        train.t.iter_mut().for_each(|t| *t = false);
        train.y = train.mu0.clone();
        val.t.iter_mut().for_each(|t| *t = false);
        let mut t = TLearner::new(train.dim(), quick_cfg(), 6);
        t.try_train(&train, &val).unwrap();
        let ite = t.try_predict_ite(&test.x).unwrap();
        assert!(ite.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn s_learner_ite_consistency() {
        // ITE from predict_ite equals f(x,1) − f(x,0) by construction;
        // check it differs across units (treatment column matters).
        let (train, val, test) = quick_data();
        let mut s = SLearner::new(train.dim(), quick_cfg(), 7);
        s.try_train(&train, &val).unwrap();
        let ite = s.try_predict_ite(&test.x).unwrap();
        let spread = cerl_math::stats::std_dev(&ite);
        assert!(spread > 0.0, "S-learner predicts a constant effect");
    }
}
