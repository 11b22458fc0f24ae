//! The three straightforward adaptation strategies the paper compares
//! against (§IV.B), built on the same CFR backbone:
//!
//! * **CFR-A** — train once on the first domain; apply as-is forever.
//!   Good on previous data, degrades on shifted new data.
//! * **CFR-B** — fine-tune the previous model on each new domain only.
//!   Adapts, but catastrophically forgets previous domains.
//! * **CFR-C** — store *all* raw data and retrain from scratch on the
//!   pooled set whenever a domain arrives. The ideal (and most expensive)
//!   reference: no memory constraint, no accessibility constraint.
//!
//! All strategies and CERL implement [`ContinualEstimator`] so experiment
//! harnesses can treat them interchangeably.

use crate::cfr::CfrModel;
use crate::config::CerlConfig;
use crate::continual::Cerl;
use crate::error::CerlError;
use crate::metrics::EffectMetrics;
use cerl_data::CausalDataset;
use cerl_math::Matrix;

/// A learner that consumes domains one at a time and predicts ITEs.
///
/// Every method that can fail returns a typed [`CerlError`]: malformed
/// or non-finite input, a prediction before the first domain, a
/// covariate-dimension mismatch.
pub trait ContinualEstimator {
    /// Short display name (matches the paper's table rows).
    fn name(&self) -> String;

    /// Consume the next incrementally available domain, reporting malformed
    /// input as a typed error.
    fn try_observe(&mut self, train: &CausalDataset, val: &CausalDataset) -> Result<(), CerlError>;

    /// Predict unit-level treatment effects for raw covariates, failing
    /// with a typed error before training or on malformed input.
    fn try_predict_ite(&self, x: &Matrix) -> Result<Vec<f64>, CerlError>;

    /// Serve a batch of request matrices; result `i` is the ITE vector for
    /// `chunks[i]`. The default implementation predicts chunk by chunk and
    /// fails fast on the first malformed chunk.
    fn try_predict_ite_batch(&self, chunks: &[Matrix]) -> Result<Vec<Vec<f64>>, CerlError> {
        chunks
            .iter()
            .map(|chunk| self.try_predict_ite(chunk))
            .collect()
    }

    /// Evaluate on a labeled dataset, reporting failures as typed errors.
    fn try_evaluate(&self, data: &CausalDataset) -> Result<EffectMetrics, CerlError> {
        if data.n() == 0 {
            return Err(CerlError::EmptyInput {
                what: "evaluation dataset",
            });
        }
        Ok(EffectMetrics::on_dataset(
            data,
            &self.try_predict_ite(&data.x)?,
        ))
    }
}

/// CFR-A: freeze after the first domain.
pub struct CfrA {
    model: CfrModel,
    trained: bool,
}

impl CfrA {
    /// Create for `d_in`-dimensional covariates, validating the
    /// configuration and the dimension.
    pub fn new(d_in: usize, cfg: CerlConfig, seed: u64) -> Result<Self, CerlError> {
        Ok(Self {
            model: CfrModel::try_new(d_in, cfg, seed)?,
            trained: false,
        })
    }
}

impl ContinualEstimator for CfrA {
    fn name(&self) -> String {
        "CFR-A".into()
    }

    fn try_observe(&mut self, train: &CausalDataset, val: &CausalDataset) -> Result<(), CerlError> {
        if !self.trained {
            self.model.try_train(train, val)?;
            self.trained = true;
        }
        // Later domains are ignored: the model was trained once on the
        // original data and is applied directly to everything.
        Ok(())
    }

    fn try_predict_ite(&self, x: &Matrix) -> Result<Vec<f64>, CerlError> {
        self.model.try_predict_ite(x)
    }
}

/// CFR-B: fine-tune on each new domain (no access to previous data).
pub struct CfrB {
    model: CfrModel,
}

impl CfrB {
    /// Create for `d_in`-dimensional covariates, validating the
    /// configuration and the dimension.
    pub fn new(d_in: usize, cfg: CerlConfig, seed: u64) -> Result<Self, CerlError> {
        Ok(Self {
            model: CfrModel::try_new(d_in, cfg, seed)?,
        })
    }
}

impl ContinualEstimator for CfrB {
    fn name(&self) -> String {
        "CFR-B".into()
    }

    fn try_observe(&mut self, train: &CausalDataset, val: &CausalDataset) -> Result<(), CerlError> {
        // First call trains from scratch; later calls warm-start from the
        // previous parameters — exactly "utilize newly available data to
        // fine-tune the previously learned model".
        self.model.try_train(train, val).map(|_| ())
    }

    fn try_predict_ite(&self, x: &Matrix) -> Result<Vec<f64>, CerlError> {
        self.model.try_predict_ite(x)
    }
}

/// CFR-C: keep every domain's raw data, retrain from scratch on the pool.
pub struct CfrC {
    cfg: CerlConfig,
    seed: u64,
    d_in: usize,
    pooled_train: Option<CausalDataset>,
    pooled_val: Option<CausalDataset>,
    model: Option<CfrModel>,
    retrain_count: usize,
}

impl CfrC {
    /// Create for `d_in`-dimensional covariates, validating the
    /// configuration and the dimension (as CFR-A/B do) before the first
    /// retrain needs them.
    pub fn new(d_in: usize, cfg: CerlConfig, seed: u64) -> Result<Self, CerlError> {
        cfg.validate()?;
        if d_in == 0 {
            return Err(CerlError::EmptyInput {
                what: "covariate dimension (d_in = 0)",
            });
        }
        Ok(Self {
            cfg,
            seed,
            d_in,
            pooled_train: None,
            pooled_val: None,
            model: None,
            retrain_count: 0,
        })
    }

    /// Total units of raw data this strategy is holding on to (the
    /// resource cost the paper's "Memory" column highlights).
    pub fn stored_units(&self) -> usize {
        self.pooled_train.as_ref().map_or(0, CausalDataset::n)
            + self.pooled_val.as_ref().map_or(0, CausalDataset::n)
    }
}

impl ContinualEstimator for CfrC {
    fn name(&self) -> String {
        "CFR-C".into()
    }

    fn try_observe(&mut self, train: &CausalDataset, val: &CausalDataset) -> Result<(), CerlError> {
        if train.dim() != self.d_in {
            return Err(CerlError::DimensionMismatch {
                expected: self.d_in,
                found: train.dim(),
            });
        }
        if val.n() > 0 && val.dim() != self.d_in {
            return Err(CerlError::DimensionMismatch {
                expected: self.d_in,
                found: val.dim(),
            });
        }
        // Build the grown pools first and commit them only after a
        // successful retrain, so a failed observe leaves the strategy's
        // state untouched.
        let pooled_train = match &self.pooled_train {
            Some(p) => p.concat(train),
            None => train.clone(),
        };
        let pooled_val = match &self.pooled_val {
            Some(p) => p.concat(val),
            None => val.clone(),
        };
        // Retrain from scratch (fresh initialization) on everything.
        let mut model = CfrModel::try_new(
            self.d_in,
            self.cfg.clone(),
            cerl_rand::seeds::derive(self.seed, self.retrain_count as u64),
        )?;
        model.try_train(&pooled_train, &pooled_val)?;
        self.pooled_train = Some(pooled_train);
        self.pooled_val = Some(pooled_val);
        self.model = Some(model);
        self.retrain_count += 1;
        Ok(())
    }

    fn try_predict_ite(&self, x: &Matrix) -> Result<Vec<f64>, CerlError> {
        match self.model.as_ref() {
            Some(model) => model.try_predict_ite(x),
            None => Err(CerlError::NotTrained),
        }
    }
}

impl ContinualEstimator for Cerl {
    fn name(&self) -> String {
        "CERL".into()
    }

    fn try_observe(&mut self, train: &CausalDataset, val: &CausalDataset) -> Result<(), CerlError> {
        Cerl::try_observe(self, train, val).map(|_| ())
    }

    fn try_predict_ite(&self, x: &Matrix) -> Result<Vec<f64>, CerlError> {
        Cerl::try_predict_ite(self, x)
    }
}

/// Construct every estimator of the paper's Table I/II comparison.
pub fn paper_lineup(
    d_in: usize,
    cfg: &CerlConfig,
    seed: u64,
) -> Result<Vec<Box<dyn ContinualEstimator>>, CerlError> {
    Ok(vec![
        Box::new(CfrA::new(d_in, cfg.clone(), seed)?),
        Box::new(CfrB::new(d_in, cfg.clone(), seed)?),
        Box::new(CfrC::new(d_in, cfg.clone(), seed)?),
        Box::new(Cerl::try_new(d_in, cfg.clone(), seed)?),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerl_data::{DomainStream, SyntheticConfig, SyntheticGenerator};

    fn quick_stream() -> DomainStream {
        let gen = SyntheticGenerator::new(
            SyntheticConfig {
                n_units: 400,
                ..SyntheticConfig::small()
            },
            55,
        );
        DomainStream::synthetic(&gen, 2, 0, 66)
    }

    fn quick_cfg() -> CerlConfig {
        let mut cfg = CerlConfig::quick_test();
        cfg.train.epochs = 10;
        cfg
    }

    #[test]
    fn lineup_names() {
        let lineup = paper_lineup(5, &quick_cfg(), 1).unwrap();
        let names: Vec<String> = lineup.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["CFR-A", "CFR-B", "CFR-C", "CERL"]);
    }

    #[test]
    fn cfr_a_ignores_later_domains() {
        let stream = quick_stream();
        let d_in = stream.domain(0).train.dim();
        let mut a = CfrA::new(d_in, quick_cfg(), 2).unwrap();
        a.try_observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        let before = a.try_predict_ite(&stream.domain(0).test.x).unwrap();
        a.try_observe(&stream.domain(1).train, &stream.domain(1).val)
            .unwrap();
        let after = a.try_predict_ite(&stream.domain(0).test.x).unwrap();
        assert_eq!(
            before, after,
            "CFR-A must not change after the first domain"
        );
    }

    #[test]
    fn cfr_b_changes_with_new_domains() {
        let stream = quick_stream();
        let d_in = stream.domain(0).train.dim();
        let mut b = CfrB::new(d_in, quick_cfg(), 3).unwrap();
        b.try_observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        let before = b.try_predict_ite(&stream.domain(0).test.x).unwrap();
        b.try_observe(&stream.domain(1).train, &stream.domain(1).val)
            .unwrap();
        let after = b.try_predict_ite(&stream.domain(0).test.x).unwrap();
        assert_ne!(before, after, "CFR-B must adapt to new data");
    }

    #[test]
    fn cfr_c_accumulates_raw_data() {
        let stream = quick_stream();
        let d_in = stream.domain(0).train.dim();
        let mut c = CfrC::new(d_in, quick_cfg(), 4).unwrap();
        c.try_observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        let first = c.stored_units();
        c.try_observe(&stream.domain(1).train, &stream.domain(1).val)
            .unwrap();
        assert_eq!(c.stored_units(), 2 * first);
    }

    #[test]
    fn all_strategies_produce_finite_metrics() {
        let stream = quick_stream();
        let d_in = stream.domain(0).train.dim();
        for mut est in paper_lineup(d_in, &quick_cfg(), 5).unwrap() {
            for d in 0..2 {
                est.try_observe(&stream.domain(d).train, &stream.domain(d).val)
                    .unwrap();
            }
            for d in 0..2 {
                let m = est.try_evaluate(&stream.domain(d).test).unwrap();
                assert!(
                    m.sqrt_pehe.is_finite() && m.ate_error.is_finite(),
                    "{} domain {d}: {m:?}",
                    est.name()
                );
            }
        }
    }
}
