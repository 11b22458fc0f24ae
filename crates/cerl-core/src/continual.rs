//! CERL: continual causal-effect representation learning (paper §III,
//! Algorithm 1).
//!
//! Stage 1 trains the baseline CFR model (Eq. 5). Every later stage `d`
//! trains on the newly arrived domain *only* — raw previous data is gone —
//! with (Eq. 9):
//!
//! ```text
//! L = L_G + α·Wass(P,Q) + λ·L_w + β·L_FD + δ·L_FT
//! ```
//!
//! * `L_G` (Eq. 8): factual MSE over transformed memory representations
//!   `φ(r)` *and* the new domain's representations.
//! * `Wass(P,Q)` (Eq. 3): balances treated vs control in the **global**
//!   representation space (transformed memory ∪ new representations).
//! * `L_FD` (Eq. 6): cosine distillation pinning `g_d(x)` to the frozen
//!   `g_{d-1}(x)` on new data.
//! * `L_FT` (Eq. 7): trains `φ` to map old-space representations into the
//!   new space.
//!
//! At stage end the memory is rebuilt as `{R_d, Y_d, T_d} ∪ φ(M_{d-1})`,
//! reduced by per-group herding to the memory budget.

use crate::cfr::CfrModel;
use crate::config::{CerlConfig, DistillKind, IpmKind};
use crate::error::CerlError;
use crate::memory::Memory;
use crate::precision::{InferencePlan, Predictor};
use crate::snapshot::ModelSnapshot;
use crate::trainer::{minibatches, validate_stage_inputs, EarlyStopper, TrainReport};
use crate::transform::FeatureTransform;
use cerl_data::{CausalDataset, OutcomeScaler, Standardizer};
use cerl_math::Matrix;
use cerl_nn::compose::{
    elastic_net_penalty, mean_cosine_distance, mean_squared_distance, mse, weighted_sum,
};
use cerl_nn::{Adam, Graph, NodeId, Optimizer};
use cerl_ot::{linear_mmd, rbf_mmd, wasserstein, Bandwidth};
use cerl_rand::seeds;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Report of one continual stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageReport {
    /// 1-based stage index just completed.
    pub stage: usize,
    /// Training statistics.
    pub train: TrainReport,
    /// Memory size after the stage's herding reduction.
    pub memory_len: usize,
}

/// The continual causal-effect learner.
#[derive(Clone)]
pub struct Cerl {
    cfg: CerlConfig,
    model: CfrModel,
    memory: Option<Memory>,
    stage: usize,
    seed: u64,
}

impl Cerl {
    /// Create an untrained learner for `d_in`-dimensional covariates.
    ///
    /// # Panics
    /// On an invalid configuration; [`Cerl::try_new`] is the fallible form.
    pub fn new(d_in: usize, cfg: CerlConfig, seed: u64) -> Self {
        match Self::try_new(d_in, cfg, seed) {
            Ok(cerl) => cerl,
            Err(e) => panic!("Cerl::new: {e}"),
        }
    }

    /// Create an untrained learner, validating the configuration and the
    /// covariate dimension first.
    pub fn try_new(d_in: usize, cfg: CerlConfig, seed: u64) -> Result<Self, CerlError> {
        let model = CfrModel::try_new(d_in, cfg.clone(), seed)?;
        Ok(Self {
            cfg,
            model,
            memory: None,
            stage: 0,
            seed,
        })
    }

    /// Covariate dimension this learner was built for.
    pub fn d_in(&self) -> usize {
        self.model.d_in()
    }

    /// The current CFR model (for inference-plan compilers).
    pub(crate) fn cfr(&self) -> &CfrModel {
        &self.model
    }

    /// Seed the learner was built with (stage RNG streams derive from it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of completed stages (domains observed).
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Current memory (None before the first stage, or always None in the
    /// "w/o FRT" ablation).
    pub fn memory(&self) -> Option<&Memory> {
        self.memory.as_ref()
    }

    /// Configuration in use.
    pub fn config(&self) -> &CerlConfig {
        &self.cfg
    }

    /// Observe the next incrementally available domain (Algorithm 1 step).
    ///
    /// # Panics
    /// On invalid input; [`Cerl::try_observe`] is the fallible form.
    pub fn observe(&mut self, train: &CausalDataset, val: &CausalDataset) -> StageReport {
        match self.try_observe(train, val) {
            Ok(report) => report,
            Err(e) => panic!("Cerl::observe: {e}"),
        }
    }

    /// Observe the next incrementally available domain (Algorithm 1 step),
    /// failing with a typed error on malformed input instead of panicking.
    ///
    /// On error the learner is left exactly as it was: validation happens
    /// before any training step mutates parameters or memory.
    pub fn try_observe(
        &mut self,
        train: &CausalDataset,
        val: &CausalDataset,
    ) -> Result<StageReport, CerlError> {
        let report = if self.stage == 0 {
            self.model.try_train(train, val)?
        } else {
            self.continual_stage(train, val)?
        };
        self.rebuild_memory(train)?;
        self.stage += 1;
        Ok(StageReport {
            stage: self.stage,
            train: report,
            memory_len: self.memory.as_ref().map_or(0, Memory::len),
        })
    }

    /// Predicted ITE on raw covariates (current model, any seen domain).
    ///
    /// # Panics
    /// Before the first stage; [`Cerl::try_predict_ite`] is the fallible
    /// form.
    pub fn predict_ite(&self, x: &Matrix) -> Vec<f64> {
        match self.try_predict_ite(x) {
            Ok(ite) => ite,
            Err(e) => panic!("Cerl::predict_ite: {e}"),
        }
    }

    /// Predicted ITE on raw covariates, failing with a typed error before
    /// the first stage or on a covariate-dimension mismatch.
    pub fn try_predict_ite(&self, x: &Matrix) -> Result<Vec<f64>, CerlError> {
        self.model.try_predict_ite(x)
    }

    /// Predicted potential outcomes on raw covariates.
    ///
    /// # Panics
    /// Before the first stage; [`Cerl::try_predict_potential_outcomes`] is
    /// the fallible form.
    pub fn predict_potential_outcomes(&self, x: &Matrix) -> (Vec<f64>, Vec<f64>) {
        match self.try_predict_potential_outcomes(x) {
            Ok(pair) => pair,
            Err(e) => panic!("Cerl::predict_potential_outcomes: {e}"),
        }
    }

    /// Predicted potential outcomes on raw covariates, failing with a typed
    /// error before the first stage or on a dimension mismatch.
    pub fn try_predict_potential_outcomes(
        &self,
        x: &Matrix,
    ) -> Result<(Vec<f64>, Vec<f64>), CerlError> {
        self.model.try_predict_potential_outcomes(x)
    }

    /// Representations of raw covariates under the current pipeline.
    ///
    /// # Panics
    /// Before the first stage; [`Cerl::try_embed`] is the fallible form.
    pub fn embed(&self, x: &Matrix) -> Matrix {
        match self.try_embed(x) {
            Ok(r) => r,
            Err(e) => panic!("Cerl::embed: {e}"),
        }
    }

    /// Representations of raw covariates, failing with a typed error before
    /// the first stage or on a dimension mismatch.
    pub fn try_embed(&self, x: &Matrix) -> Result<Matrix, CerlError> {
        self.model.try_embed(x)
    }

    /// Capture the full learner state (parameters, scalers, memory, stage
    /// counter, configuration) as a versioned snapshot.
    pub fn to_snapshot(&self) -> ModelSnapshot {
        ModelSnapshot::capture(
            self.seed,
            self.stage,
            &self.cfg,
            &self.model,
            self.memory.as_ref(),
        )
    }

    /// Rebuild a learner from a snapshot, validating its internal
    /// consistency (the format version was checked when the bytes were
    /// parsed). The restored learner continues exactly where
    /// the captured one stopped: it serves predictions for all previously
    /// seen domains and `observe`s subsequent domains.
    pub fn from_snapshot(snapshot: ModelSnapshot) -> Result<Self, CerlError> {
        snapshot.into_cerl().map(|(cerl, _plan)| cerl)
    }

    /// Reassemble a learner from restored parts (snapshot support).
    pub(crate) fn restore(
        cfg: CerlConfig,
        model: CfrModel,
        memory: Option<Memory>,
        stage: usize,
        seed: u64,
    ) -> Self {
        Self {
            cfg,
            model,
            memory,
            stage,
            seed,
        }
    }

    fn continual_stage(
        &mut self,
        train: &CausalDataset,
        val: &CausalDataset,
    ) -> Result<TrainReport, CerlError> {
        validate_stage_inputs(train, val, self.d_in())?;
        // Freeze the previous pipeline g_{d-1} (params + covariate scaler).
        let old_store = self.model.store().clone();
        let old_x_std = match self.model.x_std().cloned() {
            Some(std) => std,
            // Unreachable through the public API (stage > 0 implies a
            // trained first stage), but kept typed for defense in depth.
            None => return Err(CerlError::NotTrained),
        };

        // Scalers: by default the first-stage scalers are kept so that the
        // old and new models share one input pipeline (see
        // `CerlConfig::refit_scalers_per_stage`).
        let (x_std, y_scale) = if self.cfg.refit_scalers_per_stage {
            (
                Standardizer::try_fit_clipped(&train.x, crate::cfr::Z_CLIP)?,
                OutcomeScaler::try_fit(&train.y)?,
            )
        } else {
            match self.model.y_scale().copied() {
                Some(y_scale) => (old_x_std.clone(), y_scale),
                None => return Err(CerlError::NotTrained),
            }
        };
        let xs = x_std.try_transform(&train.x)?;
        let ys = Matrix::col_vector(&y_scale.transform(&train.y));
        let xv = x_std.try_transform(&val.x)?;
        let yv = y_scale.transform(&val.y);
        // Old-model representations of new data (constants for L_FD / L_FT).
        let xs_old_pipeline = old_x_std.try_transform(&train.x)?;
        let r_old_full =
            InferencePlan::<f64>::network(&old_store, self.model.repr(), self.model.heads())
                .embed(&xs_old_pipeline)?;
        self.model.set_scalers(x_std, y_scale);

        // The paper trains *new parameters* w_d each stage; the old model
        // survives only through `old_store` (distillation targets, memory).
        if self.cfg.fresh_params_per_stage {
            self.model.reinitialize(self.stage);
        }

        // Fresh transformation network φ_{d-1→d} for this stage.
        let use_transform = self.cfg.ablation.feature_transform;
        let mut rng = seeds::rng_labeled(self.seed, &format!("stage-{}", self.stage));
        let phi = FeatureTransform::new(
            self.model.store_mut(),
            &mut rng,
            &self.cfg.net.clone(),
            &format!("phi{}", self.stage),
        );

        // Memory in scaled-outcome space for this stage's L_G (the scaler
        // was installed by `set_scalers` a few lines up).
        let mem = if use_transform {
            self.memory.clone()
        } else {
            None
        };
        let mem_y_scaled: Vec<f64> = match (&mem, self.model.y_scale()) {
            (Some(m), Some(scale)) => scale.transform(&m.y),
            _ => Vec::new(),
        };

        // Warm up φ so it approximates the old→new pipeline map before the
        // heads ever see φ(memory). At stage start the new model is the
        // warm-started old model, so the target is the (nearly identical)
        // new-pipeline representation of the same units.
        if use_transform && self.cfg.train.phi_warmup_steps > 0 {
            let r_new_init = InferencePlan::<f64>::network(
                self.model.store(),
                self.model.repr(),
                self.model.heads(),
            )
            .embed(&xs)?;
            let phi_params = phi.params();
            let mut phi_opt = Adam::new(self.cfg.train.learning_rate);
            let n = xs.rows();
            for step in 0..self.cfg.train.phi_warmup_steps {
                let k = self.cfg.train.batch_size.min(n);
                let start = (step * k) % n;
                let idx: Vec<usize> = (0..k).map(|i| (start + i) % n).collect();
                let (loss, grads) = {
                    let store = self.model.store();
                    let mut g = Graph::new();
                    let src = g.input(r_old_full.select_rows(&idx));
                    let tgt = g.input(r_new_init.select_rows(&idx));
                    let mapped = phi.forward(&mut g, store, src);
                    let l = match self.cfg.distill_loss {
                        DistillKind::SquaredL2 => mean_squared_distance(&mut g, mapped, tgt),
                        DistillKind::Cosine => mean_cosine_distance(&mut g, mapped, tgt),
                    };
                    (l, g.backward(l))
                };
                let _ = loss;
                phi_opt.step(self.model.store_mut(), &grads, &phi_params);
            }
        }

        let params = {
            let mut p = self.model.repr().params();
            p.extend(self.model.heads().params());
            if use_transform {
                p.extend(phi.params());
            }
            p
        };
        let mut opt = Adam::new(self.cfg.train.learning_rate);
        let mut stopper = EarlyStopper::new(params.clone(), self.cfg.train.patience);

        let mut final_train_loss = f64::NAN;
        let mut epochs_run = 0;
        for _epoch in 0..self.cfg.train.epochs {
            epochs_run += 1;
            let mut epoch_loss = 0.0;
            let batches = minibatches(train.n(), self.cfg.train.batch_size, &mut rng);
            let n_batches = batches.len();
            for batch in batches {
                let loss_val = self.continual_step(
                    &batch,
                    &xs,
                    &ys,
                    train,
                    &r_old_full,
                    &phi,
                    mem.as_ref(),
                    &mem_y_scaled,
                    &params,
                    &mut opt,
                    &mut rng,
                );
                epoch_loss += loss_val;
            }
            final_train_loss = epoch_loss / n_batches.max(1) as f64;

            let val_loss =
                self.stage_val_loss(&xv, &yv, &val.t, &phi, mem.as_ref(), &mem_y_scaled)?;
            if stopper.update(self.model.store(), val_loss) {
                break;
            }
        }
        stopper.restore_best(self.model.store_mut());

        // Transform the stored memory into the new representation space.
        if use_transform {
            if let Some(m) = &self.memory {
                let transformed = phi.apply(self.model.store(), &m.r);
                self.memory = Some(Memory::new(transformed, m.y.clone(), m.t.clone()));
            }
        } else {
            self.memory = None;
        }
        self.model.bump_stage();
        Ok(TrainReport {
            epochs_run,
            best_val_loss: stopper.best_loss(),
            final_train_loss,
        })
    }

    /// One optimization step of the continual objective; returns the loss.
    #[allow(clippy::too_many_arguments)]
    fn continual_step<R: Rng + ?Sized>(
        &mut self,
        batch: &[usize],
        xs: &Matrix,
        ys: &Matrix,
        train: &CausalDataset,
        r_old_full: &Matrix,
        phi: &FeatureTransform,
        mem: Option<&Memory>,
        mem_y_scaled: &[f64],
        params: &[cerl_nn::ParamId],
        opt: &mut Adam,
        rng: &mut R,
    ) -> f64 {
        let xb = xs.select_rows(batch);
        let yb = ys.select_rows(batch);
        let tb: Vec<bool> = batch.iter().map(|&i| train.t[i]).collect();
        let r_old_b = r_old_full.select_rows(batch);

        // Build the tape under an immutable borrow; the returned gradients
        // own their data, so the optimizer step below can borrow mutably.
        let (loss_val, mut grads) = {
            let store = self.model.store();
            let mut g = Graph::new();
            let x = g.input(xb);
            let r_new = self.model.repr().forward(&mut g, store, x);
            let y_hat = self
                .model
                .heads()
                .forward_factual(&mut g, store, r_new, &tb);
            let y_node = g.input(yb);
            let l_new = mse(&mut g, y_hat, y_node);

            let mut terms = vec![(l_new, 1.0)];

            // L_FD: distillation toward the frozen previous representations.
            let r_old_node = g.input(r_old_b);
            if self.cfg.beta > 0.0 {
                let lfd = match self.cfg.distill_loss {
                    DistillKind::SquaredL2 => mean_squared_distance(&mut g, r_old_node, r_new),
                    DistillKind::Cosine => mean_cosine_distance(&mut g, r_old_node, r_new),
                };
                terms.push((lfd, self.cfg.beta));
            }

            // L_FT and memory-side L_G when the transformation is enabled.
            let mut mem_nodes: Option<(NodeId, Vec<bool>)> = None;
            if let Some(mem) = mem {
                if self.cfg.delta > 0.0 {
                    let phi_new = phi.forward(&mut g, store, r_old_node);
                    let lft = match self.cfg.distill_loss {
                        DistillKind::SquaredL2 => mean_squared_distance(&mut g, phi_new, r_new),
                        DistillKind::Cosine => mean_cosine_distance(&mut g, phi_new, r_new),
                    };
                    terms.push((lft, self.cfg.delta));
                }
                if !mem.is_empty() {
                    let k = self.cfg.train.memory_batch_size.min(mem.len()).max(2);
                    let midx: Vec<usize> = (0..k).map(|_| rng.gen_range(0..mem.len())).collect();
                    let mr = mem.r.select_rows(&midx);
                    let mt: Vec<bool> = midx.iter().map(|&i| mem.t[i]).collect();
                    let my = Matrix::from_fn(k, 1, |i, _| mem_y_scaled[midx[i]]);
                    let mr_node = g.input(mr);
                    let phi_mem = phi.forward(&mut g, store, mr_node);
                    let y_mem_hat = self
                        .model
                        .heads()
                        .forward_factual(&mut g, store, phi_mem, &mt);
                    let my_node = g.input(my);
                    let l_mem = mse(&mut g, y_mem_hat, my_node);
                    terms.push((l_mem, 1.0));
                    mem_nodes = Some((phi_mem, mt));
                }
            }

            // Global IPM over (transformed memory ∪ new) representations.
            if let Some(ipm) = self.global_ipm(&mut g, r_new, &tb, mem_nodes.as_ref()) {
                terms.push((ipm, self.cfg.alpha));
            }

            if self.cfg.lambda > 0.0 {
                let lw = elastic_net_penalty(&mut g, store, &self.model.repr().weights());
                terms.push((lw, self.cfg.lambda));
            }

            let loss = weighted_sum(&mut g, &terms);
            let loss_val = g.scalar(loss);
            (loss_val, g.backward(loss))
        };

        if self.cfg.train.clip_norm > 0.0 {
            grads.clip_global_norm(self.cfg.train.clip_norm);
        }
        opt.step(self.model.store_mut(), &grads, params);
        loss_val
    }

    /// IPM over the global representation space: treated/control stacks of
    /// transformed-memory plus new-data representations.
    fn global_ipm(
        &self,
        g: &mut Graph,
        r_new: NodeId,
        t_new: &[bool],
        mem_nodes: Option<&(NodeId, Vec<bool>)>,
    ) -> Option<NodeId> {
        if self.cfg.alpha == 0.0 || self.cfg.ipm == IpmKind::None {
            return None;
        }
        let nt: Vec<usize> = (0..t_new.len()).filter(|&i| t_new[i]).collect();
        let nc: Vec<usize> = (0..t_new.len()).filter(|&i| !t_new[i]).collect();

        let (treated, control) = match mem_nodes {
            Some((phi_mem, mt)) => {
                let mt_idx: Vec<usize> = (0..mt.len()).filter(|&i| mt[i]).collect();
                let mc_idx: Vec<usize> = (0..mt.len()).filter(|&i| !mt[i]).collect();
                if nt.len() + mt_idx.len() < 2 || nc.len() + mc_idx.len() < 2 {
                    return None;
                }
                let new_t = g.select_rows(r_new, &nt);
                let new_c = g.select_rows(r_new, &nc);
                let mem_t = g.select_rows(*phi_mem, &mt_idx);
                let mem_c = g.select_rows(*phi_mem, &mc_idx);
                (g.concat_rows(mem_t, new_t), g.concat_rows(mem_c, new_c))
            }
            None => {
                if nt.len() < 2 || nc.len() < 2 {
                    return None;
                }
                (g.select_rows(r_new, &nt), g.select_rows(r_new, &nc))
            }
        };
        match self.cfg.ipm {
            IpmKind::Wasserstein => Some(wasserstein(g, treated, control, self.cfg.sinkhorn())),
            IpmKind::LinearMmd => Some(linear_mmd(g, treated, control)),
            IpmKind::RbfMmd => Some(rbf_mmd(g, treated, control, Bandwidth::MedianHeuristic)),
            IpmKind::None => None,
        }
    }

    /// Early-stopping criterion for a continual stage: new-domain factual
    /// MSE plus the memory factual MSE (both in scaled-outcome space), so
    /// the snapshot balances plasticity and retention.
    fn stage_val_loss(
        &self,
        xv_std: &Matrix,
        yv_scaled: &[f64],
        tv: &[bool],
        phi: &FeatureTransform,
        mem: Option<&Memory>,
        mem_y_scaled: &[f64],
    ) -> Result<f64, CerlError> {
        let store = self.model.store();
        let plan = InferencePlan::<f64>::network(store, self.model.repr(), self.model.heads());
        let mut loss = 0.0;
        if xv_std.rows() > 0 {
            let (y0, y1) = plan.predict_potential_outcomes(xv_std)?;
            let mut se = 0.0;
            for i in 0..xv_std.rows() {
                let pred = if tv[i] { y1[i] } else { y0[i] };
                se += (pred - yv_scaled[i]) * (pred - yv_scaled[i]);
            }
            loss += se / xv_std.rows() as f64;
        }
        if let Some(m) = mem {
            if !m.is_empty() {
                let mapped = phi.apply(store, &m.r);
                let (y0, y1) = plan.heads(&mapped);
                let mut se = 0.0;
                for i in 0..m.len() {
                    let pred = if m.t[i] { y1[i] } else { y0[i] };
                    se += (pred - mem_y_scaled[i]) * (pred - mem_y_scaled[i]);
                }
                loss += se / m.len() as f64;
            }
        }
        Ok(loss)
    }

    /// `M_d = herding({R_d, Y_d, T_d} ∪ φ(M_{d-1}))` (the φ part was already
    /// applied at stage end; here we add the new domain and reduce).
    ///
    /// Fallible: the checked [`Memory::try_concat`] rejects a stored memory
    /// whose representation dimension disagrees with the new embeddings
    /// (possible only via corrupt restored state), so the mismatch surfaces
    /// as a typed error instead of poisoning the exemplar store.
    fn rebuild_memory(&mut self, train: &CausalDataset) -> Result<(), CerlError> {
        if !self.cfg.ablation.feature_transform {
            self.memory = None;
            return Ok(());
        }
        let r_new = self.model.embed(&train.x);
        let new_part = Memory::try_new(r_new, train.y.clone(), train.t.clone())?;
        let combined = match &self.memory {
            Some(old) => new_part.try_concat(old)?,
            None => new_part,
        };
        let mut rng = seeds::rng_labeled(self.seed, &format!("herding-{}", self.stage));
        self.memory =
            Some(combined.reduce(self.cfg.memory_size, self.cfg.ablation.herding, &mut rng));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EffectMetrics;
    use cerl_data::{DomainStream, SyntheticConfig, SyntheticGenerator};

    fn quick_stream(n_domains: usize) -> DomainStream {
        let gen = SyntheticGenerator::new(
            SyntheticConfig {
                n_units: 500,
                ..SyntheticConfig::small()
            },
            21,
        );
        DomainStream::synthetic(&gen, n_domains, 0, 33)
    }

    fn quick_cfg() -> CerlConfig {
        let mut cfg = CerlConfig::quick_test();
        cfg.train.epochs = 25;
        cfg.memory_size = 120;
        cfg
    }

    #[test]
    fn two_stage_continual_run() {
        let stream = quick_stream(2);
        let d_in = stream.domain(0).train.dim();
        let mut cerl = Cerl::new(d_in, quick_cfg(), 5);

        let r1 = cerl.observe(&stream.domain(0).train, &stream.domain(0).val);
        assert_eq!(r1.stage, 1);
        assert!(r1.memory_len > 0 && r1.memory_len <= 120);

        let r2 = cerl.observe(&stream.domain(1).train, &stream.domain(1).val);
        assert_eq!(r2.stage, 2);
        assert!(r2.memory_len > 0 && r2.memory_len <= 120);

        // Must predict reasonably on BOTH domains' test sets.
        for d in 0..2 {
            let test = &stream.domain(d).test;
            let est = cerl.predict_ite(&test.x);
            let m = EffectMetrics::on_dataset(test, &est);
            let trivial = EffectMetrics::on_dataset(test, &vec![0.0; test.n()]);
            assert!(
                m.sqrt_pehe < trivial.sqrt_pehe * 1.5,
                "domain {d}: {m:?} vs trivial {trivial:?}"
            );
            assert!(m.sqrt_pehe.is_finite() && m.ate_error.is_finite());
        }
    }

    #[test]
    fn memory_respects_budget_across_stages() {
        let stream = quick_stream(3);
        let d_in = stream.domain(0).train.dim();
        let mut cfg = quick_cfg();
        cfg.memory_size = 60;
        cfg.train.epochs = 8;
        let mut cerl = Cerl::new(d_in, cfg, 6);
        for d in 0..3 {
            let rep = cerl.observe(&stream.domain(d).train, &stream.domain(d).val);
            assert!(rep.memory_len <= 60, "stage {d}: memory {}", rep.memory_len);
        }
        let mem = cerl.memory().unwrap();
        // Balanced between groups.
        let nt = mem.treated_indices().len();
        let nc = mem.control_indices().len();
        assert!(
            (nt as i64 - nc as i64).abs() <= 2,
            "unbalanced memory {nt}/{nc}"
        );
    }

    #[test]
    fn without_frt_keeps_no_memory() {
        let stream = quick_stream(2);
        let d_in = stream.domain(0).train.dim();
        let mut cfg = quick_cfg();
        cfg.ablation.feature_transform = false;
        cfg.train.epochs = 6;
        let mut cerl = Cerl::new(d_in, cfg, 7);
        cerl.observe(&stream.domain(0).train, &stream.domain(0).val);
        assert!(cerl.memory().is_none());
        cerl.observe(&stream.domain(1).train, &stream.domain(1).val);
        assert!(cerl.memory().is_none());
    }

    #[test]
    fn stage_counter_and_embed() {
        let stream = quick_stream(1);
        let d_in = stream.domain(0).train.dim();
        let mut cfg = quick_cfg();
        cfg.train.epochs = 4;
        let mut cerl = Cerl::new(d_in, cfg, 8);
        assert_eq!(cerl.stage(), 0);
        cerl.observe(&stream.domain(0).train, &stream.domain(0).val);
        assert_eq!(cerl.stage(), 1);
        let r = cerl.embed(&stream.domain(0).test.x);
        assert_eq!(r.rows(), stream.domain(0).test.n());
    }
}
