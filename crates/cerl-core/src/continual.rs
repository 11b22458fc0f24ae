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

use crate::cfr::{balance_term, factual_mse, factual_mse_scaled, CfrModel};
use crate::config::{CerlConfig, DistillKind};
use crate::error::CerlError;
use crate::heads::OutcomeHeads;
use crate::memory::Memory;
use crate::precision::{InferencePlan, Predictor};
use crate::repr::ReprNet;
use crate::snapshot::ModelSnapshot;
use crate::trainer::{run_stage, validate_stage_inputs, TrainReport};
use crate::transform::FeatureTransform;
use cerl_data::{CausalDataset, OutcomeScaler, Standardizer};
use cerl_math::Matrix;
use cerl_nn::compose::{
    elastic_net_penalty, mean_cosine_distance, mean_squared_distance, mse, weighted_sum,
};
use cerl_nn::{Adam, Graph, NodeId, Optimizer, ParamStore};
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
    /// Create an untrained learner for `d_in`-dimensional covariates,
    /// validating the configuration and the covariate dimension first.
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

    /// Observe the next incrementally available domain (Algorithm 1 step),
    /// failing with a typed error on malformed input.
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

    /// Predicted ITE on raw covariates (current model, any seen domain),
    /// failing with a typed error before the first stage or on a
    /// covariate-dimension mismatch.
    pub fn try_predict_ite(&self, x: &Matrix) -> Result<Vec<f64>, CerlError> {
        self.model.try_predict_ite(x)
    }

    /// Predicted potential outcomes on raw covariates, failing with a typed
    /// error before the first stage or on a dimension mismatch.
    pub fn try_predict_potential_outcomes(
        &self,
        x: &Matrix,
    ) -> Result<(Vec<f64>, Vec<f64>), CerlError> {
        self.model.try_predict_potential_outcomes(x)
    }

    /// Representations of raw covariates under the current pipeline,
    /// failing with a typed error before the first stage or on a dimension
    /// mismatch.
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
            &self.cfg.net,
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
                let grads = {
                    let mut g = Graph::new();
                    let src = g.input(r_old_full.select_rows(&idx));
                    let tgt = g.input(r_new_init.select_rows(&idx));
                    let mapped = phi.forward(&mut g, self.model.store(), src);
                    let l = distance(self.cfg.distill_loss, &mut g, mapped, tgt);
                    g.backward(l)
                };
                phi_opt.step(self.model.store_mut(), &grads, &phi_params);
            }
        }

        let mut params = self.model.params();
        if use_transform {
            params.extend(phi.params());
        }
        let cfg = &self.cfg;
        let (store, repr, heads) = self.model.parts_mut();
        let objective = ContinualObjective {
            cfg,
            repr,
            heads,
            phi: &phi,
            xs: &xs,
            ys: &ys,
            t: &train.t,
            r_old: &r_old_full,
            mem: mem.as_ref(),
            mem_y: &mem_y_scaled,
        };
        let report = run_stage(
            store,
            &params,
            &cfg.train,
            train.n(),
            &mut rng,
            |g, store, batch, rng| objective.step_loss(g, store, batch, rng),
            |store| objective.val_loss(store, &xv, &yv, &val.t),
        )?;

        // Transform the stored memory into the new representation space.
        if use_transform {
            if let Some(m) = &self.memory {
                let r = phi.apply(self.model.store(), &m.r);
                self.memory = Some(Memory::try_new(r, m.y.clone(), m.t.clone())?);
            }
        } else {
            self.memory = None;
        }
        self.model.bump_stage();
        Ok(report)
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
        let r_new = self.model.try_embed(&train.x)?;
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

/// Distillation distance between two representation batches (`L_FD`,
/// `L_FT` and φ's warm-up), in the configured form.
fn distance(kind: DistillKind, g: &mut Graph, a: NodeId, b: NodeId) -> NodeId {
    match kind {
        DistillKind::SquaredL2 => mean_squared_distance(g, a, b),
        DistillKind::Cosine => mean_cosine_distance(g, a, b),
    }
}

/// The stage-`d` objective (Eq. 9) on one stage's fixed inputs: the new
/// domain in the stage's pipeline, the frozen `g_{d-1}` representations of
/// it, and the memory with its scaled outcomes.
struct ContinualObjective<'a> {
    cfg: &'a CerlConfig,
    repr: &'a ReprNet,
    heads: &'a OutcomeHeads,
    phi: &'a FeatureTransform,
    xs: &'a Matrix,
    ys: &'a Matrix,
    t: &'a [bool],
    r_old: &'a Matrix,
    mem: Option<&'a Memory>,
    mem_y: &'a [f64],
}

impl ContinualObjective<'_> {
    /// `L_G + α·Wass + λ·L_w + β·L_FD + δ·L_FT` on one mini-batch of the
    /// new domain and `memory_batch_size` memory rows drawn from `rng`.
    fn step_loss<R: Rng>(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        batch: &[usize],
        rng: &mut R,
    ) -> NodeId {
        let cfg = self.cfg;
        let tb: Vec<bool> = batch.iter().map(|&i| self.t[i]).collect();
        let x = g.input(self.xs.select_rows(batch));
        let r_new = self.repr.forward(g, store, x);
        let y_hat = self.heads.forward_factual(g, store, r_new, &tb);
        let y = g.input(self.ys.select_rows(batch));
        let mut terms = vec![(mse(g, y_hat, y), 1.0)];

        // L_FD: distillation toward the frozen previous representations.
        let r_old = g.input(self.r_old.select_rows(batch));
        if cfg.beta > 0.0 {
            terms.push((distance(cfg.distill_loss, g, r_old, r_new), cfg.beta));
        }

        // L_FT and memory-side L_G when the transformation is enabled.
        let mut mem_rows: Option<(NodeId, Vec<bool>)> = None;
        if let Some(mem) = self.mem {
            if cfg.delta > 0.0 {
                let phi_new = self.phi.forward(g, store, r_old);
                terms.push((distance(cfg.distill_loss, g, phi_new, r_new), cfg.delta));
            }
            if !mem.is_empty() {
                let k = cfg.train.memory_batch_size.min(mem.len()).max(2);
                let midx: Vec<usize> = (0..k).map(|_| rng.gen_range(0..mem.len())).collect();
                let mt: Vec<bool> = midx.iter().map(|&i| mem.t[i]).collect();
                let mr = g.input(mem.r.select_rows(&midx));
                let phi_mem = self.phi.forward(g, store, mr);
                let y_mem_hat = self.heads.forward_factual(g, store, phi_mem, &mt);
                let my = g.input(Matrix::from_fn(k, 1, |i, _| self.mem_y[midx[i]]));
                terms.push((mse(g, y_mem_hat, my), 1.0));
                mem_rows = Some((phi_mem, mt));
            }
        }

        // Global IPM over (transformed memory ∪ new) representations.
        let mem_rows = mem_rows.as_ref().map(|(node, mt)| (*node, mt.as_slice()));
        if let Some(ipm) = balance_term(cfg, g, r_new, &tb, mem_rows) {
            terms.push((ipm, cfg.alpha));
        }
        if cfg.lambda > 0.0 {
            let lw = elastic_net_penalty(g, store, &self.repr.weights());
            terms.push((lw, cfg.lambda));
        }
        weighted_sum(g, &terms)
    }

    /// Early-stopping criterion: new-domain factual MSE plus the memory
    /// factual MSE through φ (both in scaled-outcome space), so the kept
    /// parameters balance plasticity and retention.
    fn val_loss(
        &self,
        store: &ParamStore,
        xv_std: &Matrix,
        yv_scaled: &[f64],
        tv: &[bool],
    ) -> Result<f64, CerlError> {
        let plan = InferencePlan::<f64>::network(store, self.repr, self.heads);
        let mut loss = factual_mse_scaled(&plan, xv_std, yv_scaled, tv)?;
        if let Some(m) = self.mem.filter(|m| !m.is_empty()) {
            let (y0, y1) = plan.heads(&self.phi.apply(store, &m.r));
            loss += factual_mse(&y0, &y1, &m.t, self.mem_y);
        }
        Ok(loss)
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
        let mut cerl = Cerl::try_new(d_in, quick_cfg(), 5).unwrap();

        let r1 = cerl
            .try_observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        assert_eq!(r1.stage, 1);
        assert!(r1.memory_len > 0 && r1.memory_len <= 120);

        let r2 = cerl
            .try_observe(&stream.domain(1).train, &stream.domain(1).val)
            .unwrap();
        assert_eq!(r2.stage, 2);
        assert!(r2.memory_len > 0 && r2.memory_len <= 120);

        // Must predict reasonably on BOTH domains' test sets.
        for d in 0..2 {
            let test = &stream.domain(d).test;
            let est = cerl.try_predict_ite(&test.x).unwrap();
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
        let mut cerl = Cerl::try_new(d_in, cfg, 6).unwrap();
        for d in 0..3 {
            let rep = cerl
                .try_observe(&stream.domain(d).train, &stream.domain(d).val)
                .unwrap();
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
        let mut cerl = Cerl::try_new(d_in, cfg, 7).unwrap();
        cerl.try_observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        assert!(cerl.memory().is_none());
        cerl.try_observe(&stream.domain(1).train, &stream.domain(1).val)
            .unwrap();
        assert!(cerl.memory().is_none());
    }

    #[test]
    fn stage_counter_and_embed() {
        let stream = quick_stream(1);
        let d_in = stream.domain(0).train.dim();
        let mut cfg = quick_cfg();
        cfg.train.epochs = 4;
        let mut cerl = Cerl::try_new(d_in, cfg, 8).unwrap();
        assert_eq!(cerl.stage(), 0);
        cerl.try_observe(&stream.domain(0).train, &stream.domain(0).val)
            .unwrap();
        assert_eq!(cerl.stage(), 1);
        let r = cerl.try_embed(&stream.domain(0).test.x).unwrap();
        assert_eq!(r.rows(), stream.domain(0).test.n());
    }
}
