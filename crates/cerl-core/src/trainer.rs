//! The one training loop every stage runs (`run_stage`), with its
//! mini-batching, early stopping, and the report it returns.
//!
//! CFR, CERL's continual stages and the S/T-learner baselines differ only
//! in the loss they minimise on one mini-batch and in their validation
//! criterion; each hands those to `run_stage` as two closures.

use crate::config::TrainConfig;
use crate::error::CerlError;
use cerl_data::CausalDataset;
use cerl_math::Matrix;
use cerl_nn::{Adam, Graph, NodeId, Optimizer, ParamId, ParamStore};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Shared input validation for every `try_train`/`try_observe` stage:
/// enough units to fit on, train/val covariate widths matching the model
/// (an empty validation set is allowed and skips the width check), and
/// finite covariates and outcomes in both splits. It runs before anything
/// mutates the learner, so a rejected stage leaves it untouched.
pub(crate) fn validate_stage_inputs(
    train: &CausalDataset,
    val: &CausalDataset,
    d_in: usize,
) -> Result<(), CerlError> {
    if train.n() < 4 {
        return Err(CerlError::DatasetTooSmall {
            required: 4,
            found: train.n(),
        });
    }
    if train.dim() != d_in {
        return Err(CerlError::DimensionMismatch {
            expected: d_in,
            found: train.dim(),
        });
    }
    if val.n() > 0 && val.dim() != d_in {
        return Err(CerlError::DimensionMismatch {
            expected: d_in,
            found: val.dim(),
        });
    }
    for (x_field, y_field, data) in [("train.x", "train.y", train), ("val.x", "val.y", val)] {
        if let Some(row) = (0..data.n()).find(|&i| data.x.row(i).iter().any(|v| !v.is_finite())) {
            return Err(CerlError::NonFiniteInput {
                field: x_field,
                row,
            });
        }
        if let Some(row) = data.y.iter().position(|v| !v.is_finite()) {
            return Err(CerlError::NonFiniteInput {
                field: y_field,
                row,
            });
        }
    }
    Ok(())
}

/// Run one training stage from the parameters in `store`.
///
/// Each of at most `cfg.epochs` epochs shuffles `0..n` into mini-batches;
/// for every batch `step_loss` builds the loss node on a fresh tape, the
/// gradient's global norm is clipped to `cfg.clip_norm` (when positive)
/// and Adam steps `params`. After each epoch `val_loss` feeds the early
/// stopper, whose best parameters are restored at the end.
///
/// `rng` draws each epoch's shuffle and is lent to `step_loss` in between,
/// so a loss that samples (CERL's memory mini-batch) shares the stream.
pub(crate) fn run_stage<R: Rng>(
    store: &mut ParamStore,
    params: &[ParamId],
    cfg: &TrainConfig,
    n: usize,
    rng: &mut R,
    mut step_loss: impl FnMut(&mut Graph, &ParamStore, &[usize], &mut R) -> NodeId,
    mut val_loss: impl FnMut(&ParamStore) -> Result<f64, CerlError>,
) -> Result<TrainReport, CerlError> {
    let mut opt = Adam::new(cfg.learning_rate);
    let mut stopper = EarlyStopper::new(params.to_vec(), cfg.patience);
    let mut epochs_run = 0;
    let mut final_train_loss = f64::NAN;
    for _ in 0..cfg.epochs {
        epochs_run += 1;
        let batches = minibatches(n, cfg.batch_size, rng);
        let mut epoch_loss = 0.0;
        for batch in &batches {
            // The tape is dropped before the optimiser step: the gradients
            // own their data.
            let mut grads = {
                let mut g = Graph::new();
                let loss = step_loss(&mut g, store, batch, rng);
                epoch_loss += g.scalar(loss);
                g.backward(loss)
            };
            if cfg.clip_norm > 0.0 {
                grads.clip_global_norm(cfg.clip_norm);
            }
            opt.step(store, &grads, params);
        }
        final_train_loss = epoch_loss / batches.len().max(1) as f64;
        if stopper.update(store, val_loss(store)?) {
            break;
        }
    }
    stopper.restore_best(store);
    Ok(TrainReport {
        epochs_run,
        best_val_loss: stopper.best_loss(),
        final_train_loss,
    })
}

/// Outcome of one training stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Epochs actually run (≤ configured epochs under early stopping).
    pub epochs_run: usize,
    /// Best validation loss seen (scaled-outcome factual MSE).
    pub best_val_loss: f64,
    /// Training loss at the final epoch.
    pub final_train_loss: f64,
}

/// Shuffled mini-batch index lists covering `0..n` (one epoch of
/// [`run_stage`]).
///
/// The tail batch is kept if it has at least 2 units (a 1-unit batch makes
/// MSE/IPM terms degenerate), otherwise merged into the previous batch.
/// A `batch_size` below 2 is clamped to 2 (config validation rejects it on
/// the fallible paths before it ever reaches here).
fn minibatches<R: Rng + ?Sized>(n: usize, batch_size: usize, rng: &mut R) -> Vec<Vec<usize>> {
    let batch_size = batch_size.max(2);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    let mut out: Vec<Vec<usize>> = idx.chunks(batch_size).map(<[usize]>::to_vec).collect();
    if out.len() >= 2 && out.last().map_or(0, Vec::len) < 2 {
        if let Some(tail) = out.pop() {
            if let Some(prev) = out.last_mut() {
                prev.extend(tail);
            }
        }
    }
    out
}

/// Early stopper that snapshots the best parameters.
struct EarlyStopper {
    patience: usize,
    best_loss: f64,
    wait: usize,
    param_ids: Vec<ParamId>,
    best_params: Option<Vec<Matrix>>,
}

impl EarlyStopper {
    /// Track the given parameters; `patience == 0` disables stopping (but
    /// best-snapshot restoration still applies).
    fn new(param_ids: Vec<ParamId>, patience: usize) -> Self {
        Self {
            patience,
            best_loss: f64::INFINITY,
            wait: 0,
            param_ids,
            best_params: None,
        }
    }

    /// Report a validation loss; returns `true` when training should stop.
    fn update(&mut self, store: &ParamStore, val_loss: f64) -> bool {
        if val_loss < self.best_loss {
            self.best_loss = val_loss;
            self.wait = 0;
            self.best_params = Some(store.snapshot(&self.param_ids));
            false
        } else {
            self.wait += 1;
            self.patience > 0 && self.wait >= self.patience
        }
    }

    /// Best validation loss so far.
    fn best_loss(&self) -> f64 {
        self.best_loss
    }

    /// Restore the best snapshot into the store (no-op if none recorded).
    fn restore_best(&self, store: &mut ParamStore) {
        if let Some(best) = &self.best_params {
            store.restore(&self.param_ids, best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn minibatches_cover_all_indices() {
        let mut rng = StdRng::seed_from_u64(1);
        let batches = minibatches(103, 20, &mut rng);
        let mut all: Vec<usize> = batches.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
        // 103 = 5×20 + 3 → tail of 3 stays.
        assert_eq!(batches.len(), 6);
    }

    #[test]
    fn tiny_tail_merges() {
        let mut rng = StdRng::seed_from_u64(2);
        let batches = minibatches(41, 20, &mut rng);
        // tail of 1 merges into previous batch.
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[1].len(), 21);
    }

    #[test]
    fn early_stopper_restores_best() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::filled(1, 1, 1.0));
        let mut es = EarlyStopper::new(vec![w], 2);

        assert!(!es.update(&store, 1.0)); // best
        store.value_mut(w)[(0, 0)] = 2.0;
        assert!(!es.update(&store, 1.5)); // worse ×1
        store.value_mut(w)[(0, 0)] = 3.0;
        assert!(es.update(&store, 1.6)); // worse ×2 → stop
        es.restore_best(&mut store);
        assert_eq!(store.value(w)[(0, 0)], 1.0);
        assert_eq!(es.best_loss(), 1.0);
    }

    #[test]
    fn zero_patience_never_stops() {
        let store = ParamStore::new();
        let mut es = EarlyStopper::new(vec![], 0);
        for i in 0..100 {
            assert!(!es.update(&store, 1.0 + i as f64));
        }
    }
}
