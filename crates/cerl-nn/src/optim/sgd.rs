//! Stochastic gradient descent with classical momentum.

use super::Optimizer;
use crate::backward::Gradients;
use crate::params::{ParamId, ParamStore};
use cerl_math::Matrix;
use std::collections::HashMap;

/// SGD with momentum: `v ← μv − η·g`, `w ← w + v`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: HashMap<usize, Matrix>,
}

impl Sgd {
    /// Plain SGD (no momentum).
    pub fn new(lr: f64) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// SGD with momentum `μ ∈ [0, 1)`.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        assert!(lr > 0.0, "Sgd: learning rate must be positive");
        assert!(
            (0.0..1.0).contains(&momentum),
            "Sgd: momentum must be in [0,1)"
        );
        Self {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients, params: &[ParamId]) {
        for &pid in params {
            let Some(g) = grads.param_grad(pid) else {
                continue;
            };
            if self.momentum == 0.0 {
                store.value_mut(pid).axpy(-self.lr, g);
            } else {
                let v = self
                    .velocity
                    .entry(pid.index())
                    .or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
                v.scale_inplace(self.momentum);
                v.axpy(-self.lr, g);
                let delta = v.clone();
                store.value_mut(pid).add_assign(&delta);
            }
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimize f(w) = sum((w - 3)²) from w = 0.
    fn quadratic_descent(opt: &mut dyn Optimizer, steps: usize) -> f64 {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(1, 1));
        for _ in 0..steps {
            let mut g = Graph::new();
            let wp = g.param(&store, w);
            let target = g.input(Matrix::filled(1, 1, 3.0));
            let loss = crate::compose::mse(&mut g, wp, target);
            let grads = g.backward(loss);
            opt.step(&mut store, grads, &[w]);
        }
        store.value(w)[(0, 0)]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.3);
        let w = quadratic_descent(&mut opt, 50);
        assert!((w - 3.0).abs() < 1e-6, "w={w}");
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        let mut opt = Sgd::with_momentum(0.1, 0.9);
        let w = quadratic_descent(&mut opt, 200);
        assert!((w - 3.0).abs() < 1e-4, "w={w}");
    }

    #[test]
    fn missing_grads_leave_params_alone() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::filled(1, 1, 7.0));
        let u = store.add("unused", Matrix::filled(1, 1, 5.0));
        let mut g = Graph::new();
        let wp = g.param(&store, w);
        let sq = g.square(wp);
        let loss = g.sum(sq);
        let grads = g.backward(loss);
        let mut opt = Sgd::new(0.1);
        opt.step(&mut store, grads, &[w, u]);
        assert_eq!(store.value(u)[(0, 0)], 5.0);
        assert!(store.value(w)[(0, 0)] < 7.0);
    }

    #[test]
    fn lr_accessors() {
        let mut opt = Sgd::new(0.5);
        assert_eq!(opt.learning_rate(), 0.5);
        opt.set_learning_rate(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_bad_lr() {
        let _ = Sgd::new(0.0);
    }
}
