//! Adam optimizer (Kingma & Ba, 2015) with optional decoupled weight decay.

use super::Optimizer;
use crate::backward::Gradients;
use crate::params::{ParamId, ParamStore};
use cerl_math::Matrix;
use std::collections::HashMap;

/// Adam with bias correction; `weight_decay` is decoupled (AdamW-style).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    weight_decay: f64,
    t: u64,
    m: HashMap<usize, Matrix>,
    v: HashMap<usize, Matrix>,
}

impl Adam {
    /// Adam with standard hyper-parameters (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(lr: f64) -> Self {
        Self::with_config(lr, 0.9, 0.999, 1e-8, 0.0)
    }

    /// Fully parameterized construction.
    pub fn with_config(lr: f64, beta1: f64, beta2: f64, eps: f64, weight_decay: f64) -> Self {
        assert!(lr > 0.0, "Adam: learning rate must be positive");
        assert!(
            (0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2),
            "Adam: betas in [0,1)"
        );
        assert!(eps > 0.0, "Adam: eps must be positive");
        assert!(
            weight_decay >= 0.0,
            "Adam: weight decay must be non-negative"
        );
        Self {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }

    /// Reset step count and moment estimates (used when reusing an
    /// optimizer across training phases).
    pub fn reset(&mut self) {
        self.t = 0;
        self.m.clear();
        self.v.clear();
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients, params: &[ParamId]) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for &pid in params {
            let Some(g) = grads.param_grad(pid) else {
                continue;
            };
            let m = self
                .m
                .entry(pid.index())
                .or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
            m.scale_inplace(self.beta1);
            m.axpy(1.0 - self.beta1, g);
            let v = self
                .v
                .entry(pid.index())
                .or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
            v.scale_inplace(self.beta2);
            let s = 1.0 - self.beta2;
            for (vi, &gi) in v.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *vi += s * (gi * gi);
            }

            let w = store.value_mut(pid);
            let lr = self.lr;
            if self.weight_decay > 0.0 {
                w.scale_inplace(1.0 - lr * self.weight_decay);
            }
            for ((wi, mi), vi) in w
                .as_mut_slice()
                .iter_mut()
                .zip(m.as_slice())
                .zip(v.as_slice())
            {
                let mhat = mi / b1t;
                let vhat = vi / b2t;
                *wi -= lr * mhat / (vhat.sqrt() + self.eps);
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

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 2, vec![-4.0, 8.0]));
        let target = Matrix::from_vec(1, 2, vec![1.0, -2.0]);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let mut g = Graph::new();
            let wp = g.param(&store, w);
            let t = g.input(target.clone());
            let loss = crate::compose::mse(&mut g, wp, t);
            let grads = g.backward(loss);
            opt.step(&mut store, grads, &[w]);
        }
        assert!(
            store.value(w).approx_eq(&target, 1e-3),
            "{:?}",
            store.value(w)
        );
    }

    #[test]
    fn adam_handles_poorly_scaled_problems() {
        // f(w) = 1000 (w0 - 1)² + 0.001 (w1 - 1)²: plain SGD struggles,
        // Adam's per-coordinate scaling copes.
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(1, 2));
        let mut opt = Adam::new(0.05);
        for _ in 0..2000 {
            let mut g = Graph::new();
            let wp = g.param(&store, w);
            let ones = g.input(Matrix::ones(1, 2));
            let diff = g.sub(wp, ones);
            let sq = g.square(diff);
            let scalew = g.input(Matrix::from_vec(1, 2, vec![1000.0, 0.001]));
            let weighted = g.mul(sq, scalew);
            let loss = g.sum(weighted);
            let grads = g.backward(loss);
            opt.step(&mut store, grads, &[w]);
        }
        let v = store.value(w);
        assert!((v[(0, 0)] - 1.0).abs() < 1e-2, "{v:?}");
        assert!((v[(0, 1)] - 1.0).abs() < 0.2, "{v:?}");
    }

    #[test]
    fn weight_decay_shrinks_unused_params() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::filled(1, 1, 2.0));
        let mut opt = Adam::with_config(0.1, 0.9, 0.999, 1e-8, 0.1);
        // Loss gradient ~0 but weight decay still shrinks w.
        let mut g = Graph::new();
        let wp = g.param(&store, w);
        let z = g.scale(wp, 0.0);
        let loss = g.sum(z);
        let grads = g.backward(loss);
        let before = store.value(w)[(0, 0)];
        opt.step(&mut store, grads, &[w]);
        let after = store.value(w)[(0, 0)];
        assert!(after < before, "decay should shrink: {before} -> {after}");
    }

    #[test]
    fn reset_clears_state() {
        let mut opt = Adam::new(0.1);
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::filled(1, 1, 1.0));
        let mut g = Graph::new();
        let wp = g.param(&store, w);
        let sq = g.square(wp);
        let loss = g.sum(sq);
        let grads = g.backward(loss);
        opt.step(&mut store, grads, &[w]);
        assert_eq!(opt.t, 1);
        opt.reset();
        assert_eq!(opt.t, 0);
        assert!(opt.m.is_empty() && opt.v.is_empty());
    }
}
