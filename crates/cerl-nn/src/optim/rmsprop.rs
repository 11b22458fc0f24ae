//! RMSprop optimizer (Tieleman & Hinton, 2012).

use super::Optimizer;
use crate::backward::Gradients;
use crate::params::{ParamId, ParamStore};
use cerl_math::Matrix;
use std::collections::HashMap;

/// RMSprop: `v ← ρv + (1−ρ)g²`, `w ← w − η·g/√(v + ε)`.
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f64,
    rho: f64,
    eps: f64,
    v: HashMap<usize, Matrix>,
}

impl RmsProp {
    /// Standard hyper-parameters (ρ = 0.9, ε = 1e-8).
    pub fn new(lr: f64) -> Self {
        Self::with_config(lr, 0.9, 1e-8)
    }

    /// Fully parameterized construction.
    pub fn with_config(lr: f64, rho: f64, eps: f64) -> Self {
        assert!(lr > 0.0, "RmsProp: learning rate must be positive");
        assert!((0.0..1.0).contains(&rho), "RmsProp: rho must be in [0,1)");
        assert!(eps > 0.0, "RmsProp: eps must be positive");
        Self {
            lr,
            rho,
            eps,
            v: HashMap::new(),
        }
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients, params: &[ParamId]) {
        for &pid in params {
            let Some(g) = grads.param_grad(pid) else {
                continue;
            };
            let v = self
                .v
                .entry(pid.index())
                .or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
            v.scale_inplace(self.rho);
            let g2 = g.map(|x| x * x);
            v.axpy(1.0 - self.rho, &g2);
            let w = store.value_mut(pid);
            for ((wi, gi), vi) in w
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(v.as_slice())
            {
                *wi -= self.lr * gi / (vi.sqrt() + self.eps);
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
    use crate::compose::mse;
    use crate::graph::Graph;

    #[test]
    fn converges_on_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 2, vec![-3.0, 6.0]));
        let target = Matrix::from_vec(1, 2, vec![1.0, -2.0]);
        let mut opt = RmsProp::new(0.05);
        for _ in 0..800 {
            let mut g = Graph::new();
            let wp = g.param(&store, w);
            let t = g.input(target.clone());
            let loss = mse(&mut g, wp, t);
            let grads = g.backward(loss);
            opt.step(&mut store, grads, &[w]);
        }
        assert!(
            store.value(w).approx_eq(&target, 1e-2),
            "{:?}",
            store.value(w)
        );
    }

    #[test]
    fn per_coordinate_scaling_handles_ill_conditioning() {
        // 1000× curvature gap between the coordinates.
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(1, 2));
        let mut opt = RmsProp::new(0.02);
        for _ in 0..3000 {
            let mut g = Graph::new();
            let wp = g.param(&store, w);
            let ones = g.input(Matrix::ones(1, 2));
            let diff = g.sub(wp, ones);
            let sq = g.square(diff);
            let scalew = g.input(Matrix::from_vec(1, 2, vec![100.0, 0.1]));
            let weighted = g.mul(sq, scalew);
            let loss = g.sum(weighted);
            let grads = g.backward(loss);
            opt.step(&mut store, grads, &[w]);
        }
        let v = store.value(w);
        assert!((v[(0, 0)] - 1.0).abs() < 0.05, "{v:?}");
        assert!((v[(0, 1)] - 1.0).abs() < 0.2, "{v:?}");
    }

    #[test]
    fn lr_accessors_and_validation() {
        let mut opt = RmsProp::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.2);
        assert_eq!(opt.learning_rate(), 0.2);
    }

    #[test]
    #[should_panic(expected = "rho must be")]
    fn rejects_bad_rho() {
        let _ = RmsProp::with_config(0.1, 1.0, 1e-8);
    }
}
