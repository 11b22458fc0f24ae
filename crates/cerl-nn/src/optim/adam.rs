//! Adam optimizer (Kingma & Ba, 2015) with optional decoupled weight decay.

use super::Optimizer;
use crate::backward::Gradients;
use crate::params::{ParamId, ParamStore};

/// Adam with bias correction; `weight_decay` is decoupled (AdamW-style).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    weight_decay: f64,
    t: u64,
    /// First and second moment estimates, indexed by [`ParamId::index`];
    /// `None` until the parameter first has a gradient.
    moments: Vec<Option<Moments>>,
}

/// One parameter's moment estimates, entry for entry with its value.
#[derive(Debug, Clone)]
struct Moments {
    m: Vec<f64>,
    v: Vec<f64>,
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
            moments: Vec::new(),
        }
    }

    /// Reset step count and moment estimates (used when reusing an
    /// optimizer across training phases).
    pub fn reset(&mut self) {
        self.t = 0;
        self.moments.clear();
    }
}

impl Optimizer for Adam {
    /// One pass per parameter: each entry's `m`, `v` and weight are
    /// updated together, with the expressions (and so the roundings) of
    /// the textbook sequence of whole-matrix passes — `m ← β₁m`,
    /// `m ← m + (1−β₁)g`, `v ← β₂v`, `v ← v + (1−β₂)g²`, the decay
    /// `w ← (1−ηλ)w`, then `w ← w − η·m̂/(√v̂ + ε)`.
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients, params: &[ParamId]) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let (s1, s2) = (1.0 - beta1, 1.0 - beta2);
        let decay = (self.weight_decay > 0.0).then_some(1.0 - lr * self.weight_decay);
        for &pid in params {
            let Some(g) = grads.param_grad(pid) else {
                continue;
            };
            if self.moments.len() <= pid.index() {
                self.moments.resize_with(pid.index() + 1, || None);
            }
            let Moments { m, v } = self.moments[pid.index()].get_or_insert_with(|| Moments {
                m: vec![0.0; g.len()],
                v: vec![0.0; g.len()],
            });
            let w = store.value_mut(pid);
            assert_eq!(w.len(), g.len(), "Adam: gradient shape mismatch");
            assert_eq!(m.len(), g.len(), "Adam: moment shape mismatch");
            let entries = w
                .as_mut_slice()
                .iter_mut()
                .zip(m.iter_mut().zip(v.iter_mut()));
            for ((wi, (mi, vi)), &gi) in entries.zip(g.as_slice()) {
                *mi *= beta1;
                *mi += s1 * gi;
                *vi *= beta2;
                *vi += s2 * (gi * gi);
                if let Some(decay) = decay {
                    *wi *= decay;
                }
                let mhat = *mi / b1t;
                let vhat = *vi / b2t;
                *wi -= lr * mhat / (vhat.sqrt() + eps);
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
    use cerl_math::Matrix;
    use std::collections::HashMap;

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
        assert!(opt.moments.is_empty());
    }

    /// Adam as it was written before its update became one pass: five
    /// whole-matrix passes per parameter over moments kept in maps.
    struct FivePassAdam {
        opt: Adam,
        m: HashMap<usize, Matrix>,
        v: HashMap<usize, Matrix>,
    }

    impl FivePassAdam {
        fn step(&mut self, store: &mut ParamStore, grads: &Gradients, params: &[ParamId]) {
            let o = &mut self.opt;
            o.t += 1;
            let b1t = 1.0 - o.beta1.powi(o.t as i32);
            let b2t = 1.0 - o.beta2.powi(o.t as i32);
            for &pid in params {
                let Some(g) = grads.param_grad(pid) else {
                    continue;
                };
                let m = self
                    .m
                    .entry(pid.index())
                    .or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
                m.scale_inplace(o.beta1);
                m.axpy(1.0 - o.beta1, g);
                let v = self
                    .v
                    .entry(pid.index())
                    .or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
                v.scale_inplace(o.beta2);
                let s = 1.0 - o.beta2;
                for (vi, &gi) in v.as_mut_slice().iter_mut().zip(g.as_slice()) {
                    *vi += s * (gi * gi);
                }
                let w = store.value_mut(pid);
                if o.weight_decay > 0.0 {
                    w.scale_inplace(1.0 - o.lr * o.weight_decay);
                }
                for ((wi, mi), vi) in w
                    .as_mut_slice()
                    .iter_mut()
                    .zip(m.as_slice())
                    .zip(v.as_slice())
                {
                    let mhat = mi / b1t;
                    let vhat = vi / b2t;
                    *wi -= o.lr * mhat / (vhat.sqrt() + o.eps);
                }
            }
        }
    }

    /// The one-pass update moves every weight to the same bits as the
    /// five-pass reference, step after step, with and without weight
    /// decay, on a loss whose gradients change sign and scale as the
    /// weights move; a parameter without a gradient is left alone by both.
    #[test]
    fn one_pass_update_matches_the_five_pass_reference() {
        for weight_decay in [0.0, 0.05] {
            let mut store = ParamStore::new();
            let w = store.add(
                "w",
                Matrix::from_fn(3, 4, |i, j| ((i * 4 + j) as f64 * 0.7).sin()),
            );
            let b = store.add("b", Matrix::from_fn(1, 4, |_, j| j as f64 * 0.1 - 0.2));
            let unused = store.add("unused", Matrix::filled(2, 2, 0.5));
            let mut ref_store = store.clone();
            let params = [w, b, unused];
            let x = Matrix::from_fn(5, 3, |i, j| ((i + 2 * j) as f64 * 0.37).cos());
            let y = Matrix::from_fn(5, 4, |i, j| ((i * j) as f64 * 0.11).sin());
            let grads_at = |g: &mut Graph, store: &ParamStore| {
                g.reset();
                let xin = g.input(x.clone());
                let yin = g.input(y.clone());
                let wp = g.param(store, w);
                let bp = g.param(store, b);
                let h = g.matmul(xin, wp);
                let h = g.add_row_broadcast(h, bp);
                let h = g.tanh(h);
                let loss = crate::compose::mse(g, h, yin);
                g.backward(loss);
            };
            let mut opt = Adam::with_config(0.05, 0.9, 0.999, 1e-8, weight_decay);
            let mut reference = FivePassAdam {
                opt: opt.clone(),
                m: HashMap::new(),
                v: HashMap::new(),
            };
            let (mut g, mut ref_g) = (Graph::new(), Graph::new());
            for step in 0..60 {
                grads_at(&mut g, &store);
                grads_at(&mut ref_g, &ref_store);
                opt.step(&mut store, &g.grads, &params);
                reference.step(&mut ref_store, &ref_g.grads, &params);
                for &p in &params {
                    let bits = |s: &ParamStore| {
                        s.value(p)
                            .as_slice()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(
                        bits(&store),
                        bits(&ref_store),
                        "decay {weight_decay}, step {step}, {}",
                        store.name(p)
                    );
                }
            }
            assert_eq!(store.value(unused).as_slice(), &[0.5; 4]);
        }
    }
}
