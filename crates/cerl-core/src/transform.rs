//! Feature-representation transformation `φ_{d-1→d} : R_{d-1} → R̃_{d-1}`
//! (paper §III-A.3, Eq. 7).
//!
//! Old memory representations live in the previous model's representation
//! space and are incompatible with the new one; `φ` maps them across.
//! It is trained jointly with the main objective through
//! `L_FT = 1 − cos(φ(g_{d-1}(x)), g_d(x))` over new-data pairs, then applied
//! to the stored memory at stage end.

use crate::config::NetConfig;
use cerl_math::Matrix;
use cerl_nn::{Activation, Graph, Mlp, NodeId, ParamId, ParamStore};
use rand::Rng;

/// Representation-space transformation network.
#[derive(Debug, Clone)]
pub struct FeatureTransform {
    net: Mlp,
}

impl FeatureTransform {
    /// Build `φ : R^{repr_dim} → R^{repr_dim}`. The output activation is a
    /// sigmoid so transformed representations live in the same `(0,1)`
    /// range the (cosine-normalized, sigmoid-activated) representation
    /// layer produces.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        rng: &mut R,
        cfg: &NetConfig,
        name: &str,
    ) -> Self {
        let mut dims = vec![cfg.repr_dim];
        dims.extend_from_slice(&cfg.transform_hidden);
        dims.push(cfg.repr_dim);
        let net = Mlp::new(
            store,
            rng,
            &dims,
            cfg.activation.to_activation(),
            Activation::Sigmoid,
            name,
        );
        Self { net }
    }

    /// Forward pass on the tape.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, r: NodeId) -> NodeId {
        self.net.forward(g, store, r)
    }

    /// Transform a representation matrix without tracking gradients.
    pub fn apply(&self, store: &ParamStore, r: &Matrix) -> Matrix {
        let mut g = Graph::new();
        let rin = g.input(r.clone());
        let out = self.forward(&mut g, store, rin);
        g.value(out).clone()
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<ParamId> {
        self.net.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use cerl_nn::compose::mean_cosine_distance;
    use cerl_nn::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> NetConfig {
        NetConfig {
            repr_dim: 8,
            transform_hidden: vec![16],
            ..NetConfig::default()
        }
    }

    #[test]
    fn output_shape_and_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let phi = FeatureTransform::new(&mut store, &mut rng, &cfg(), "phi");
        let r = Matrix::from_fn(5, 8, |i, j| ((i + j) as f64 * 0.17).sin());
        let out = phi.apply(&store, &r);
        assert_eq!(out.shape(), (5, 8));
        assert!(out.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn learns_a_fixed_rotation_under_lft() {
        // Train φ with L_FT to align φ(old) with new = permuted(old):
        // the cosine distance must drop substantially.
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let phi = FeatureTransform::new(&mut store, &mut rng, &cfg(), "phi");
        let params = phi.params();
        let mut opt = Adam::new(5e-3);

        let n = 64;
        let old = Matrix::from_fn(n, 8, |_, _| rng.gen::<f64>());
        // "New space": coordinates permuted cyclically.
        let new = Matrix::from_fn(n, 8, |i, j| old[(i, (j + 1) % 8)]);

        let loss_at = |store: &ParamStore| {
            let mut g = Graph::new();
            let o = g.input(old.clone());
            let nv = g.input(new.clone());
            let mapped = phi.forward(&mut g, store, o);
            let l = mean_cosine_distance(&mut g, mapped, nv);
            g.scalar(l)
        };
        let before = loss_at(&store);
        for _ in 0..300 {
            let mut g = Graph::new();
            let o = g.input(old.clone());
            let nv = g.input(new.clone());
            let mapped = phi.forward(&mut g, &store, o);
            let l = mean_cosine_distance(&mut g, mapped, nv);
            let grads = g.backward(l);
            opt.step(&mut store, grads, &params);
        }
        let after = loss_at(&store);
        assert!(
            after < before * 0.5,
            "L_FT did not improve: {before:.4} -> {after:.4}"
        );
        assert!(after < 0.05, "alignment too loose: {after:.4}");
    }
}
