//! Selective and balanced representation network `g_w : X → R`
//! (paper §III-A.1).
//!
//! A stack of dense hidden layers followed by a **cosine-normalized** output
//! layer (Eq. 2) bounds every representation coordinate in `[-1, 1]`,
//! which is what neutralizes magnitude differences between treatment groups
//! and between data domains. The elastic-net penalty on the weights (Eq. 1)
//! implements "deep feature selection"; the penalty itself is assembled by
//! the trainers from [`ReprNet::weights`].

use crate::config::NetConfig;
use cerl_nn::{Activation, CosineDense, Dense, Graph, NodeId, ParamId, ParamStore};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Representation network: hidden dense layers + (cosine-normalized or
/// plain) output layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReprNet {
    hidden: Vec<Dense>,
    out_cosine: Option<CosineDense>,
    out_plain: Option<Dense>,
    out_dim: usize,
}

impl ReprNet {
    /// Build from an input dimension and [`NetConfig`]; `cosine_norm`
    /// selects the paper's Eq. 2 output layer (the "w/o cosine norm"
    /// ablation passes `false`).
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        rng: &mut R,
        d_in: usize,
        cfg: &NetConfig,
        cosine_norm: bool,
        name: &str,
    ) -> Self {
        let act = cfg.activation.to_activation();
        let mut hidden = Vec::with_capacity(cfg.repr_hidden.len());
        let mut prev = d_in;
        for (i, &h) in cfg.repr_hidden.iter().enumerate() {
            hidden.push(Dense::new(
                store,
                rng,
                prev,
                h,
                act,
                &format!("{name}.h{i}"),
            ));
            prev = h;
        }
        let (out_cosine, out_plain) = if cosine_norm {
            // σ(cos(w, x)): sigmoid over the bounded pre-activation, per Eq. 2.
            (
                Some(CosineDense::new(
                    store,
                    rng,
                    prev,
                    cfg.repr_dim,
                    Activation::Sigmoid,
                    &format!("{name}.out"),
                )),
                None,
            )
        } else {
            (
                None,
                Some(Dense::new(
                    store,
                    rng,
                    prev,
                    cfg.repr_dim,
                    Activation::Sigmoid,
                    &format!("{name}.out"),
                )),
            )
        };
        Self {
            hidden,
            out_cosine,
            out_plain,
            out_dim: cfg.repr_dim,
        }
    }

    /// Representation dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Whether an output layer (cosine or plain) is installed. Always true
    /// for constructed networks; deserialized state is checked against this
    /// by the snapshot validator.
    pub fn has_output_layer(&self) -> bool {
        self.out_cosine.is_some() || self.out_plain.is_some()
    }

    /// Hidden dense layers in forward order (for inference-plan compilers).
    pub(crate) fn hidden(&self) -> &[Dense] {
        &self.hidden
    }

    /// Cosine-normalized output layer, when this is the cosine variant.
    pub(crate) fn out_cosine(&self) -> Option<&CosineDense> {
        self.out_cosine.as_ref()
    }

    /// Plain dense output layer, when this is the ablation variant.
    pub(crate) fn out_plain(&self) -> Option<&Dense> {
        self.out_plain.as_ref()
    }

    /// Forward pass on the tape.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let mut h = x;
        for layer in &self.hidden {
            h = layer.forward(g, store, h);
        }
        match (&self.out_cosine, &self.out_plain) {
            (Some(c), _) => c.forward(g, store, h),
            (None, Some(p)) => p.forward(g, store, h),
            // Construction always installs exactly one output layer, and
            // the snapshot validator rejects documents without one; fail
            // loudly rather than silently serving hidden-layer activations.
            (None, None) => panic!("ReprNet: no output layer installed"),
        }
    }

    /// All trainable parameters.
    pub fn params(&self) -> Vec<ParamId> {
        let mut p: Vec<ParamId> = self.hidden.iter().flat_map(Dense::params).collect();
        if let Some(c) = &self.out_cosine {
            p.extend(c.params());
        }
        if let Some(d) = &self.out_plain {
            p.extend(d.params());
        }
        p
    }

    /// Weight matrices only (elastic-net targets; biases excluded).
    pub fn weights(&self) -> Vec<ParamId> {
        let mut w: Vec<ParamId> = self.hidden.iter().map(Dense::weight).collect();
        if let Some(c) = &self.out_cosine {
            w.push(c.weight());
        }
        if let Some(d) = &self.out_plain {
            w.push(d.weight());
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerl_math::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `g(x)` on the tape.
    fn embed(net: &ReprNet, store: &ParamStore, x: &Matrix) -> Matrix {
        let mut g = Graph::new();
        let xin = g.input(x.clone());
        let r = net.forward(&mut g, store, xin);
        g.value(r).clone()
    }

    fn cfg() -> NetConfig {
        NetConfig {
            repr_hidden: vec![12, 8],
            repr_dim: 6,
            head_hidden: vec![8],
            activation: crate::config::ActivationKind::Elu,
            transform_hidden: vec![8],
        }
    }

    #[test]
    fn output_shape_and_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let net = ReprNet::new(&mut store, &mut rng, 10, &cfg(), true, "g");
        assert_eq!(net.out_dim(), 6);
        let x = Matrix::from_fn(7, 10, |i, j| ((i + j) as f64 * 13.7).sin() * 1e3);
        let r = embed(&net, &store, &x);
        assert_eq!(r.shape(), (7, 6));
        // σ(cos(...)) ∈ (0, 1); bounded despite huge inputs.
        assert!(r.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn cosine_output_bounded_under_magnitude_shift() {
        // Same direction, wildly different magnitude → nearly identical
        // representations (the point of cosine normalization).
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let net = ReprNet::new(&mut store, &mut rng, 5, &cfg(), true, "g");
        let x1 = Matrix::from_fn(1, 5, |_, j| (j as f64 + 1.0) * 0.1);
        // ELU is not positively homogeneous, so representations won't be
        // exactly equal, but they must stay bounded and close in direction.
        let x1000 = x1.scale(1000.0);
        let r1 = embed(&net, &store, &x1);
        let r1000 = embed(&net, &store, &x1000);
        assert!(r1000.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(r1.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn plain_ablation_variant() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let net = ReprNet::new(&mut store, &mut rng, 10, &cfg(), false, "g");
        let x = Matrix::ones(4, 10);
        let r = embed(&net, &store, &x);
        assert_eq!(r.shape(), (4, 6));
        // Weights: 2 hidden + 1 output.
        assert_eq!(net.weights().len(), 3);
        // Params: hidden (w+b each) + output dense (w+b).
        assert_eq!(net.params().len(), 6);
    }

    #[test]
    fn cosine_variant_has_no_output_bias() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let net = ReprNet::new(&mut store, &mut rng, 10, &cfg(), true, "g");
        assert_eq!(net.params().len(), 5); // 2×(w+b) hidden + cosine w
        assert_eq!(net.weights().len(), 3);
    }

    #[test]
    fn gradients_flow_to_all_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let net = ReprNet::new(&mut store, &mut rng, 8, &cfg(), true, "g");
        let mut g = Graph::new();
        let x = g.input(Matrix::from_fn(6, 8, |i, j| {
            ((i * 8 + j) as f64 * 0.37).sin()
        }));
        let r = net.forward(&mut g, &store, x);
        let sq = g.square(r);
        let loss = g.mean(sq);
        let grads = g.backward(loss);
        for pid in net.params() {
            let gp = grads.param_grad(pid);
            assert!(gp.is_some(), "no grad for {}", store.name(pid));
            assert!(
                gp.unwrap().max_abs() > 0.0,
                "zero grad for {}",
                store.name(pid)
            );
        }
    }
}
