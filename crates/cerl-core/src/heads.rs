//! Two-head potential-outcome function `h_θ : R × T → Y` (paper §III-A.1,
//! "Inferring Potential Outcomes").
//!
//! To avoid losing the influence of `T` on the representation, `h` is
//! partitioned into separate networks for the treatment and control groups
//! (TARNet-style); each unit's factual prediction comes from the head
//! matching its observed treatment, implemented with 0/1 masks so a single
//! tape evaluates the whole batch.

use crate::config::NetConfig;
use cerl_nn::{Activation, Graph, Mlp, NodeId, ParamId, ParamStore};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Paired outcome heads `h₀` (control) and `h₁` (treatment).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OutcomeHeads {
    h0: Mlp,
    h1: Mlp,
}

impl OutcomeHeads {
    /// Build both heads over a `repr_dim`-dimensional representation space.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        rng: &mut R,
        repr_dim: usize,
        cfg: &NetConfig,
        name: &str,
    ) -> Self {
        let act = cfg.activation.to_activation();
        let mut dims = vec![repr_dim];
        dims.extend_from_slice(&cfg.head_hidden);
        dims.push(1);
        let h0 = Mlp::new(
            store,
            rng,
            &dims,
            act,
            Activation::Identity,
            &format!("{name}.h0"),
        );
        let h1 = Mlp::new(
            store,
            rng,
            &dims,
            act,
            Activation::Identity,
            &format!("{name}.h1"),
        );
        Self { h0, h1 }
    }

    /// Predicted outcomes under control and treatment (`n×1` each).
    pub fn forward_both(&self, g: &mut Graph, store: &ParamStore, r: NodeId) -> (NodeId, NodeId) {
        (self.h0.forward(g, store, r), self.h1.forward(g, store, r))
    }

    /// Factual predictions: each row uses the head matching its observed
    /// treatment (`ŷ_i = h_{t_i}(r_i)`), via 0/1 masks.
    pub fn forward_factual(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        r: NodeId,
        t: &[bool],
    ) -> NodeId {
        assert_eq!(
            g.value(r).rows(),
            t.len(),
            "forward_factual: row/treatment mismatch"
        );
        let (y0, y1) = self.forward_both(g, store, r);
        let m1 = g.input_fn(t.len(), 1, |i, _| if t[i] { 1.0 } else { 0.0 });
        let m0 = g.input_fn(t.len(), 1, |i, _| if t[i] { 0.0 } else { 1.0 });
        let y1m = g.mul(y1, m1);
        let y0m = g.mul(y0, m0);
        g.add(y1m, y0m)
    }

    /// Control-arm head MLP (for inference-plan compilers).
    pub(crate) fn h0(&self) -> &Mlp {
        &self.h0
    }

    /// Treated-arm head MLP (for inference-plan compilers).
    pub(crate) fn h1(&self) -> &Mlp {
        &self.h1
    }

    /// All trainable parameters of both heads.
    pub fn params(&self) -> Vec<ParamId> {
        let mut p = self.h0.params();
        p.extend(self.h1.params());
        p
    }

    /// Weight matrices only.
    pub fn weights(&self) -> Vec<ParamId> {
        let mut w = self.h0.weights();
        w.extend(self.h1.weights());
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use cerl_math::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ParamStore, OutcomeHeads) {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let heads = OutcomeHeads::new(&mut store, &mut rng, 6, &NetConfig::default(), "h");
        (store, heads)
    }

    #[test]
    fn factual_matches_selected_head() {
        let (store, heads) = setup();
        let r = Matrix::from_fn(5, 6, |i, j| ((i * 6 + j) as f64 * 0.21).sin());
        let t = vec![true, false, true, false, false];

        let mut g = Graph::new();
        let rin = g.input(r);
        let (y0, y1) = heads.forward_both(&mut g, &store, rin);
        let (y0, y1) = (g.value(y0).col(0), g.value(y1).col(0));
        let yf = heads.forward_factual(&mut g, &store, rin, &t);
        let yf_v = g.value(yf).col(0);
        for i in 0..5 {
            let want = if t[i] { y1[i] } else { y0[i] };
            assert!((yf_v[i] - want).abs() < 1e-12, "unit {i}");
        }
    }

    #[test]
    fn heads_are_independent() {
        // Gradient of a loss touching only treated units must not reach h0.
        let (store, heads) = setup();
        let r = Matrix::ones(4, 6);
        let t = vec![true, true, true, true];
        let mut g = Graph::new();
        let rin = g.input(r);
        let yf = heads.forward_factual(&mut g, &store, rin, &t);
        let sq = g.square(yf);
        let loss = g.mean(sq);
        let grads = g.backward(loss);
        // h1 weights get gradients, h0 gradient is identically zero (masked).
        let h1_has = heads.h1.params().iter().any(|&p| {
            grads
                .param_grad(p)
                .map(|m| m.max_abs() > 0.0)
                .unwrap_or(false)
        });
        assert!(h1_has);
        for p in heads.h0.params() {
            if let Some(m) = grads.param_grad(p) {
                assert_eq!(m.max_abs(), 0.0, "h0 {} received gradient", store.name(p));
            }
        }
    }

    #[test]
    fn param_counts() {
        let (_, heads) = setup();
        // default head_hidden [32,16] → 3 layers per head, (w+b) each.
        assert_eq!(heads.params().len(), 12);
        assert_eq!(heads.weights().len(), 6);
    }

    #[test]
    #[should_panic(expected = "row/treatment mismatch")]
    fn mismatched_treatment_length() {
        let (store, heads) = setup();
        let mut g = Graph::new();
        let rin = g.input(Matrix::ones(3, 6));
        let _ = heads.forward_factual(&mut g, &store, rin, &[true]);
    }
}
