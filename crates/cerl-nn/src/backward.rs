//! Reverse-mode differentiation over the tape.
//!
//! Node ids increase in topological order by construction, so a single
//! reverse sweep suffices. Gradients are accumulated per node; parameter
//! gradients are additionally folded per [`ParamId`] (a parameter may
//! appear at several tape positions, e.g. when the same representation
//! network is applied to two batches).
//!
//! Only nodes that require a gradient receive one: parameters,
//! [`Graph::input_with_grad`] leaves and everything computed from them.
//! An operand's gradient is not even computed when the operand is a plain
//! [`Graph::input`] or derived from inputs alone — e.g. `go·Wᵀ` for a
//! layer's data input, the largest backward GEMM of a training step.

use crate::graph::{Graph, NodeId, Op, NORM_EPS};
use crate::params::ParamId;
use cerl_math::{matmul_a_bt, matmul_at_b, Matrix};
use std::collections::HashMap;

/// Gradients produced by [`Graph::backward`].
pub struct Gradients {
    node_grads: Vec<Option<Matrix>>,
    param_grads: HashMap<usize, Matrix>,
}

impl Gradients {
    /// Gradient w.r.t. a parameter (summed over all tape occurrences), or
    /// `None` when the parameter did not influence the loss.
    pub fn param_grad(&self, id: ParamId) -> Option<&Matrix> {
        self.param_grads.get(&id.index())
    }

    /// Gradient w.r.t. a node that requires one (a parameter, an
    /// `input_with_grad` leaf, or a node computed from either), or `None`
    /// when no gradient reached it. Plain `input` leaves and nodes computed
    /// from them alone always report `None`.
    pub fn node_grad(&self, id: NodeId) -> Option<&Matrix> {
        self.node_grads.get(id.index()).and_then(|g| g.as_ref())
    }

    /// Global L2 norm over all parameter gradients.
    ///
    /// Summation runs in ascending parameter order: HashMap iteration order
    /// is randomized per process, and float addition is not associative, so
    /// an unordered sum would make gradient clipping — and therefore whole
    /// training runs — non-reproducible at the last ulp.
    pub fn global_norm(&self) -> f64 {
        let mut keys: Vec<usize> = self.param_grads.keys().copied().collect();
        keys.sort_unstable();
        keys.iter()
            .map(|k| {
                self.param_grads[k]
                    .as_slice()
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>()
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Scale every parameter gradient in place (used for clipping).
    pub fn scale_all(&mut self, s: f64) {
        for g in self.param_grads.values_mut() {
            g.scale_inplace(s);
        }
    }

    /// Clip parameter gradients to a maximum global norm; returns the scale
    /// that was applied (1.0 when no clipping occurred).
    pub fn clip_global_norm(&mut self, max_norm: f64) -> f64 {
        let n = self.global_norm();
        if n > max_norm && n > 0.0 {
            let s = max_norm / n;
            self.scale_all(s);
            s
        } else {
            1.0
        }
    }
}

impl Graph {
    /// Reverse-mode gradient of the scalar node `loss` w.r.t. every node
    /// and parameter that influences it.
    ///
    /// # Panics
    /// If `loss` is not a 1×1 node.
    pub fn backward(&self, loss: NodeId) -> Gradients {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be a scalar (1x1) node"
        );
        let n = self.nodes.len();
        let mut grads: Vec<Option<Matrix>> = vec![None; n];
        grads[loss.index()] = Some(Matrix::filled(1, 1, 1.0));

        for idx in (0..=loss.index()).rev() {
            let Some(go) = grads[idx].take() else {
                continue;
            };
            // Re-store so node_grad() can report it afterwards.
            let node = &self.nodes[idx];
            self.propagate(idx, &node.op, &go, &mut grads);
            grads[idx] = Some(go);
        }

        let mut param_grads: HashMap<usize, Matrix> = HashMap::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Op::Param(pid) = node.op {
                if let Some(g) = &grads[idx] {
                    param_grads
                        .entry(pid.index())
                        .and_modify(|acc| acc.add_assign(g))
                        .or_insert_with(|| g.clone());
                }
            }
        }
        Gradients {
            node_grads: grads,
            param_grads,
        }
    }

    /// Add `delta()` to `target`'s gradient. When `target` does not
    /// require a gradient, `delta` is never evaluated, so the work of an
    /// unwanted operand gradient is skipped along with its storage; no
    /// gradient then reaches the subtree behind `target` either.
    fn accumulate(
        &self,
        grads: &mut [Option<Matrix>],
        target: NodeId,
        delta: impl FnOnce() -> Matrix,
    ) {
        if !self.nodes[target.index()].requires_grad {
            return;
        }
        let delta = delta();
        match &mut grads[target.index()] {
            Some(acc) => acc.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn propagate(&self, idx: usize, op: &Op, go: &Matrix, grads: &mut [Option<Matrix>]) {
        match op {
            Op::Input | Op::Param(_) => {}
            Op::Add(a, b) => {
                self.accumulate(grads, *a, || go.clone());
                self.accumulate(grads, *b, || go.clone());
            }
            Op::Sub(a, b) => {
                self.accumulate(grads, *a, || go.clone());
                self.accumulate(grads, *b, || go.scale(-1.0));
            }
            Op::Mul(a, b) => {
                self.accumulate(grads, *a, || go.hadamard(self.value(*b)));
                self.accumulate(grads, *b, || go.hadamard(self.value(*a)));
            }
            Op::Scale(a, c) => {
                self.accumulate(grads, *a, || go.scale(*c));
            }
            Op::AddScalar(a) => {
                self.accumulate(grads, *a, || go.clone());
            }
            Op::AddRowBroadcast(m, bias) => {
                self.accumulate(grads, *m, || go.clone());
                // Bias gradient: column sums of go.
                self.accumulate(grads, *bias, || {
                    let mut db = Matrix::zeros(1, go.cols());
                    for i in 0..go.rows() {
                        for (j, &v) in go.row(i).iter().enumerate() {
                            db[(0, j)] += v;
                        }
                    }
                    db
                });
            }
            Op::MatMul(a, b) => {
                self.accumulate(grads, *a, || matmul_a_bt(go, self.value(*b)));
                self.accumulate(grads, *b, || matmul_at_b(self.value(*a), go));
            }
            Op::Relu(a) => {
                let x = self.value(*a);
                let da = go.zip_map(x, |g, xv| if xv > 0.0 { g } else { 0.0 });
                self.accumulate(grads, *a, || da);
            }
            Op::Elu(a, alpha) => {
                let x = self.value(*a);
                let y = self.value(NodeId(idx));
                let da = Matrix::from_fn(x.rows(), x.cols(), |i, j| {
                    let g = go[(i, j)];
                    if x[(i, j)] > 0.0 {
                        g
                    } else {
                        g * (y[(i, j)] + alpha)
                    }
                });
                self.accumulate(grads, *a, || da);
            }
            Op::Sigmoid(a) => {
                let y = self.value(NodeId(idx));
                let da = go.zip_map(y, |g, yv| g * yv * (1.0 - yv));
                self.accumulate(grads, *a, || da);
            }
            Op::Tanh(a) => {
                let y = self.value(NodeId(idx));
                let da = go.zip_map(y, |g, yv| g * (1.0 - yv * yv));
                self.accumulate(grads, *a, || da);
            }
            Op::Square(a) => {
                let x = self.value(*a);
                let da = go.zip_map(x, |g, xv| 2.0 * g * xv);
                self.accumulate(grads, *a, || da);
            }
            Op::Abs(a) => {
                let x = self.value(*a);
                let da = go.zip_map(x, |g, xv| g * sign0(xv));
                self.accumulate(grads, *a, || da);
            }
            Op::Exp(a) => {
                let y = self.value(NodeId(idx));
                let da = go.zip_map(y, |g, yv| g * yv);
                self.accumulate(grads, *a, || da);
            }
            Op::Sum(a) => {
                let s = go[(0, 0)];
                let x = self.value(*a);
                self.accumulate(grads, *a, || Matrix::filled(x.rows(), x.cols(), s));
            }
            Op::Mean(a) => {
                let x = self.value(*a);
                let n = x.len().max(1) as f64;
                let s = go[(0, 0)] / n;
                self.accumulate(grads, *a, || Matrix::filled(x.rows(), x.cols(), s));
            }
            Op::RowSum(a) => {
                let x = self.value(*a);
                let da = Matrix::from_fn(x.rows(), x.cols(), |i, _| go[(i, 0)]);
                self.accumulate(grads, *a, || da);
            }
            Op::RowL2Normalize(a) => {
                let x = self.value(*a);
                let y = self.value(NodeId(idx));
                let mut da = Matrix::zeros(x.rows(), x.cols());
                for i in 0..x.rows() {
                    let norm = cerl_math::norms::l2_norm(x.row(i));
                    if norm <= NORM_EPS {
                        continue; // zero output row: zero (sub)gradient
                    }
                    let yr = y.row(i);
                    let gr = go.row(i);
                    let dotyg: f64 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
                    let dr = da.row_mut(i);
                    for ((d, &g), &yv) in dr.iter_mut().zip(gr).zip(yr) {
                        *d = (g - yv * dotyg) / norm;
                    }
                }
                self.accumulate(grads, *a, || da);
            }
            Op::ColL2Normalize(a) => {
                let x = self.value(*a);
                let y = self.value(NodeId(idx));
                let (r, c) = x.shape();
                let mut norms = vec![0.0; c];
                for i in 0..r {
                    for (j, &v) in x.row(i).iter().enumerate() {
                        norms[j] += v * v;
                    }
                }
                norms.iter_mut().for_each(|n| *n = n.sqrt());
                // Per-column: d = (g - y (y·g)) / norm
                let mut dots = vec![0.0; c];
                for i in 0..r {
                    for (j, (&yv, &gv)) in y.row(i).iter().zip(go.row(i)).enumerate() {
                        dots[j] += yv * gv;
                    }
                }
                let mut da = Matrix::zeros(r, c);
                for i in 0..r {
                    let dr = da.row_mut(i);
                    for (j, d) in dr.iter_mut().enumerate() {
                        if norms[j] > NORM_EPS {
                            *d = (go[(i, j)] - y[(i, j)] * dots[j]) / norms[j];
                        }
                    }
                }
                self.accumulate(grads, *a, || da);
            }
            Op::SelectRows(a, indices) => {
                let x = self.value(*a);
                let mut da = Matrix::zeros(x.rows(), x.cols());
                for (k, &src) in indices.iter().enumerate() {
                    let gr = go.row(k);
                    let dr = da.row_mut(src);
                    for (d, &g) in dr.iter_mut().zip(gr) {
                        *d += g;
                    }
                }
                self.accumulate(grads, *a, || da);
            }
            Op::ConcatRows(a, b) => {
                let na = self.value(*a).rows();
                let idx_a: Vec<usize> = (0..na).collect();
                let idx_b: Vec<usize> = (na..go.rows()).collect();
                self.accumulate(grads, *a, || go.select_rows(&idx_a));
                self.accumulate(grads, *b, || go.select_rows(&idx_b));
            }
            Op::Custom { inputs, op } => {
                let in_values: Vec<&Matrix> = inputs.iter().map(|&i| self.value(i)).collect();
                let out = self.value(NodeId(idx));
                let deltas = op.backward(&in_values, out, go);
                assert_eq!(
                    deltas.len(),
                    inputs.len(),
                    "custom op '{}' returned {} gradients for {} inputs",
                    op.name(),
                    deltas.len(),
                    inputs.len()
                );
                for (&inp, d) in inputs.iter().zip(deltas) {
                    assert_eq!(
                        d.shape(),
                        self.value(inp).shape(),
                        "custom op '{}': gradient shape mismatch",
                        op.name()
                    );
                    self.accumulate(grads, inp, || d);
                }
            }
        }
    }
}

#[inline]
fn sign0(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    #[test]
    fn linear_gradient() {
        // L = mean((x·w − y)²), check dL/dw analytically on a 1-step case.
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(2, 1, vec![0.5, -0.5]));
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let y = g.input(Matrix::from_vec(2, 1, vec![1.0, 2.0]));
        let wp = g.param(&store, w);
        let pred = g.matmul(x, wp);
        let diff = g.sub(pred, y);
        let sq = g.square(diff);
        let loss = g.mean(sq);

        let grads = g.backward(loss);
        let gw = grads.param_grad(w).unwrap();

        // pred = [-0.5, -0.5]; diff = pred − y = [-1.5, -2.5];
        // dL/dpred = 2·diff/n = diff = [-1.5, -2.5]
        // dL/dw = Xᵀ diff = [1·(-1.5)+3·(-2.5), 2·(-1.5)+4·(-2.5)] = [-9, -13]
        assert!((gw[(0, 0)] + 9.0).abs() < 1e-12, "{gw:?}");
        assert!((gw[(1, 0)] + 13.0).abs() < 1e-12, "{gw:?}");
    }

    #[test]
    fn shared_param_accumulates() {
        // L = sum(w) + sum(w) should give gradient 2 for every entry.
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::filled(2, 2, 3.0));
        let mut g = Graph::new();
        let w1 = g.param(&store, w);
        let w2 = g.param(&store, w);
        let s1 = g.sum(w1);
        let s2 = g.sum(w2);
        let loss = g.add(s1, s2);
        let grads = g.backward(loss);
        let gw = grads.param_grad(w).unwrap();
        assert!(gw.approx_eq(&Matrix::filled(2, 2, 2.0), 1e-14));
    }

    #[test]
    fn fanout_accumulates() {
        // y = w ∘ w: dL/dw via two paths; L = sum(y) → grad = 2w.
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]));
        let mut g = Graph::new();
        let wp = g.param(&store, w);
        let y = g.mul(wp, wp);
        let loss = g.sum(y);
        let grads = g.backward(loss);
        let gw = grads.param_grad(w).unwrap();
        assert!(gw.approx_eq(&Matrix::from_vec(1, 3, vec![2.0, -4.0, 1.0]), 1e-14));
    }

    #[test]
    fn unreached_param_has_no_grad() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::identity(2));
        let unused = store.add("unused", Matrix::identity(2));
        let mut g = Graph::new();
        let wp = g.param(&store, w);
        let _up = g.param(&store, unused);
        let loss = g.sum(wp);
        let grads = g.backward(loss);
        assert!(grads.param_grad(w).is_some());
        assert!(grads.param_grad(unused).is_none());
    }

    #[test]
    fn clip_global_norm() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let mut g = Graph::new();
        let wp = g.param(&store, w);
        let sq = g.square(wp);
        let loss = g.sum(sq); // grad = 2w = [6, 8], norm 10
        let mut grads = g.backward(loss);
        assert!((grads.global_norm() - 10.0).abs() < 1e-12);
        let s = grads.clip_global_norm(5.0);
        assert!((s - 0.5).abs() < 1e-12);
        assert!((grads.global_norm() - 5.0).abs() < 1e-12);
        // No further clipping.
        assert_eq!(grads.clip_global_norm(5.0), 1.0);
    }

    #[test]
    fn gradient_wrt_tracked_input() {
        let mut g = Graph::new();
        let x = g.input_with_grad(Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let sq = g.square(x);
        let loss = g.sum(sq);
        let grads = g.backward(loss);
        let gx = grads.node_grad(x).unwrap();
        assert!(gx.approx_eq(&Matrix::from_vec(1, 2, vec![4.0, 6.0]), 1e-14));
    }

    /// Masked two-layer regression whose data operand is a plain or a
    /// gradient-tracked input; returns its params, tape, data leaf and loss.
    fn two_layer(tracked: bool) -> (Vec<ParamId>, Graph, NodeId, NodeId) {
        let mut store = ParamStore::new();
        let w1 = store.add(
            "w1",
            Matrix::from_fn(5, 4, |i, j| ((i * 4 + j) as f64 * 0.7).sin()),
        );
        let b1 = store.add("b1", Matrix::from_fn(1, 4, |_, j| 0.1 * j as f64));
        let w2 = store.add("w2", Matrix::from_fn(4, 1, |i, _| (i as f64 * 1.3).cos()));
        let x = Matrix::from_fn(6, 5, |i, j| ((i * 5 + j) as f64 * 0.37).cos());
        let mask = Matrix::from_fn(6, 1, |i, _| (i % 2) as f64);
        let mut g = Graph::new();
        let xin = if tracked {
            g.input_with_grad(x)
        } else {
            g.input(x)
        };
        let m = g.input(mask);
        let (w1n, b1n, w2n) = (
            g.param(&store, w1),
            g.param(&store, b1),
            g.param(&store, w2),
        );
        let xw = g.matmul(xin, w1n);
        let h = g.add_row_broadcast(xw, b1n);
        let h = g.elu(h, 1.0);
        let y = g.matmul(h, w2n);
        let ym = g.mul(y, m);
        let d = g.sub(ym, m);
        let sq = g.square(d);
        let loss = g.mean(sq);
        (vec![w1, b1, w2], g, xin, loss)
    }

    #[test]
    fn plain_input_gets_no_gradient() {
        let (_, g, x, loss) = two_layer(false);
        let grads = g.backward(loss);
        assert!(grads.node_grad(x).is_none());
        let (_, g, x, loss) = two_layer(true);
        let grads = g.backward(loss);
        assert_eq!(grads.node_grad(x).map(Matrix::shape), Some((6, 5)));
    }

    #[test]
    fn skipping_input_gradients_leaves_param_gradients_bitwise_unchanged() {
        let (params, g, _, loss) = two_layer(false);
        let skipped = g.backward(loss);
        let (_, g, _, loss) = two_layer(true);
        let full = g.backward(loss);
        for p in params {
            let (a, b) = (skipped.param_grad(p).unwrap(), full.param_grad(p).unwrap());
            assert!(a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}
