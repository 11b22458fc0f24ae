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
//!
//! Every gradient buffer comes from the tape's pool and goes back to it on
//! [`Graph::reset`], and the products write into them through the tape's
//! [`GemmScratch`], so a steady-state backward sweep allocates nothing.

use crate::graph::{col_norm, Graph, Node, NodeId, Op, Pool, NORM_EPS};
use crate::params::ParamId;
use cerl_math::matmul::GemmScratch;
use cerl_math::Matrix;

/// Gradients produced by [`Graph::backward`], held by the tape until its
/// next [`Graph::reset`] or `backward`.
#[derive(Default)]
pub struct Gradients {
    node_grads: Vec<Option<Matrix>>,
    /// Indexed by [`ParamId::index`].
    param_grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient w.r.t. a parameter (summed over all tape occurrences), or
    /// `None` when the parameter did not influence the loss.
    pub fn param_grad(&self, id: ParamId) -> Option<&Matrix> {
        self.param_grads.get(id.index()).and_then(Option::as_ref)
    }

    /// Gradient w.r.t. an [`Graph::input_with_grad`] leaf, or `None` when
    /// no gradient reached it. Every other node reports `None`: plain
    /// inputs get no gradient, a parameter leaf's gradient is folded into
    /// [`Gradients::param_grad`], and an interior node's buffer serves a
    /// later gradient once it has been propagated.
    pub fn node_grad(&self, id: NodeId) -> Option<&Matrix> {
        self.node_grads.get(id.index()).and_then(Option::as_ref)
    }

    /// Global L2 norm over all parameter gradients, summed in ascending
    /// parameter order (float addition is not associative, so a fixed
    /// order keeps gradient clipping reproducible to the last ulp).
    pub fn global_norm(&self) -> f64 {
        self.param_grads
            .iter()
            .flatten()
            .map(|g| g.as_slice().iter().map(|v| v * v).sum::<f64>())
            .sum::<f64>()
            .sqrt()
    }

    /// Scale every parameter gradient in place (used for clipping).
    pub fn scale_all(&mut self, s: f64) {
        for g in self.param_grads.iter_mut().flatten() {
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

    /// Return every buffer to `pool`, leaving no gradient behind.
    pub(crate) fn recycle(&mut self, pool: &mut Pool) {
        let params = self.param_grads.iter_mut().map(Option::take);
        for m in self.node_grads.drain(..).chain(params).flatten() {
            pool.give(m);
        }
    }
}

impl Graph {
    /// Reverse-mode gradient of the scalar node `loss` w.r.t. every node
    /// and parameter that influences it. The gradients live on the tape
    /// until its next `reset` or `backward`.
    ///
    /// # Panics
    /// If `loss` is not a 1×1 node.
    pub fn backward(&mut self, loss: NodeId) -> &mut Gradients {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be a scalar (1x1) node"
        );
        let Graph {
            nodes,
            links,
            pool,
            gemm,
            grads,
        } = self;
        grads.recycle(pool);
        grads.node_grads.resize_with(nodes.len(), || None);
        let mut seed = pool.take(1, 1);
        seed[(0, 0)] = 1.0;
        grads.node_grads[loss.index()] = Some(seed);

        let mut sweep = Sweep {
            nodes,
            links,
            pool,
            gemm,
            grads,
        };
        for idx in (0..=loss.index()).rev() {
            let Some(go) = sweep.grads.node_grads[idx].take() else {
                continue;
            };
            sweep.propagate(idx, &go);
            if matches!(nodes[idx].op, Op::Input | Op::Param(_)) {
                // Kept for the parameter fold below and node_grad().
                sweep.grads.node_grads[idx] = Some(go);
            } else {
                // Fully propagated: its buffer serves a later gradient.
                sweep.pool.give(go);
            }
        }

        // Fold each parameter's occurrences in tape order.
        for (idx, node) in nodes.iter().enumerate() {
            let Op::Param(pid) = node.op else { continue };
            let Some(g) = grads.node_grads[idx].take() else {
                continue;
            };
            let p = pid.index();
            if grads.param_grads.len() <= p {
                grads.param_grads.resize_with(p + 1, || None);
            }
            match &mut grads.param_grads[p] {
                Some(acc) => {
                    acc.add_assign(&g);
                    pool.give(g);
                }
                slot @ None => *slot = Some(g),
            }
        }
        grads
    }
}

/// One reverse sweep over a tape's nodes, writing into its gradients.
struct Sweep<'a> {
    nodes: &'a [Node],
    links: &'a [usize],
    pool: &'a mut Pool,
    gemm: &'a mut GemmScratch,
    grads: &'a mut Gradients,
}

impl Sweep<'_> {
    /// Add the delta that `write` produces to `target`'s gradient. `write`
    /// gets a buffer shaped like `target` with unspecified contents and
    /// must set every entry. When `target` does not require a gradient,
    /// `write` never runs, so the work of an unwanted operand gradient is
    /// skipped along with its storage; no gradient then reaches the
    /// subtree behind `target` either.
    fn accumulate(&mut self, target: NodeId, write: impl FnOnce(&mut Matrix, &mut GemmScratch)) {
        let node = &self.nodes[target.index()];
        if !node.requires_grad {
            return;
        }
        let mut delta = self.pool.take(node.value.rows(), node.value.cols());
        write(&mut delta, self.gemm);
        let slot = &mut self.grads.node_grads[target.index()];
        if let Some(acc) = slot.as_mut() {
            acc.add_assign(&delta);
            self.pool.give(delta);
        } else {
            *slot = Some(delta);
        }
    }

    /// `target += f(go)` elementwise.
    fn unary(&mut self, target: NodeId, go: &Matrix, f: impl Fn(f64) -> f64) {
        self.accumulate(target, |d, _| {
            for (o, &g) in d.as_mut_slice().iter_mut().zip(go.as_slice()) {
                *o = f(g);
            }
        });
    }

    /// `target += f(go, v)` elementwise, `v` shaped like `go`.
    fn binary(&mut self, target: NodeId, go: &Matrix, v: &Matrix, f: impl Fn(f64, f64) -> f64) {
        self.accumulate(target, |d, _| {
            let out = d.as_mut_slice().iter_mut();
            for ((o, &g), &x) in out.zip(go.as_slice()).zip(v.as_slice()) {
                *o = f(g, x);
            }
        });
    }

    #[allow(clippy::too_many_lines)]
    fn propagate(&mut self, idx: usize, go: &Matrix) {
        let nodes = self.nodes;
        let value = |id: &NodeId| &nodes[id.index()].value;
        let y = &nodes[idx].value;
        match &nodes[idx].op {
            Op::Input | Op::Param(_) => {}
            Op::Add(a, b) => {
                self.unary(*a, go, |g| g);
                self.unary(*b, go, |g| g);
            }
            Op::Sub(a, b) => {
                self.unary(*a, go, |g| g);
                self.unary(*b, go, |g| -g);
            }
            Op::Mul(a, b) => {
                self.binary(*a, go, value(b), |g, bv| g * bv);
                self.binary(*b, go, value(a), |g, av| g * av);
            }
            Op::Scale(a, c) => self.unary(*a, go, |g| g * c),
            Op::AddScalar(a) => self.unary(*a, go, |g| g),
            Op::AddRowBroadcast(m, bias) => {
                self.unary(*m, go, |g| g);
                // Bias gradient: column sums of go.
                self.accumulate(*bias, |db, _| {
                    db.fill_zero();
                    for row in go.iter_rows() {
                        for (d, &v) in db.as_mut_slice().iter_mut().zip(row) {
                            *d += v;
                        }
                    }
                });
            }
            Op::MatMul(a, b) => {
                let (av, bv) = (value(a), value(b));
                self.accumulate(*a, |d, gemm| gemm.matmul_a_bt_into(go, bv, d));
                self.accumulate(*b, |d, gemm| gemm.matmul_at_b_into(av, go, d));
            }
            Op::Relu(a) => self.binary(*a, go, value(a), |g, x| if x > 0.0 { g } else { 0.0 }),
            Op::Elu(a, alpha) => {
                let x = value(a);
                self.accumulate(*a, |d, _| {
                    let out = d.as_mut_slice().iter_mut();
                    let inputs = go.as_slice().iter().zip(x.as_slice()).zip(y.as_slice());
                    for (o, ((&g, &xv), &yv)) in out.zip(inputs) {
                        *o = if xv > 0.0 { g } else { g * (yv + alpha) };
                    }
                });
            }
            Op::Sigmoid(a) => self.binary(*a, go, y, |g, yv| g * yv * (1.0 - yv)),
            Op::Tanh(a) => self.binary(*a, go, y, |g, yv| g * (1.0 - yv * yv)),
            Op::Square(a) => self.binary(*a, go, value(a), |g, xv| 2.0 * g * xv),
            Op::Abs(a) => self.binary(*a, go, value(a), |g, xv| g * sign0(xv)),
            Op::Exp(a) => self.binary(*a, go, y, |g, yv| g * yv),
            Op::Sum(a) => {
                let s = go[(0, 0)];
                self.accumulate(*a, |d, _| d.as_mut_slice().fill(s));
            }
            Op::Mean(a) => {
                let n = value(a).len().max(1) as f64;
                let s = go[(0, 0)] / n;
                self.accumulate(*a, |d, _| d.as_mut_slice().fill(s));
            }
            Op::RowSum(a) => {
                self.accumulate(*a, |d, _| {
                    for i in 0..d.rows() {
                        d.row_mut(i).fill(go[(i, 0)]);
                    }
                });
            }
            Op::RowL2Normalize(a) => {
                let x = value(a);
                self.accumulate(*a, |da, _| {
                    da.fill_zero();
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
                });
            }
            Op::ColL2Normalize(a) => {
                let x = value(a);
                // Per column: d = (g - y (y·g)) / norm, each sum taken
                // down the rows.
                self.accumulate(*a, |da, _| {
                    for j in 0..x.cols() {
                        let norm = col_norm(x, j);
                        let dot = (0..x.rows()).fold(0.0, |s, i| s + y[(i, j)] * go[(i, j)]);
                        for i in 0..x.rows() {
                            da[(i, j)] = if norm > NORM_EPS {
                                (go[(i, j)] - y[(i, j)] * dot) / norm
                            } else {
                                0.0
                            };
                        }
                    }
                });
            }
            Op::SelectRows(a, range) => {
                let indices = &self.links[range.clone()];
                self.accumulate(*a, |da, _| {
                    da.fill_zero();
                    for (k, &src) in indices.iter().enumerate() {
                        for (d, &g) in da.row_mut(src).iter_mut().zip(go.row(k)) {
                            *d += g;
                        }
                    }
                });
            }
            Op::ConcatRows(a, b) => {
                let top = value(a).len();
                let (ga, gb) = go.as_slice().split_at(top);
                self.accumulate(*a, |d, _| d.as_mut_slice().copy_from_slice(ga));
                self.accumulate(*b, |d, _| d.as_mut_slice().copy_from_slice(gb));
            }
            Op::Custom { inputs, op } => {
                let inputs = &self.links[inputs.clone()];
                let in_values: Vec<&Matrix> = inputs.iter().map(|&i| &nodes[i].value).collect();
                let deltas = op.backward(&in_values, y, go);
                assert_eq!(
                    deltas.len(),
                    inputs.len(),
                    "custom op '{}' returned {} gradients for {} inputs",
                    op.name(),
                    deltas.len(),
                    inputs.len()
                );
                for (&inp, delta) in inputs.iter().zip(deltas) {
                    assert_eq!(
                        delta.shape(),
                        nodes[inp].value.shape(),
                        "custom op '{}': gradient shape mismatch",
                        op.name()
                    );
                    let src = delta.as_slice();
                    self.accumulate(NodeId(inp), |d, _| d.as_mut_slice().copy_from_slice(src));
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
        let grads = g.backward(loss);
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
        let mut g = Graph::new();
        let (params, x, loss) = two_layer_on(&mut g, tracked);
        (params, g, x, loss)
    }

    /// [`two_layer`] on a caller's tape.
    fn two_layer_on(g: &mut Graph, tracked: bool) -> (Vec<ParamId>, NodeId, NodeId) {
        let mut store = ParamStore::new();
        let w1 = store.add(
            "w1",
            Matrix::from_fn(5, 4, |i, j| ((i * 4 + j) as f64 * 0.7).sin()),
        );
        let b1 = store.add("b1", Matrix::from_fn(1, 4, |_, j| 0.1 * j as f64));
        let w2 = store.add("w2", Matrix::from_fn(4, 1, |i, _| (i as f64 * 1.3).cos()));
        let x = Matrix::from_fn(6, 5, |i, j| ((i * 5 + j) as f64 * 0.37).cos());
        let mask = Matrix::from_fn(6, 1, |i, _| (i % 2) as f64);
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
        (vec![w1, b1, w2], xin, loss)
    }

    #[test]
    fn plain_input_gets_no_gradient() {
        let (_, mut g, x, loss) = two_layer(false);
        let grads = g.backward(loss);
        assert!(grads.node_grad(x).is_none());
        let (_, mut g, x, loss) = two_layer(true);
        let grads = g.backward(loss);
        assert_eq!(grads.node_grad(x).map(Matrix::shape), Some((6, 5)));
    }

    #[test]
    fn skipping_input_gradients_leaves_param_gradients_bitwise_unchanged() {
        let (params, mut g, _, loss) = two_layer(false);
        let skipped = g.backward(loss);
        let (_, mut g, _, loss) = two_layer(true);
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

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_reset_tape_reproduces_a_fresh_one_bitwise() {
        let (params, mut fresh, x, loss) = two_layer(true);
        let want: Vec<Vec<u64>> = {
            let grads = fresh.backward(loss);
            let mut all: Vec<Vec<u64>> = params
                .iter()
                .map(|&p| bits(grads.param_grad(p).unwrap()))
                .collect();
            all.push(bits(grads.node_grad(x).unwrap()));
            all
        };
        let mut g = Graph::new();
        for round in 0..3 {
            // Alternate with an unrelated tape so the pool's buffers change
            // hands before the rebuild.
            g.reset();
            let w = g.input_fn(9, 2, |i, j| (i * 2 + j) as f64);
            let s = g.square(w);
            g.sum(s);
            g.reset();
            let (params, x, loss) = two_layer_on(&mut g, true);
            assert_eq!(g.len(), fresh.len());
            let grads = g.backward(loss);
            let mut got: Vec<Vec<u64>> = params
                .iter()
                .map(|&p| bits(grads.param_grad(p).unwrap()))
                .collect();
            got.push(bits(grads.node_grad(x).unwrap()));
            assert_eq!(got, want, "round {round}");
            assert!(grads.param_grad(ParamId(9)).is_none());
        }
    }

    #[test]
    fn backward_twice_gives_the_same_gradients() {
        let (params, mut g, _, loss) = two_layer(false);
        let first: Vec<Vec<u64>> = params
            .iter()
            .map(|&p| bits(g.backward(loss).param_grad(p).unwrap()))
            .collect();
        let again: Vec<Vec<u64>> = params
            .iter()
            .map(|&p| bits(g.backward(loss).param_grad(p).unwrap()))
            .collect();
        assert_eq!(first, again);
    }
}
