//! Dynamic computation graph (tape).
//!
//! A fresh `Graph` is built for every training step: leaves are data
//! [`Graph::input`]s and [`Graph::param`]s (copied in from the
//! [`ParamStore`]), interior nodes are created by the op methods, and
//! [`Graph::backward`](crate::backward) walks the tape in reverse. Node ids
//! increase in topological order by construction.

use crate::custom::CustomOp;
use crate::params::{ParamId, ParamStore};
use cerl_math::special::sigmoid;
use cerl_math::{matmul, Matrix};

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index in the tape.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Operation recorded on the tape.
pub(crate) enum Op {
    /// Data leaf (no gradient).
    Input,
    /// Trainable leaf; gradients accumulate per [`ParamId`].
    Param(ParamId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Scale(NodeId, f64),
    AddScalar(NodeId),
    /// `(n×d) + (1×d)` row-broadcast (bias add).
    AddRowBroadcast(NodeId, NodeId),
    MatMul(NodeId, NodeId),
    Relu(NodeId),
    Elu(NodeId, f64),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Square(NodeId),
    Abs(NodeId),
    Exp(NodeId),
    /// Sum of all entries → 1×1.
    Sum(NodeId),
    /// Mean of all entries → 1×1.
    Mean(NodeId),
    /// Row sums: n×d → n×1.
    RowSum(NodeId),
    /// Normalize each row to unit L2 norm (zero rows stay zero).
    RowL2Normalize(NodeId),
    /// Normalize each column to unit L2 norm (zero columns stay zero).
    ColL2Normalize(NodeId),
    /// Gather rows by index (repeats allowed).
    SelectRows(NodeId, Vec<usize>),
    /// Stack rows of the first input on top of the second.
    ConcatRows(NodeId, NodeId),
    /// Externally defined op (see [`CustomOp`]).
    Custom {
        inputs: Vec<NodeId>,
        op: Box<dyn CustomOp>,
    },
}

pub(crate) struct Node {
    pub(crate) value: Matrix,
    pub(crate) op: Op,
    pub(crate) requires_grad: bool,
}

/// Dynamic computation tape.
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
}

/// Threshold below which a vector is treated as zero during normalization.
pub(crate) const NORM_EPS: f64 = 1e-12;

impl Graph {
    /// Empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow the value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Scalar value of a 1×1 node.
    ///
    /// # Panics
    /// If the node is not 1×1.
    pub fn scalar(&self, id: NodeId) -> f64 {
        let v = self.value(id);
        assert_eq!(
            v.shape(),
            (1, 1),
            "scalar: node is {:?}, not 1x1",
            v.shape()
        );
        v[(0, 0)]
    }

    fn push(&mut self, value: Matrix, op: Op, requires_grad: bool) -> NodeId {
        debug_assert!(
            value.all_finite(),
            "non-finite value produced by {}",
            op_name(&op)
        );
        self.nodes.push(Node {
            value,
            op,
            requires_grad,
        });
        NodeId(self.nodes.len() - 1)
    }

    fn rg(&self, id: NodeId) -> bool {
        self.nodes[id.0].requires_grad
    }

    // ---- leaves ------------------------------------------------------

    /// Data leaf. [`Graph::backward`] computes no gradient for it, nor for
    /// nodes computed from inputs alone; use [`Graph::input_with_grad`]
    /// when the gradient w.r.t. the data is wanted.
    pub fn input(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Input, false)
    }

    /// Data leaf that participates in gradient computation (used by
    /// `cerl-ot` tests and representation-space analyses).
    pub fn input_with_grad(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Input, true)
    }

    /// Trainable leaf: copies the parameter's current value onto the tape.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        self.push(store.value(id).clone(), Op::Param(id), true)
    }

    // ---- binary elementwise ------------------------------------------

    /// Elementwise sum (same shapes).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).add(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Add(a, b), rg)
    }

    /// Elementwise difference (same shapes).
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).sub(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Sub(a, b), rg)
    }

    /// Hadamard product (same shapes).
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).hadamard(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Mul(a, b), rg)
    }

    /// Multiply every entry by the constant `c`.
    pub fn scale(&mut self, a: NodeId, c: f64) -> NodeId {
        let v = self.value(a).scale(c);
        let rg = self.rg(a);
        self.push(v, Op::Scale(a, c), rg)
    }

    /// Add the constant `c` to every entry.
    pub fn add_scalar(&mut self, a: NodeId, c: f64) -> NodeId {
        let v = self.value(a).map(|x| x + c);
        let rg = self.rg(a);
        self.push(v, Op::AddScalar(a), rg)
    }

    /// `(n×d) + (1×d)` bias broadcast over rows.
    pub fn add_row_broadcast(&mut self, m: NodeId, bias: NodeId) -> NodeId {
        let (mv, bv) = (self.value(m), self.value(bias));
        assert_eq!(bv.rows(), 1, "add_row_broadcast: bias must be 1×d");
        assert_eq!(mv.cols(), bv.cols(), "add_row_broadcast: width mismatch");
        let mut v = mv.clone();
        for i in 0..v.rows() {
            let row = v.row_mut(i);
            for (x, &b) in row.iter_mut().zip(bv.row(0)) {
                *x += b;
            }
        }
        let rg = self.rg(m) || self.rg(bias);
        self.push(v, Op::AddRowBroadcast(m, bias), rg)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = matmul(self.value(a), self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::MatMul(a, b), rg)
    }

    // ---- unary elementwise -------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x.max(0.0));
        let rg = self.rg(a);
        self.push(v, Op::Relu(a), rg)
    }

    /// Exponential linear unit with slope `alpha` on the negative side.
    pub fn elu(&mut self, a: NodeId, alpha: f64) -> NodeId {
        let v = self
            .value(a)
            .map(|x| if x > 0.0 { x } else { alpha * (x.exp() - 1.0) });
        let rg = self.rg(a);
        self.push(v, Op::Elu(a, alpha), rg)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(sigmoid);
        let rg = self.rg(a);
        self.push(v, Op::Sigmoid(a), rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f64::tanh);
        let rg = self.rg(a);
        self.push(v, Op::Tanh(a), rg)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x * x);
        let rg = self.rg(a);
        self.push(v, Op::Square(a), rg)
    }

    /// Elementwise absolute value (subgradient 0 at 0).
    pub fn abs(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f64::abs);
        let rg = self.rg(a);
        self.push(v, Op::Abs(a), rg)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f64::exp);
        let rg = self.rg(a);
        self.push(v, Op::Exp(a), rg)
    }

    // ---- reductions ---------------------------------------------------

    /// Sum of all entries → 1×1.
    pub fn sum(&mut self, a: NodeId) -> NodeId {
        let v = Matrix::filled(1, 1, self.value(a).sum());
        let rg = self.rg(a);
        self.push(v, Op::Sum(a), rg)
    }

    /// Mean of all entries → 1×1 (0 for an empty input).
    pub fn mean(&mut self, a: NodeId) -> NodeId {
        let v = Matrix::filled(1, 1, self.value(a).mean());
        let rg = self.rg(a);
        self.push(v, Op::Mean(a), rg)
    }

    /// Row sums: n×d → n×1.
    pub fn row_sum(&mut self, a: NodeId) -> NodeId {
        let av = self.value(a);
        let v = Matrix::from_fn(av.rows(), 1, |i, _| av.row(i).iter().sum());
        let rg = self.rg(a);
        self.push(v, Op::RowSum(a), rg)
    }

    // ---- normalizations -----------------------------------------------

    /// Normalize each row to unit L2 norm; rows with norm below `1e-12`
    /// are output as zero.
    pub fn row_l2_normalize(&mut self, a: NodeId) -> NodeId {
        let av = self.value(a);
        let mut v = av.clone();
        for i in 0..v.rows() {
            let n = cerl_math::norms::l2_norm(v.row(i));
            let row = v.row_mut(i);
            if n > NORM_EPS {
                row.iter_mut().for_each(|x| *x /= n);
            } else {
                row.iter_mut().for_each(|x| *x = 0.0);
            }
        }
        let rg = self.rg(a);
        self.push(v, Op::RowL2Normalize(a), rg)
    }

    /// Normalize each column to unit L2 norm; columns with norm below
    /// `1e-12` are output as zero.
    pub fn col_l2_normalize(&mut self, a: NodeId) -> NodeId {
        let av = self.value(a);
        let (r, c) = av.shape();
        let mut norms = vec![0.0; c];
        for i in 0..r {
            for (j, &x) in av.row(i).iter().enumerate() {
                norms[j] += x * x;
            }
        }
        norms.iter_mut().for_each(|n| *n = n.sqrt());
        let mut v = av.clone();
        for i in 0..r {
            let row = v.row_mut(i);
            for (j, x) in row.iter_mut().enumerate() {
                if norms[j] > NORM_EPS {
                    *x /= norms[j];
                } else {
                    *x = 0.0;
                }
            }
        }
        let rg = self.rg(a);
        self.push(v, Op::ColL2Normalize(a), rg)
    }

    // ---- shape ops ------------------------------------------------------

    /// Gather rows by index (repeats allowed).
    pub fn select_rows(&mut self, a: NodeId, indices: &[usize]) -> NodeId {
        let v = self.value(a).select_rows(indices);
        let rg = self.rg(a);
        self.push(v, Op::SelectRows(a, indices.to_vec()), rg)
    }

    /// Stack rows: `a` on top of `b` (same column count).
    pub fn concat_rows(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).vstack(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::ConcatRows(a, b), rg)
    }

    // ---- extension -----------------------------------------------------

    /// Insert an externally defined differentiable op.
    pub fn custom(&mut self, inputs: &[NodeId], mut op: Box<dyn CustomOp>) -> NodeId {
        let in_values: Vec<&Matrix> = inputs.iter().map(|&i| self.value(i)).collect();
        let value = op.forward(&in_values);
        let rg = inputs.iter().any(|&i| self.rg(i));
        self.push(
            value,
            Op::Custom {
                inputs: inputs.to_vec(),
                op,
            },
            rg,
        )
    }
}

pub(crate) fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Input => "Input",
        Op::Param(_) => "Param",
        Op::Add(..) => "Add",
        Op::Sub(..) => "Sub",
        Op::Mul(..) => "Mul",
        Op::Scale(..) => "Scale",
        Op::AddScalar(..) => "AddScalar",
        Op::AddRowBroadcast(..) => "AddRowBroadcast",
        Op::MatMul(..) => "MatMul",
        Op::Relu(_) => "Relu",
        Op::Elu(..) => "Elu",
        Op::Sigmoid(_) => "Sigmoid",
        Op::Tanh(_) => "Tanh",
        Op::Square(_) => "Square",
        Op::Abs(_) => "Abs",
        Op::Exp(_) => "Exp",
        Op::Sum(_) => "Sum",
        Op::Mean(_) => "Mean",
        Op::RowSum(_) => "RowSum",
        Op::RowL2Normalize(_) => "RowL2Normalize",
        Op::ColL2Normalize(_) => "ColL2Normalize",
        Op::SelectRows(..) => "SelectRows",
        Op::ConcatRows(..) => "ConcatRows",
        Op::Custom { op, .. } => op.name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values() {
        let mut g = Graph::new();
        let a = g.input(Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]));
        let b = g.input(Matrix::from_vec(1, 3, vec![0.5, 0.5, 0.5]));

        let s = g.add(a, b);
        assert_eq!(g.value(s).as_slice(), &[1.5, -1.5, 3.5]);

        let d = g.sub(a, b);
        assert_eq!(g.value(d).as_slice(), &[0.5, -2.5, 2.5]);

        let m = g.mul(a, b);
        assert_eq!(g.value(m).as_slice(), &[0.5, -1.0, 1.5]);

        let sc = g.scale(a, 2.0);
        assert_eq!(g.value(sc).as_slice(), &[2.0, -4.0, 6.0]);

        let r = g.relu(a);
        assert_eq!(g.value(r).as_slice(), &[1.0, 0.0, 3.0]);

        let q = g.square(a);
        assert_eq!(g.value(q).as_slice(), &[1.0, 4.0, 9.0]);

        let ab = g.abs(a);
        assert_eq!(g.value(ab).as_slice(), &[1.0, 2.0, 3.0]);

        let sm = g.sum(a);
        assert_eq!(g.scalar(sm), 2.0);

        let mn = g.mean(a);
        assert!((g.scalar(mn) - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn matmul_and_bias() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let w = g.input(Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0],
            vec![0.0, 1.0, 1.0],
        ]));
        let b = g.input(Matrix::from_vec(1, 3, vec![10.0, 20.0, 30.0]));
        let xw = g.matmul(x, w);
        assert_eq!(g.value(xw).row(0), &[1.0, 2.0, 3.0]);
        let y = g.add_row_broadcast(xw, b);
        assert_eq!(g.value(y).row(0), &[11.0, 22.0, 33.0]);
        assert_eq!(g.value(y).row(1), &[13.0, 24.0, 37.0]);
    }

    #[test]
    fn normalizations() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0]]));
        let rn = g.row_l2_normalize(x);
        assert!((g.value(rn)[(0, 0)] - 0.6).abs() < 1e-15);
        assert_eq!(g.value(rn).row(1), &[0.0, 0.0]);

        let y = g.input(Matrix::from_rows(&[vec![3.0, 0.0], vec![4.0, 0.0]]));
        let cn = g.col_l2_normalize(y);
        assert!((g.value(cn)[(0, 0)] - 0.6).abs() < 1e-15);
        assert!((g.value(cn)[(1, 0)] - 0.8).abs() < 1e-15);
        assert_eq!(g.value(cn)[(0, 1)], 0.0);
    }

    #[test]
    fn select_and_concat() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]));
        let s = g.select_rows(x, &[2, 0]);
        assert_eq!(g.value(s).as_slice(), &[3.0, 1.0]);
        let c = g.concat_rows(x, s);
        assert_eq!(g.value(c).as_slice(), &[1.0, 2.0, 3.0, 3.0, 1.0]);
    }

    #[test]
    fn requires_grad_propagates() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::identity(2));
        let mut g = Graph::new();
        let x = g.input(Matrix::identity(2));
        let p = g.param(&store, w);
        let xy = g.matmul(x, p);
        let no_grad = g.add(x, x);
        assert!(g.rg(xy));
        assert!(!g.rg(no_grad));
    }

    #[test]
    #[should_panic(expected = "not 1x1")]
    fn scalar_requires_1x1() {
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(2, 2));
        let _ = g.scalar(x);
    }
}
