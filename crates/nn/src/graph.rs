//! Reverse-mode autograd over a flat operation tape.
//!
//! Each forward pass builds a fresh [`Graph`]; [`Graph::cross_entropy_backward`]
//! seeds the loss gradient and walks the tape in reverse, accumulating
//! parameter gradients into the shared [`ParamStore`]. Ops cover exactly what
//! the transformer and GRU need; every backward rule is verified against
//! finite differences in the test suite.

use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a node in the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Matmul {
        a: usize,
        b: usize,
        transpose_b: bool,
    },
    Add {
        a: usize,
        b: usize,
    },
    AddRowBroadcast {
        a: usize,
        row: usize,
    },
    Hadamard {
        a: usize,
        b: usize,
    },
    Scale {
        a: usize,
        s: f32,
    },
    AddScalar {
        a: usize,
    },
    Relu {
        a: usize,
    },
    Tanh {
        a: usize,
    },
    Sigmoid {
        a: usize,
    },
    SoftmaxRows {
        a: usize,
    },
    AddConst {
        a: usize,
    },
    LayerNorm {
        a: usize,
        gain: usize,
        bias: usize,
        cache: Vec<(f32, f32)>,
    },
    Embed {
        table: usize,
        ids: Vec<usize>,
    },
    ConcatCols {
        a: usize,
        b: usize,
    },
    ConcatRows {
        parts: Vec<usize>,
    },
}

struct Node {
    op: Op,
    value: Tensor,
    param: Option<ParamId>,
}

/// An autograd tape bound to a parameter store.
pub struct Graph<'p> {
    store: &'p mut ParamStore,
    nodes: Vec<Node>,
}

impl<'p> Graph<'p> {
    /// Starts a fresh tape over `store`.
    pub fn new(store: &'p mut ParamStore) -> Self {
        vega_obs::global().counter_add("nn.forward_passes", 1);
        Graph {
            store,
            nodes: Vec::new(),
        }
    }

    fn push(&mut self, op: Op, value: Tensor) -> NodeId {
        self.nodes.push(Node {
            op,
            value,
            param: None,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// The value computed at a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Loads a parameter onto the tape (gradients flow back to the store).
    pub fn param(&mut self, id: ParamId) -> NodeId {
        let value = self.store.value(id).clone();
        self.nodes.push(Node {
            op: Op::Leaf,
            value,
            param: Some(id),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Loads a constant tensor (no gradient).
    pub fn constant(&mut self, t: Tensor) -> NodeId {
        self.push(Op::Leaf, t)
    }

    /// `a · b`, optionally with `b` transposed.
    pub fn matmul(&mut self, a: NodeId, b: NodeId, transpose_b: bool) -> NodeId {
        let v = self.nodes[a.0]
            .value
            .matmul(&self.nodes[b.0].value, transpose_b);
        self.push(
            Op::Matmul {
                a: a.0,
                b: b.0,
                transpose_b,
            },
            v,
        )
    }

    /// `a + b` elementwise.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        self.push(Op::Add { a: a.0, b: b.0 }, v)
    }

    /// `a + row` with `row` broadcast over rows (bias add).
    pub fn add_row_broadcast(&mut self, a: NodeId, row: NodeId) -> NodeId {
        let v = self.nodes[a.0]
            .value
            .add_row_broadcast(&self.nodes[row.0].value);
        self.push(Op::AddRowBroadcast { a: a.0, row: row.0 }, v)
    }

    /// Elementwise product.
    pub fn hadamard(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.hadamard(&self.nodes[b.0].value);
        self.push(Op::Hadamard { a: a.0, b: b.0 }, v)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let v = self.nodes[a.0].value.scale(s);
        self.push(Op::Scale { a: a.0, s }, v)
    }

    /// `a + s` elementwise (scalar shift; used for `1 - z` as `-z + 1`).
    pub fn add_scalar(&mut self, a: NodeId, s: f32) -> NodeId {
        let src = &self.nodes[a.0].value;
        let v = Tensor::from_vec(
            src.rows,
            src.cols,
            src.as_slice().iter().map(|x| x + s).collect(),
        );
        self.push(Op::AddScalar { a: a.0 }, v)
    }

    /// ReLU.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let src = &self.nodes[a.0].value;
        let v = Tensor::from_vec(
            src.rows,
            src.cols,
            src.as_slice().iter().map(|x| x.max(0.0)).collect(),
        );
        self.push(Op::Relu { a: a.0 }, v)
    }

    /// tanh.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let src = &self.nodes[a.0].value;
        let v = Tensor::from_vec(
            src.rows,
            src.cols,
            src.as_slice().iter().map(|x| x.tanh()).collect(),
        );
        self.push(Op::Tanh { a: a.0 }, v)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let src = &self.nodes[a.0].value;
        let v = Tensor::from_vec(
            src.rows,
            src.cols,
            src.as_slice()
                .iter()
                .map(|x| 1.0 / (1.0 + (-x).exp()))
                .collect(),
        );
        self.push(Op::Sigmoid { a: a.0 }, v)
    }

    /// Row-wise softmax (attention weights).
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.softmax_rows();
        self.push(Op::SoftmaxRows { a: a.0 }, v)
    }

    /// Adds a constant tensor (e.g. a causal attention mask); no gradient
    /// flows into the constant.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_const(&mut self, a: NodeId, c: &Tensor) -> NodeId {
        let v = self.nodes[a.0].value.add(c);
        self.push(Op::AddConst { a: a.0 }, v)
    }

    /// Row-wise layer normalization with learned gain/bias (1×d each).
    ///
    /// The forward math is [`crate::kernel::layer_norm_row`] — the same code
    /// the decode fast path runs — which hands back the per-row `(mean, std)`
    /// this op caches for backward.
    pub fn layer_norm(&mut self, a: NodeId, gain: NodeId, bias: NodeId) -> NodeId {
        let x = &self.nodes[a.0].value;
        let g = &self.nodes[gain.0].value;
        let b = &self.nodes[bias.0].value;
        let mut out = Tensor::zeros(x.rows, x.cols);
        let mut cache = Vec::with_capacity(x.rows);
        let (gs, bs) = (g.as_slice(), b.as_slice());
        for r in 0..x.rows {
            let stats = crate::kernel::layer_norm_row(x.row(r), gs, bs, out.row_mut(r));
            cache.push(stats);
        }
        self.push(
            Op::LayerNorm {
                a: a.0,
                gain: gain.0,
                bias: bias.0,
                cache,
            },
            out,
        )
    }

    /// Gathers embedding rows for `ids` from `table`.
    pub fn embed(&mut self, table: NodeId, ids: &[usize]) -> NodeId {
        let t = &self.nodes[table.0].value;
        let mut out = Tensor::zeros(ids.len(), t.cols);
        for (r, &id) in ids.iter().enumerate() {
            out.row_mut(r).copy_from_slice(t.row(id));
        }
        self.push(
            Op::Embed {
                table: table.0,
                ids: ids.to_vec(),
            },
            out,
        )
    }

    /// Concatenates two equal-row tensors along columns (GRU gate input).
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(ta.rows, tb.rows, "concat rows");
        let mut out = Tensor::zeros(ta.rows, ta.cols + tb.cols);
        for r in 0..ta.rows {
            out.row_mut(r)[..ta.cols].copy_from_slice(ta.row(r));
            out.row_mut(r)[ta.cols..].copy_from_slice(tb.row(r));
        }
        self.push(Op::ConcatCols { a: a.0, b: b.0 }, out)
    }

    /// Stacks tensors with equal column counts along rows (per-step logits
    /// into one matrix).
    ///
    /// # Panics
    /// Panics if `parts` is empty or column counts differ.
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let cols = self.nodes[parts[0].0].value.cols;
        let total: usize = parts.iter().map(|p| self.nodes[p.0].value.rows).sum();
        let mut out = Tensor::zeros(total, cols);
        let mut r = 0;
        for p in parts {
            let t = &self.nodes[p.0].value;
            assert_eq!(t.cols, cols, "concat_rows width");
            for i in 0..t.rows {
                out.row_mut(r).copy_from_slice(t.row(i));
                r += 1;
            }
        }
        self.push(
            Op::ConcatRows {
                parts: parts.iter().map(|p| p.0).collect(),
            },
            out,
        )
    }

    /// Softmax cross-entropy over `logits` rows against `targets`, then full
    /// backward pass; parameter gradients are accumulated into the store.
    /// Returns the mean loss.
    ///
    /// # Panics
    /// Panics if `targets.len()` differs from the logits row count.
    pub fn cross_entropy_backward(&mut self, logits: NodeId, targets: &[usize]) -> f32 {
        let lt = &self.nodes[logits.0].value;
        assert_eq!(lt.rows, targets.len(), "targets per logits row");
        let probs = lt.softmax_rows();
        let n = targets.len() as f32;
        let mut loss = 0.0f32;
        let mut grad = probs.clone();
        for (r, &t) in targets.iter().enumerate() {
            loss -= probs.at(r, t).max(1e-12).ln();
            *grad.at_mut(r, t) -= 1.0;
        }
        for v in grad.as_mut_slice() {
            *v /= n;
        }
        self.backward(logits, grad);
        loss / n
    }

    /// The softmax probabilities of a logits node (for inference).
    pub fn probs(&self, logits: NodeId) -> Tensor {
        self.nodes[logits.0].value.softmax_rows()
    }

    /// Runs reverse-mode accumulation from `seed_node` with gradient `seed`.
    pub fn backward(&mut self, seed_node: NodeId, seed: Tensor) {
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[seed_node.0] = Some(seed);
        for i in (0..self.nodes.len()).rev() {
            let Some(gy) = grads[i].take() else { continue };
            // Re-insert for param extraction at the end.
            let acc = |slot: &mut Option<Tensor>, add: Tensor| match slot {
                Some(t) => {
                    for (a, b) in t.as_mut_slice().iter_mut().zip(add.as_slice()) {
                        *a += b;
                    }
                }
                None => *slot = Some(add),
            };
            match &self.nodes[i].op {
                Op::Leaf => {
                    if let Some(pid) = self.nodes[i].param {
                        self.store.accumulate_grad(pid, &gy);
                    }
                    continue;
                }
                Op::Matmul { a, b, transpose_b } => {
                    let (a, b, tb) = (*a, *b, *transpose_b);
                    let (va, vb) = (&self.nodes[a].value, &self.nodes[b].value);
                    let (da, db) = if tb {
                        // C = A·Bᵀ: dA = dC·B ; dB = dCᵀ·A
                        (gy.matmul(vb, false), gy.transposed().matmul(va, false))
                    } else {
                        // C = A·B: dA = dC·Bᵀ ; dB = Aᵀ·dC
                        (
                            gy.matmul(&vb.transposed(), false),
                            va.transposed().matmul(&gy, false),
                        )
                    };
                    acc(&mut grads[a], da);
                    acc(&mut grads[b], db);
                }
                Op::Add { a, b } => {
                    let (a, b) = (*a, *b);
                    acc(&mut grads[a], gy.clone());
                    acc(&mut grads[b], gy);
                }
                Op::AddRowBroadcast { a, row } => {
                    let (a, row) = (*a, *row);
                    let mut drow = Tensor::zeros(1, gy.cols);
                    let ds = drow.as_mut_slice();
                    for r in 0..gy.rows {
                        for c in 0..gy.cols {
                            ds[c] += gy.at(r, c);
                        }
                    }
                    acc(&mut grads[a], gy);
                    acc(&mut grads[row], drow);
                }
                Op::Hadamard { a, b } => {
                    let (a, b) = (*a, *b);
                    let da = gy.hadamard(&self.nodes[b].value);
                    let db = gy.hadamard(&self.nodes[a].value);
                    acc(&mut grads[a], da);
                    acc(&mut grads[b], db);
                }
                Op::Scale { a, s } => {
                    let (a, s) = (*a, *s);
                    acc(&mut grads[a], gy.scale(s));
                }
                Op::AddScalar { a } | Op::AddConst { a } => {
                    let a = *a;
                    acc(&mut grads[a], gy);
                }
                Op::Relu { a } => {
                    let a = *a;
                    let mut dx = gy;
                    for (d, x) in dx
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[a].value.as_slice())
                    {
                        if *x <= 0.0 {
                            *d = 0.0;
                        }
                    }
                    acc(&mut grads[a], dx);
                }
                Op::Tanh { a } => {
                    let a = *a;
                    let y = &self.nodes[i].value;
                    let mut dx = gy;
                    for (d, yv) in dx.as_mut_slice().iter_mut().zip(y.as_slice()) {
                        *d *= 1.0 - yv * yv;
                    }
                    acc(&mut grads[a], dx);
                }
                Op::Sigmoid { a } => {
                    let a = *a;
                    let y = &self.nodes[i].value;
                    let mut dx = gy;
                    for (d, yv) in dx.as_mut_slice().iter_mut().zip(y.as_slice()) {
                        *d *= yv * (1.0 - yv);
                    }
                    acc(&mut grads[a], dx);
                }
                Op::SoftmaxRows { a } => {
                    let a = *a;
                    let y = &self.nodes[i].value;
                    let mut dx = Tensor::zeros(y.rows, y.cols);
                    let dxs = dx.as_mut_slice();
                    for r in 0..y.rows {
                        let dot: f32 = (0..y.cols).map(|c| gy.at(r, c) * y.at(r, c)).sum();
                        for c in 0..y.cols {
                            dxs[r * y.cols + c] = (gy.at(r, c) - dot) * y.at(r, c);
                        }
                    }
                    acc(&mut grads[a], dx);
                }
                Op::LayerNorm {
                    a,
                    gain,
                    bias,
                    cache,
                } => {
                    let (a, gain, bias) = (*a, *gain, *bias);
                    let cache = cache.clone();
                    let x = &self.nodes[a].value;
                    let g = &self.nodes[gain].value;
                    let d = x.cols as f32;
                    let mut dx = Tensor::zeros(x.rows, x.cols);
                    let mut dg = Tensor::zeros(1, x.cols);
                    let mut db = Tensor::zeros(1, x.cols);
                    let gs = g.as_slice();
                    let dxs = dx.as_mut_slice();
                    let dgs = dg.as_mut_slice();
                    let dbs = db.as_mut_slice();
                    for r in 0..x.rows {
                        let (mean, std) = cache[r];
                        // xhat and row reductions.
                        let mut sum_gdy = 0.0f32;
                        let mut sum_gdy_xhat = 0.0f32;
                        let mut xhat = vec![0.0f32; x.cols];
                        for c in 0..x.cols {
                            xhat[c] = (x.at(r, c) - mean) / std;
                            let gdy = gs[c] * gy.at(r, c);
                            sum_gdy += gdy;
                            sum_gdy_xhat += gdy * xhat[c];
                            dgs[c] += gy.at(r, c) * xhat[c];
                            dbs[c] += gy.at(r, c);
                        }
                        for c in 0..x.cols {
                            let gdy = gs[c] * gy.at(r, c);
                            dxs[r * x.cols + c] =
                                (gdy - sum_gdy / d - xhat[c] * sum_gdy_xhat / d) / std;
                        }
                    }
                    acc(&mut grads[a], dx);
                    acc(&mut grads[gain], dg);
                    acc(&mut grads[bias], db);
                }
                Op::Embed { table, ids } => {
                    let table = *table;
                    let ids = ids.clone();
                    let cols = gy.cols;
                    let t_rows = self.nodes[table].value.rows;
                    let mut dt = Tensor::zeros(t_rows, cols);
                    let dts = dt.as_mut_slice();
                    for (r, id) in ids.iter().enumerate() {
                        for c in 0..cols {
                            dts[id * cols + c] += gy.at(r, c);
                        }
                    }
                    acc(&mut grads[table], dt);
                }
                Op::ConcatCols { a, b } => {
                    let (a, b) = (*a, *b);
                    let ca = self.nodes[a].value.cols;
                    let cb = self.nodes[b].value.cols;
                    let mut da = Tensor::zeros(gy.rows, ca);
                    let mut db = Tensor::zeros(gy.rows, cb);
                    for r in 0..gy.rows {
                        da.row_mut(r).copy_from_slice(&gy.row(r)[..ca]);
                        db.row_mut(r).copy_from_slice(&gy.row(r)[ca..]);
                    }
                    acc(&mut grads[a], da);
                    acc(&mut grads[b], db);
                }
                Op::ConcatRows { parts } => {
                    let parts = parts.clone();
                    let mut r = 0;
                    for p in parts {
                        let rows = self.nodes[p].value.rows;
                        let mut dp = Tensor::zeros(rows, gy.cols);
                        for i in 0..rows {
                            dp.row_mut(i).copy_from_slice(gy.row(r));
                            r += 1;
                        }
                        acc(&mut grads[p], dp);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Init;

    /// Finite-difference check of d(loss)/d(param) for a builder closure.
    fn grad_check<F>(param_shape: (usize, usize), build: F)
    where
        F: Fn(&mut Graph<'_>, NodeId) -> (NodeId, Vec<usize>),
    {
        let mut store = ParamStore::new();
        let mut init = Init::new(11);
        let w = store.add("w", init.xavier(param_shape.0, param_shape.1));

        // Analytic gradient.
        {
            let mut g = Graph::new(&mut store);
            let wp = g.param(w);
            let (logits, targets) = build(&mut g, wp);
            g.cross_entropy_backward(logits, &targets);
        }
        let analytic = store.grad(w).clone();

        // Numeric gradient at a few entries.
        let eps = 1e-3f32;
        for &idx in &[0usize, param_shape.1 / 2, param_shape.0 * param_shape.1 - 1] {
            let orig = store.value(w).as_slice()[idx];
            let loss_at = |store: &mut ParamStore, v: f32| {
                store.value_mut(w).as_mut_slice()[idx] = v;
                let mut g = Graph::new(store);
                let wp = g.param(w);
                let (logits, targets) = build(&mut g, wp);
                // Compute loss without touching grads.
                let probs = g.probs(logits);
                let mut loss = 0.0f32;
                for (r, &t) in targets.iter().enumerate() {
                    loss -= probs.at(r, t).max(1e-12).ln();
                }
                loss / targets.len() as f32
            };
            let lp = loss_at(&mut store, orig + eps);
            let lm = loss_at(&mut store, orig - eps);
            store.value_mut(w).as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.as_slice()[idx];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + a.abs().max(numeric.abs())),
                "idx {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_check_linear_softmax() {
        grad_check((4, 5), |g, w| {
            let x = g.constant(Tensor::from_vec(
                3,
                4,
                (0..12).map(|i| (i as f32) * 0.1 - 0.5).collect(),
            ));
            let logits = g.matmul(x, w, false);
            (logits, vec![1, 4, 2])
        });
    }

    #[test]
    fn grad_check_through_relu_layernorm_softmaxrows() {
        grad_check((6, 6), |g, w| {
            let x = g.constant(Tensor::from_vec(
                4,
                6,
                (0..24).map(|i| ((i * 7 % 11) as f32) * 0.1 - 0.4).collect(),
            ));
            let h = g.matmul(x, w, false);
            let h = g.relu(h);
            let gain = g.constant(Tensor::from_vec(1, 6, vec![1.0; 6]));
            let bias = g.constant(Tensor::zeros(1, 6));
            let h = g.layer_norm(h, gain, bias);
            let att = g.matmul(h, h, true);
            let att = g.softmax_rows(att);
            let h2 = g.matmul(att, h, false);
            let logits = g.matmul(h2, w, true);
            (logits, vec![0, 2, 1, 3])
        });
    }

    #[test]
    fn grad_check_embedding_and_gates() {
        grad_check((8, 4), |g, w| {
            let ids = vec![1usize, 3, 5, 1];
            let e = g.embed(w, &ids);
            let z = g.sigmoid(e);
            let t = g.tanh(e);
            let h = g.hadamard(z, t);
            let one_minus = {
                let neg = g.scale(z, -1.0);
                g.add_scalar(neg, 1.0)
            };
            let h2 = g.hadamard(one_minus, e);
            let h = g.add(h, h2);
            let logits = g.matmul(h, w, true);
            (logits, vec![2, 0, 7, 4])
        });
    }

    #[test]
    fn grad_check_concat_cols() {
        grad_check((4, 3), |g, w| {
            let x = g.constant(Tensor::from_vec(
                2,
                4,
                vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.2, 0.0],
            ));
            let h = g.matmul(x, w, false);
            let hc = g.concat_cols(h, h);
            // Project the 2x6 concatenation straight to 2x4 logits.
            let proj = g.constant(Tensor::from_vec(
                6,
                4,
                (0..24).map(|i| (i as f32) * 0.05 - 0.3).collect(),
            ));
            let logits = g.matmul(hc, proj, false);
            (logits, vec![3, 1])
        });
    }

    #[test]
    fn cross_entropy_decreases_under_sgd_like_updates() {
        let mut store = ParamStore::new();
        let mut init = Init::new(5);
        let w = store.add("w", init.xavier(3, 4));
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            let mut g = Graph::new(&mut store);
            let wp = g.param(w);
            let x = g.constant(Tensor::from_vec(2, 3, vec![1., 0., -1., 0.5, 0.5, 0.]));
            let logits = g.matmul(x, wp, false);
            let loss = g.cross_entropy_backward(logits, &[2, 1]);
            store.adam_step(0.05);
            last = loss;
        }
        assert!(last < 0.1, "loss did not converge: {last}");
    }
}
