//! The autograd tape: eager forward evaluation with recorded operations and
//! reverse-mode backpropagation.
//!
//! Each training step builds a fresh [`Graph`], reads parameters from a
//! [`ParamStore`], composes operations (each returning a [`Var`] handle),
//! and calls [`Graph::backward`] on a scalar loss to obtain per-parameter
//! gradients.

use std::collections::HashMap;

use crate::backend::Kernels;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// Per-parameter gradients produced by [`Graph::backward`].
#[derive(Debug, Clone, Default)]
pub struct Gradients {
    by_param: HashMap<ParamId, Tensor>,
}

impl Gradients {
    /// Gradient for a parameter, if it participated in the loss.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.by_param.get(&id)
    }

    /// Iterates `(param, gradient)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.by_param.iter().map(|(&k, v)| (k, v))
    }

    /// Number of parameters with gradients.
    pub fn len(&self) -> usize {
        self.by_param.len()
    }

    /// Whether no gradients were produced.
    pub fn is_empty(&self) -> bool {
        self.by_param.is_empty()
    }

    /// Global L2 norm across all gradients.
    ///
    /// The per-tensor partial sums are combined in [`ParamId`] order:
    /// `HashMap` iteration order varies per instance, f32 addition is not
    /// associative, and this norm feeds the gradient-clip scale — an
    /// unordered sum would make training nondeterministic in the last ulp.
    pub fn global_norm(&self) -> f32 {
        let mut partial: Vec<(ParamId, f32)> = self
            .by_param
            .iter()
            .map(|(&id, g)| (id, g.data().iter().map(|&x| x * x).sum::<f32>()))
            .collect();
        partial.sort_unstable_by_key(|&(id, _)| id);
        partial.iter().map(|&(_, s)| s).sum::<f32>().sqrt()
    }

    /// Scales all gradients in place (used for clipping).
    pub fn scale(&mut self, factor: f32) {
        for g in self.by_param.values_mut() {
            *g = Kernels::GLOBAL.map(g, |x| x * factor);
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Param(ParamId),
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddRow(Var, Var),
    MulScalarVar(Var, Var),
    Transpose(Var),
    Gelu(Var),
    Tanh(Var),
    Sigmoid(Var),
    Exp(Var),
    SoftmaxRows(Var),
    MeanRows(Var),
    SumAll(Var),
    ConcatCols(Var, Var),
    ConcatRows(Vec<Var>),
    SliceCols(Var, usize, usize),
    GatherRows(Var, Vec<usize>),
    MulCol(Var, Var),
    L2NormalizeRows(Var),
    LayerNormRows(Var),
    SmoothL1(Var, Tensor),
    SmoothL1Weighted(Var, Tensor, Tensor),
    CrossEntropyRows(Var, Vec<usize>),
    CrossEntropyCols(Var, Vec<usize>),
}

#[derive(Debug, Clone)]
struct Node {
    op: Op,
    value: Tensor,
}

/// An autograd tape.
///
/// # Examples
///
/// ```
/// use moss_tensor::{Graph, ParamStore, Tensor};
///
/// let mut store = ParamStore::new();
/// let w = store.add("w", Tensor::from_rows(&[&[2.0]]));
/// let mut g = Graph::new();
/// let x = g.input(Tensor::from_rows(&[&[3.0]]));
/// let wv = g.param(w, &store);
/// let y = g.matmul(x, wv);
/// let loss = g.sum_all(y);
/// let grads = g.backward(loss);
/// // d(w·x)/dw = x = 3.
/// assert_eq!(grads.get(w).unwrap().get(0, 0), 3.0);
/// ```
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// An empty tape; its ops run on the global-pool [`Kernels`].
    pub fn new() -> Graph {
        Graph { nodes: Vec::new() }
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// A constant input (no gradient).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(Op::Leaf, t)
    }

    /// Reads a parameter's current value onto the tape; gradients will be
    /// accumulated for it during [`Graph::backward`].
    pub fn param(&mut self, id: ParamId, store: &ParamStore) -> Var {
        self.push(Op::Param(id), store.get(id).clone())
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = Kernels::GLOBAL.matmul(self.value(a), self.value(b));
        self.push(Op::MatMul(a, b), v)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = Kernels::GLOBAL.zip_map(self.value(a), self.value(b), |x, y| x + y);
        self.push(Op::Add(a, b), v)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = Kernels::GLOBAL.zip_map(self.value(a), self.value(b), |x, y| x - y);
        self.push(Op::Sub(a, b), v)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = Kernels::GLOBAL.zip_map(self.value(a), self.value(b), |x, y| x * y);
        self.push(Op::Mul(a, b), v)
    }

    /// Multiplication by a compile-time constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = Kernels::GLOBAL.map(self.value(a), |x| x * c);
        self.push(Op::Scale(a, c), v)
    }

    /// Adds a `1×d` row vector to every row of an `n×d` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `1×d`.
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let (n, d) = self.value(a).shape();
        assert_eq!(
            self.value(row).shape(),
            (1, d),
            "broadcast row must be 1×{d}"
        );
        let mut out = self.value(a).clone();
        for i in 0..n {
            for j in 0..d {
                let v = out.get(i, j) + self.value(row).get(0, j);
                out.set(i, j, v);
            }
        }
        self.push(Op::AddRow(a, row), out)
    }

    /// Multiplies a tensor by a learned `1×1` scalar variable.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not `1×1`.
    pub fn mul_scalar_var(&mut self, a: Var, s: Var) -> Var {
        assert_eq!(self.value(s).shape(), (1, 1), "scalar must be 1×1");
        let c = self.value(s).get(0, 0);
        let v = Kernels::GLOBAL.map(self.value(a), |x| x * c);
        self.push(Op::MulScalarVar(a, s), v)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        self.push(Op::Transpose(a), v)
    }

    /// GELU activation (tanh approximation).
    pub fn gelu(&mut self, a: Var) -> Var {
        let v = Kernels::GLOBAL.map(self.value(a), gelu);
        self.push(Op::Gelu(a), v)
    }

    /// Tanh activation.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = Kernels::GLOBAL.map(self.value(a), f32::tanh);
        self.push(Op::Tanh(a), v)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = Kernels::GLOBAL.map(self.value(a), sigmoid);
        self.push(Op::Sigmoid(a), v)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = Kernels::GLOBAL.map(self.value(a), f32::exp);
        self.push(Op::Exp(a), v)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = softmax_rows(self.value(a));
        self.push(Op::SoftmaxRows(a), v)
    }

    /// Mean over rows: `n×d → 1×d`.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let (n, d) = self.value(a).shape();
        let inv = 1.0 / n.max(1) as f32;
        let sums = Kernels::GLOBAL.col_sums(self.value(a));
        let out = Tensor::from_vec(sums.into_iter().map(|s| s * inv).collect(), 1, d);
        self.push(Op::MeanRows(a), out)
    }

    /// Sum of all elements → `1×1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::from_rows(&[&[Kernels::GLOBAL.sum(self.value(a))]]);
        self.push(Op::SumAll(a), v)
    }

    /// Horizontal concatenation `n×a ++ n×b → n×(a+b)`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (na, ca) = self.value(a).shape();
        let (nb, cb) = self.value(b).shape();
        assert_eq!(na, nb, "concat_cols row mismatch");
        let mut out = Tensor::zeros(na, ca + cb);
        for i in 0..na {
            for j in 0..ca {
                out.set(i, j, self.value(a).get(i, j));
            }
            for j in 0..cb {
                out.set(i, ca + j, self.value(b).get(i, j));
            }
        }
        self.push(Op::ConcatCols(a, b), out)
    }

    /// Vertical concatenation of several tensors sharing a column count.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts differ.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let out = Tensor::vstack(&tensors);
        self.push(Op::ConcatRows(parts.to_vec()), out)
    }

    /// Column slice `[start, start+len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the column count.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let (n, c) = self.value(a).shape();
        assert!(start + len <= c, "slice_cols out of range");
        let mut out = Tensor::zeros(n, len);
        for i in 0..n {
            for j in 0..len {
                out.set(i, j, self.value(a).get(i, start + j));
            }
        }
        self.push(Op::SliceCols(a, start, len), out)
    }

    /// Gathers rows by index (embedding lookup); backward scatter-adds.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let (n, d) = self.value(a).shape();
        let mut out = Tensor::zeros(indices.len(), d);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < n, "gather index {idx} out of range");
            for j in 0..d {
                out.set(i, j, self.value(a).get(idx, j));
            }
        }
        self.push(Op::GatherRows(a, indices.to_vec()), out)
    }

    /// Broadcast multiply of an `n×d` tensor by an `n×1` column vector.
    ///
    /// # Panics
    ///
    /// Panics if `col` is not `n×1`.
    pub fn mul_col(&mut self, a: Var, col: Var) -> Var {
        let (n, d) = self.value(a).shape();
        assert_eq!(
            self.value(col).shape(),
            (n, 1),
            "broadcast column must be {n}×1"
        );
        let mut out = self.value(a).clone();
        for i in 0..n {
            let c = self.value(col).get(i, 0);
            for j in 0..d {
                out.set(i, j, out.get(i, j) * c);
            }
        }
        self.push(Op::MulCol(a, col), out)
    }

    /// Row-wise L2 normalization (as in the paper's Fig. 6 pseudocode).
    pub fn l2_normalize_rows(&mut self, a: Var) -> Var {
        let v = l2_normalize_rows(self.value(a));
        self.push(Op::L2NormalizeRows(a), v)
    }

    /// Row-wise layer normalization (no affine; compose with
    /// [`Graph::mul`]/[`Graph::add_row`] for scale and shift).
    pub fn layer_norm_rows(&mut self, a: Var) -> Var {
        let v = layer_norm_rows(self.value(a));
        self.push(Op::LayerNormRows(a), v)
    }

    /// Smooth-L1 (Huber, β = 1) loss against a constant target, averaged
    /// over all elements → `1×1`. This is the paper's choice for the
    /// Etoggle, EAT, RrNdM and RNM losses.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn smooth_l1(&mut self, pred: Var, target: Tensor) -> Var {
        let diff = self.value(pred).zip_map(&target, |p, t| p - t);
        let loss = diff
            .data()
            .iter()
            .map(|&d| {
                if d.abs() < 1.0 {
                    0.5 * d * d
                } else {
                    d.abs() - 0.5
                }
            })
            .sum::<f32>()
            / diff.data().len().max(1) as f32;
        self.push(Op::SmoothL1(pred, target), Tensor::from_rows(&[&[loss]]))
    }

    /// Per-element weighted smooth-L1 against a constant target → `1×1`.
    /// Weights let tasks emphasize e.g. critical-path DFFs.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn smooth_l1_weighted(&mut self, pred: Var, target: Tensor, weights: Tensor) -> Var {
        assert_eq!(target.shape(), weights.shape(), "weights shape mismatch");
        let diff = self.value(pred).zip_map(&target, |p, t| p - t);
        let wsum: f32 = weights.data().iter().sum::<f32>().max(1e-12);
        let loss = diff
            .data()
            .iter()
            .zip(weights.data())
            .map(|(&d, &w)| {
                w * if d.abs() < 1.0 {
                    0.5 * d * d
                } else {
                    d.abs() - 0.5
                }
            })
            .sum::<f32>()
            / wsum;
        self.push(
            Op::SmoothL1Weighted(pred, target, weights),
            Tensor::from_rows(&[&[loss]]),
        )
    }

    /// Cross-entropy of row-softmax against integer labels, averaged → `1×1`.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the row count.
    pub fn cross_entropy_rows(&mut self, logits: Var, labels: &[usize]) -> Var {
        let (n, _) = self.value(logits).shape();
        assert_eq!(labels.len(), n, "one label per row");
        let sm = softmax_rows(self.value(logits));
        let loss = (0..n)
            .map(|i| -(sm.get(i, labels[i]).max(1e-12)).ln())
            .sum::<f32>()
            / n.max(1) as f32;
        self.push(
            Op::CrossEntropyRows(logits, labels.to_vec()),
            Tensor::from_rows(&[&[loss]]),
        )
    }

    /// Cross-entropy along *columns* (softmax down each column), as used by
    /// the symmetric CLIP-style RNC loss (paper Fig. 6, `axis=0`).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the column count.
    pub fn cross_entropy_cols(&mut self, logits: Var, labels: &[usize]) -> Var {
        let (_, c) = self.value(logits).shape();
        assert_eq!(labels.len(), c, "one label per column");
        let smt = softmax_rows(&self.value(logits).transpose());
        let loss = (0..c)
            .map(|j| -(smt.get(j, labels[j]).max(1e-12)).ln())
            .sum::<f32>()
            / c.max(1) as f32;
        self.push(
            Op::CrossEntropyCols(logits, labels.to_vec()),
            Tensor::from_rows(&[&[loss]]),
        )
    }

    /// Reverse-mode backpropagation from a scalar loss.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1×1`.
    pub fn backward(&mut self, loss: Var) -> Gradients {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        grads[loss.0] = Some(Tensor::from_rows(&[&[1.0]]));
        let mut out = Gradients::default();

        for i in (0..n).rev() {
            let Some(grad) = grads[i].take() else {
                continue;
            };
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf => {}
                Op::Param(id) => {
                    let entry = out
                        .by_param
                        .entry(id)
                        .or_insert_with(|| Tensor::zeros(grad.rows(), grad.cols()));
                    *entry = entry.zip_map(&grad, |a, b| a + b);
                }
                Op::MatMul(a, b) => {
                    let da = Kernels::GLOBAL.matmul_a_bt(&grad, &self.nodes[b.0].value);
                    let db = Kernels::GLOBAL.matmul_at_b(&self.nodes[a.0].value, &grad);
                    accumulate(&mut grads, a.0, da);
                    accumulate(&mut grads, b.0, db);
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads, a.0, grad.clone());
                    accumulate(&mut grads, b.0, grad);
                }
                Op::Sub(a, b) => {
                    accumulate(&mut grads, a.0, grad.clone());
                    accumulate(&mut grads, b.0, Kernels::GLOBAL.map(&grad, |x| -x));
                }
                Op::Mul(a, b) => {
                    let da = Kernels::GLOBAL.zip_map(&grad, &self.nodes[b.0].value, |g, y| g * y);
                    let db = Kernels::GLOBAL.zip_map(&grad, &self.nodes[a.0].value, |g, x| g * x);
                    accumulate(&mut grads, a.0, da);
                    accumulate(&mut grads, b.0, db);
                }
                Op::Scale(a, c) => {
                    accumulate(&mut grads, a.0, Kernels::GLOBAL.map(&grad, |x| x * c))
                }
                Op::AddRow(a, r) => {
                    accumulate(&mut grads, a.0, grad.clone());
                    let (gn, gd) = grad.shape();
                    let mut dr = Tensor::zeros(1, gd);
                    for ii in 0..gn {
                        for j in 0..gd {
                            dr.set(0, j, dr.get(0, j) + grad.get(ii, j));
                        }
                    }
                    accumulate(&mut grads, r.0, dr);
                }
                Op::MulScalarVar(a, s) => {
                    let c = self.nodes[s.0].value.get(0, 0);
                    accumulate(&mut grads, a.0, Kernels::GLOBAL.map(&grad, |x| x * c));
                    let prod = Kernels::GLOBAL.zip_map(&grad, &self.nodes[a.0].value, |g, x| g * x);
                    let ds = Kernels::GLOBAL.sum(&prod);
                    accumulate(&mut grads, s.0, Tensor::from_rows(&[&[ds]]));
                }
                Op::Transpose(a) => accumulate(&mut grads, a.0, grad.transpose()),
                Op::Gelu(a) => {
                    let dx = Kernels::GLOBAL
                        .zip_map(&grad, &self.nodes[a.0].value, |g, x| g * gelu_grad(x));
                    accumulate(&mut grads, a.0, dx);
                }
                Op::Tanh(a) => {
                    let dx = Kernels::GLOBAL
                        .zip_map(&grad, &self.nodes[i].value, |g, y| g * (1.0 - y * y));
                    accumulate(&mut grads, a.0, dx);
                }
                Op::Sigmoid(a) => {
                    let dx = Kernels::GLOBAL
                        .zip_map(&grad, &self.nodes[i].value, |g, y| g * y * (1.0 - y));
                    accumulate(&mut grads, a.0, dx);
                }
                Op::Exp(a) => {
                    let dx = Kernels::GLOBAL.zip_map(&grad, &self.nodes[i].value, |g, y| g * y);
                    accumulate(&mut grads, a.0, dx);
                }
                Op::SoftmaxRows(a) => {
                    let y = &self.nodes[i].value;
                    let (rn, rc) = y.shape();
                    let mut dx = Tensor::zeros(rn, rc);
                    for r in 0..rn {
                        let dot: f32 = (0..rc).map(|c| grad.get(r, c) * y.get(r, c)).sum();
                        for c in 0..rc {
                            dx.set(r, c, y.get(r, c) * (grad.get(r, c) - dot));
                        }
                    }
                    accumulate(&mut grads, a.0, dx);
                }
                Op::MeanRows(a) => {
                    let (an, ad) = self.nodes[a.0].value.shape();
                    let mut dx = Tensor::zeros(an, ad);
                    for r in 0..an {
                        for c in 0..ad {
                            dx.set(r, c, grad.get(0, c) / an.max(1) as f32);
                        }
                    }
                    accumulate(&mut grads, a.0, dx);
                }
                Op::SumAll(a) => {
                    let (an, ad) = self.nodes[a.0].value.shape();
                    let g = grad.get(0, 0);
                    accumulate(&mut grads, a.0, Tensor::full(an, ad, g));
                }
                Op::ConcatCols(a, b) => {
                    let (n_, ca) = self.nodes[a.0].value.shape();
                    let (_, cb) = self.nodes[b.0].value.shape();
                    let mut da = Tensor::zeros(n_, ca);
                    let mut db = Tensor::zeros(n_, cb);
                    for r in 0..n_ {
                        for c in 0..ca {
                            da.set(r, c, grad.get(r, c));
                        }
                        for c in 0..cb {
                            db.set(r, c, grad.get(r, ca + c));
                        }
                    }
                    accumulate(&mut grads, a.0, da);
                    accumulate(&mut grads, b.0, db);
                }
                Op::ConcatRows(parts) => {
                    let mut offset = 0;
                    for p in parts {
                        let (pn, pd) = self.nodes[p.0].value.shape();
                        let mut dp = Tensor::zeros(pn, pd);
                        for r in 0..pn {
                            for c in 0..pd {
                                dp.set(r, c, grad.get(offset + r, c));
                            }
                        }
                        accumulate(&mut grads, p.0, dp);
                        offset += pn;
                    }
                }
                Op::SliceCols(a, start, len) => {
                    let (an, ac) = self.nodes[a.0].value.shape();
                    let mut da = Tensor::zeros(an, ac);
                    for r in 0..an {
                        for c in 0..len {
                            da.set(r, start + c, grad.get(r, c));
                        }
                    }
                    accumulate(&mut grads, a.0, da);
                }
                Op::GatherRows(a, indices) => {
                    let shape = self.nodes[a.0].value.shape();
                    accumulate_rows(&mut grads, a.0, shape, &grad, &indices);
                }
                Op::MulCol(a, col) => {
                    let (n_, d) = grad.shape();
                    let colv = &self.nodes[col.0].value;
                    let av = &self.nodes[a.0].value;
                    let mut da = Tensor::zeros(n_, d);
                    let mut dcol = Tensor::zeros(n_, 1);
                    for r in 0..n_ {
                        let c = colv.get(r, 0);
                        let mut acc = 0.0;
                        for j in 0..d {
                            da.set(r, j, grad.get(r, j) * c);
                            acc += grad.get(r, j) * av.get(r, j);
                        }
                        dcol.set(r, 0, acc);
                    }
                    accumulate(&mut grads, a.0, da);
                    accumulate(&mut grads, col.0, dcol);
                }
                Op::L2NormalizeRows(a) => {
                    let x = &self.nodes[a.0].value;
                    let y = &self.nodes[i].value;
                    let (rn, rc) = x.shape();
                    let mut dx = Tensor::zeros(rn, rc);
                    for r in 0..rn {
                        let norm: f32 = x
                            .row_slice(r)
                            .iter()
                            .map(|&v| v * v)
                            .sum::<f32>()
                            .sqrt()
                            .max(1e-12);
                        let dot: f32 = (0..rc).map(|c| grad.get(r, c) * y.get(r, c)).sum();
                        for c in 0..rc {
                            dx.set(r, c, (grad.get(r, c) - y.get(r, c) * dot) / norm);
                        }
                    }
                    accumulate(&mut grads, a.0, dx);
                }
                Op::LayerNormRows(a) => {
                    let x = &self.nodes[a.0].value;
                    let y = &self.nodes[i].value;
                    let (rn, rc) = x.shape();
                    let d = rc as f32;
                    let mut dx = Tensor::zeros(rn, rc);
                    for r in 0..rn {
                        let mean: f32 = x.row_slice(r).iter().sum::<f32>() / d;
                        let var: f32 = x
                            .row_slice(r)
                            .iter()
                            .map(|&v| (v - mean) * (v - mean))
                            .sum::<f32>()
                            / d;
                        let std = (var + 1e-5).sqrt();
                        let gmean: f32 = grad.row_slice(r).iter().sum::<f32>() / d;
                        let gydot: f32 =
                            (0..rc).map(|c| grad.get(r, c) * y.get(r, c)).sum::<f32>() / d;
                        for c in 0..rc {
                            let v = (grad.get(r, c) - gmean - y.get(r, c) * gydot) / std;
                            dx.set(r, c, v);
                        }
                    }
                    accumulate(&mut grads, a.0, dx);
                }
                Op::SmoothL1(pred, target) => {
                    let g = grad.get(0, 0);
                    let diff =
                        Kernels::GLOBAL.zip_map(&self.nodes[pred.0].value, &target, |p, t| p - t);
                    let len = diff.data().len().max(1) as f32;
                    let dx = Kernels::GLOBAL.map(&diff, |d| g * d.clamp(-1.0, 1.0) / len);
                    accumulate(&mut grads, pred.0, dx);
                }
                Op::SmoothL1Weighted(pred, target, weights) => {
                    let g = grad.get(0, 0);
                    let diff =
                        Kernels::GLOBAL.zip_map(&self.nodes[pred.0].value, &target, |p, t| p - t);
                    let wsum: f32 = weights.data().iter().sum::<f32>().max(1e-12);
                    let dx = Kernels::GLOBAL
                        .zip_map(&diff, &weights, |d, w| g * w * d.clamp(-1.0, 1.0) / wsum);
                    accumulate(&mut grads, pred.0, dx);
                }
                Op::CrossEntropyRows(logits, labels) => {
                    let g = grad.get(0, 0);
                    let sm = softmax_rows(&self.nodes[logits.0].value);
                    let (rn, rc) = sm.shape();
                    let mut dx = Tensor::zeros(rn, rc);
                    for (r, &label) in labels.iter().enumerate().take(rn) {
                        for c in 0..rc {
                            let one = if label == c { 1.0 } else { 0.0 };
                            dx.set(r, c, g * (sm.get(r, c) - one) / rn.max(1) as f32);
                        }
                    }
                    accumulate(&mut grads, logits.0, dx);
                }
                Op::CrossEntropyCols(logits, labels) => {
                    let g = grad.get(0, 0);
                    let smt = softmax_rows(&self.nodes[logits.0].value.transpose());
                    let (cn, cr) = smt.shape(); // cn = cols of logits
                    let mut dx = Tensor::zeros(cr, cn);
                    for (j, &label) in labels.iter().enumerate().take(cn) {
                        for r in 0..cr {
                            let one = if label == r { 1.0 } else { 0.0 };
                            dx.set(r, j, g * (smt.get(j, r) - one) / cn.max(1) as f32);
                        }
                    }
                    accumulate(&mut grads, logits.0, dx);
                }
            }
        }
        out
    }
}

fn accumulate(grads: &mut [Option<Tensor>], idx: usize, delta: Tensor) {
    match &mut grads[idx] {
        Some(g) => {
            debug_assert_eq!(g.shape(), delta.shape(), "gradient shape mismatch");
            for (a, &b) in g.data_mut().iter_mut().zip(delta.data()) {
                *a += b;
            }
        }
        slot @ None => *slot = Some(delta),
    }
}

/// Adds `rows` of `delta` into the gradient slot at the given row indices
/// without materializing a full-size temporary.
fn accumulate_rows(
    grads: &mut [Option<Tensor>],
    idx: usize,
    full_shape: (usize, usize),
    delta: &Tensor,
    indices: &[usize],
) {
    let slot = &mut grads[idx];
    let g = slot.get_or_insert_with(|| Tensor::zeros(full_shape.0, full_shape.1));
    let d = full_shape.1;
    for (r, &target) in indices.iter().enumerate() {
        let dst = &mut g.data_mut()[target * d..(target + 1) * d];
        let src = &delta.data()[r * d..(r + 1) * d];
        for (a, &b) in dst.iter_mut().zip(src) {
            *a += b;
        }
    }
}

/// The logistic sigmoid `1 / (1 + e^(−x))` that [`Graph::sigmoid`] applies
/// elementwise (public so tape-free passes compute the same bits).
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)
const GELU_A: f32 = 0.044_715;

fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (GELU_C * (x + GELU_A * x * x * x)).tanh())
}

fn gelu_grad(x: f32) -> f32 {
    let u = GELU_C * (x + GELU_A * x * x * x);
    let t = u.tanh();
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * x * x)
}

/// Row-wise softmax (shared by forward and loss backward).
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    let c = out.cols();
    if c > 0 {
        out.data_mut().chunks_exact_mut(c).for_each(softmax_row);
    }
    out
}

/// Softmax of one row, in place: the per-row step of [`softmax_rows`].
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for v in row.iter_mut() {
        *v = (*v - max).exp();
    }
    let sum: f32 = row.iter().sum::<f32>().max(1e-12);
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// Row-wise L2 normalization.
pub fn l2_normalize_rows(x: &Tensor) -> Tensor {
    let (n, c) = x.shape();
    let mut out = Tensor::zeros(n, c);
    for r in 0..n {
        let norm = x
            .row_slice(r)
            .iter()
            .map(|&v| v * v)
            .sum::<f32>()
            .sqrt()
            .max(1e-12);
        for j in 0..c {
            out.set(r, j, x.get(r, j) / norm);
        }
    }
    out
}

/// Row-wise layer normalization (ε = 1e-5, no affine).
pub fn layer_norm_rows(x: &Tensor) -> Tensor {
    let (n, c) = x.shape();
    let d = c as f32;
    let mut out = Tensor::zeros(n, c);
    for r in 0..n {
        let mean: f32 = x.row_slice(r).iter().sum::<f32>() / d;
        let var: f32 = x
            .row_slice(r)
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / d;
        let std = (var + 1e-5).sqrt();
        for j in 0..c {
            out.set(r, j, (x.get(r, j) - mean) / std);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_gradients() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[1.0, 1.0]]));
        let wv = g.param(w, &store);
        let y = g.matmul(x, wv); // [4, 6]
        let loss = g.sum_all(y);
        assert_eq!(g.value(loss).get(0, 0), 10.0);
        let grads = g.backward(loss);
        // dL/dW = xᵀ · ones = all ones.
        assert_eq!(grads.get(w).unwrap(), &Tensor::full(2, 2, 1.0));
    }

    #[test]
    fn chain_rule_through_activation() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[0.5]]));
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[2.0]]));
        let wv = g.param(w, &store);
        let y = g.matmul(x, wv); // 1.0
        let t = g.tanh(y);
        let loss = g.sum_all(t);
        let grads = g.backward(loss);
        // d tanh(wx)/dw = x(1-tanh²(1)) = 2 * (1 - tanh(1)^2).
        let expected = 2.0 * (1.0 - 1.0f32.tanh().powi(2));
        assert!((grads.get(w).unwrap().get(0, 0) - expected).abs() < 1e-5);
    }

    #[test]
    fn gather_rows_scatters_gradient() {
        let mut store = ParamStore::new();
        let e = store.add(
            "emb",
            Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]),
        );
        let mut g = Graph::new();
        let ev = g.param(e, &store);
        let picked = g.gather_rows(ev, &[2, 2, 0]);
        let loss = g.sum_all(picked);
        let grads = g.backward(loss);
        let ge = grads.get(e).unwrap();
        assert_eq!(ge.row_slice(0), &[1.0, 1.0]);
        assert_eq!(ge.row_slice(1), &[0.0, 0.0]);
        assert_eq!(ge.row_slice(2), &[2.0, 2.0]);
    }

    #[test]
    fn cross_entropy_decreases_toward_label() {
        let mut store = ParamStore::new();
        let w = store.add("logits", Tensor::from_rows(&[&[0.0, 0.0, 0.0]]));
        let mut g = Graph::new();
        let l = g.param(w, &store);
        let loss = g.cross_entropy_rows(l, &[1]);
        let grads = g.backward(loss);
        let gl = grads.get(w).unwrap();
        assert!(gl.get(0, 1) < 0.0, "label logit pushed up");
        assert!(gl.get(0, 0) > 0.0 && gl.get(0, 2) > 0.0);
    }

    #[test]
    fn smooth_l1_gradient_clamps() {
        let mut store = ParamStore::new();
        let w = store.add("p", Tensor::from_rows(&[&[5.0, 0.2]]));
        let mut g = Graph::new();
        let p = g.param(w, &store);
        let loss = g.smooth_l1(p, Tensor::row(&[0.0, 0.0]));
        let grads = g.backward(loss);
        let gp = grads.get(w).unwrap();
        assert!((gp.get(0, 0) - 0.5).abs() < 1e-6, "linear region: 1/len");
        assert!((gp.get(0, 1) - 0.1).abs() < 1e-6, "quadratic region: d/len");
    }

    #[test]
    fn shared_subexpression_accumulates() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[3.0]]));
        let mut g = Graph::new();
        let wv = g.param(w, &store);
        let y = g.add(wv, wv); // 2w
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(w).unwrap().get(0, 0), 2.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]]);
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f32 = s.row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_produces_unit_rows() {
        let x = Tensor::from_rows(&[&[3.0, 4.0]]);
        let y = l2_normalize_rows(&x);
        assert!((y.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((y.get(0, 1) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let y = layer_norm_rows(&x);
        let mean: f32 = y.row_slice(0).iter().sum::<f32>() / 4.0;
        let var: f32 = y.row_slice(0).iter().map(|&v| v * v).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-2);
    }

    #[test]
    fn mul_scalar_var_gradients() {
        let mut store = ParamStore::new();
        let s = store.add("s", Tensor::from_rows(&[&[2.0]]));
        let mut g = Graph::new();
        let x = g.input(Tensor::row(&[1.0, 3.0]));
        let sv = g.param(s, &store);
        let y = g.mul_scalar_var(x, sv);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(s).unwrap().get(0, 0), 4.0, "sum of x");
    }
}
