//! Finite-difference gradient checking for the autograd tape.
//!
//! Used by the tensor crate's own tests and by downstream model tests to
//! verify that every op's backward matches its forward numerically.

use crate::graph::{Gradients, Graph};
use crate::params::{ParamId, ParamStore};

/// Compares analytic gradients against central finite differences.
///
/// `build` must construct the full forward pass and return the scalar loss
/// var; it is invoked many times with perturbed parameter values.
///
/// Returns the maximum relative error across all checked parameters.
///
/// # Panics
///
/// Panics if `build` returns a non-scalar loss.
pub fn max_gradient_error(
    store: &mut ParamStore,
    params: &[ParamId],
    mut build: impl FnMut(&mut Graph, &ParamStore) -> crate::graph::Var,
) -> f32 {
    let analytic: Gradients = {
        let mut g = Graph::new();
        let loss = build(&mut g, store);
        g.backward(loss)
    };
    let eps = 1e-3f32;
    let mut worst = 0.0f32;
    for &p in params {
        let base = store.get(p).clone();
        let ga = analytic
            .get(p)
            .cloned()
            .unwrap_or_else(|| base.map(|_| 0.0));
        for i in 0..base.data().len() {
            let mut plus = base.clone();
            plus.data_mut()[i] += eps;
            store.set(p, plus);
            let lp = {
                let mut g = Graph::new();
                let loss = build(&mut g, store);
                g.value(loss).get(0, 0)
            };
            let mut minus = base.clone();
            minus.data_mut()[i] -= eps;
            store.set(p, minus);
            let lm = {
                let mut g = Graph::new();
                let loss = build(&mut g, store);
                g.value(loss).get(0, 0)
            };
            store.set(p, base.clone());
            let numeric = (lp - lm) / (2.0 * eps);
            let a = ga.data()[i];
            let denom = a.abs().max(numeric.abs()).max(1e-2);
            worst = worst.max((a - numeric).abs() / denom);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn mlp_with_every_activation_checks_out() {
        let mut store = ParamStore::new();
        let w1 = store.add("w1", Tensor::xavier(3, 4, 1));
        let b1 = store.add("b1", Tensor::xavier(1, 4, 2));
        let w2 = store.add("w2", Tensor::xavier(4, 2, 3));
        let err = max_gradient_error(&mut store, &[w1, b1, w2], |g, s| {
            let x = g.input(Tensor::xavier(5, 3, 9));
            let w1v = g.param(w1, s);
            let b1v = g.param(b1, s);
            let w2v = g.param(w2, s);
            let h = g.matmul(x, w1v);
            let h = g.add_row(h, b1v);
            let h = g.gelu(h);
            let o = g.matmul(h, w2v);
            let o = g.tanh(o);
            g.smooth_l1(o, Tensor::xavier(5, 2, 11))
        });
        assert!(err < 2e-2, "max relative gradient error {err}");
    }

    #[test]
    fn softmax_layernorm_normalize_check_out() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::xavier(4, 4, 5));
        let err = max_gradient_error(&mut store, &[w], |g, s| {
            let x = g.input(Tensor::xavier(3, 4, 6));
            let wv = g.param(w, s);
            let h = g.matmul(x, wv);
            let h = g.layer_norm_rows(h);
            let h = g.softmax_rows(h);
            let h = g.l2_normalize_rows(h);
            let m = g.mean_rows(h);
            g.sum_all(m)
        });
        assert!(err < 2e-2, "max relative gradient error {err}");
    }

    #[test]
    fn cross_entropy_and_attention_style_ops_check_out() {
        let mut store = ParamStore::new();
        let wq = store.add("wq", Tensor::xavier(4, 4, 7));
        let wk = store.add("wk", Tensor::xavier(4, 4, 8));
        let temp = store.add("t", Tensor::from_rows(&[&[0.5]]));
        let err = max_gradient_error(&mut store, &[wq, wk, temp], |g, s| {
            let x = g.input(Tensor::xavier(3, 4, 10));
            let q = {
                let w = g.param(wq, s);
                g.matmul(x, w)
            };
            let k = {
                let w = g.param(wk, s);
                g.matmul(x, w)
            };
            let kt = g.transpose(k);
            let scores = g.matmul(q, kt);
            let tv = g.param(temp, s);
            let scores = g.mul_scalar_var(scores, tv);
            g.cross_entropy_rows(scores, &[0, 1, 2])
        });
        assert!(err < 2e-2, "max relative gradient error {err}");
    }

    #[test]
    fn concat_slice_gather_check_out() {
        let mut store = ParamStore::new();
        let e = store.add("e", Tensor::xavier(5, 3, 13));
        let w = store.add("w", Tensor::xavier(4, 2, 14));
        let err = max_gradient_error(&mut store, &[e, w], |g, s| {
            let ev = g.param(e, s);
            let wv = g.param(w, s);
            let picked = g.gather_rows(ev, &[0, 2, 4]);
            let twice = g.concat_cols(picked, picked);
            let part = g.slice_cols(twice, 1, 4);
            let both = g.concat_rows(&[part, part]);
            let h = g.matmul(both, wv);
            let h = g.sigmoid(h);
            g.sum_all(h)
        });
        assert!(err < 2e-2, "max relative gradient error {err}");
    }

    #[test]
    fn mul_col_checks_out() {
        let mut store = ParamStore::new();
        let base = store.add("base", Tensor::xavier(4, 3, 21));
        let col = store.add("col", Tensor::xavier(4, 1, 23));
        let err = max_gradient_error(&mut store, &[base, col], |g, s| {
            let bv = g.param(base, s);
            let cv = g.param(col, s);
            let weighted = g.mul_col(bv, cv);
            let t = g.tanh(weighted);
            g.sum_all(t)
        });
        assert!(err < 2e-2, "max relative gradient error {err}");
    }
}
