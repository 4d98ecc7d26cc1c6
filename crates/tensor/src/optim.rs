//! Optimizers: Adam (the paper's choice, §V-A) and plain SGD.

use std::collections::HashMap;

use crate::backend::Kernels;
use crate::graph::Gradients;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Adam optimizer with bias correction.
///
/// The paper trains with Adam at learning rate 6×10⁻⁴ (§V-A).
///
/// # Examples
///
/// ```
/// use moss_tensor::{Adam, Graph, ParamStore, Tensor};
///
/// let mut store = ParamStore::new();
/// let w = store.add("w", Tensor::from_rows(&[&[10.0]]));
/// let mut adam = Adam::new(0.1);
/// for _ in 0..200 {
///     let mut g = Graph::new();
///     let wv = g.param(w, &store);
///     let loss = g.smooth_l1(wv, Tensor::from_rows(&[&[0.0]]));
///     let grads = g.backward(loss);
///     adam.step(&mut store, &grads);
/// }
/// assert!(store.get(w).get(0, 0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: HashMap<ParamId, Tensor>,
    v: HashMap<ParamId, Tensor>,
    /// Clip gradients to this global norm before stepping, if set.
    pub clip_norm: Option<f32>,
}

impl Adam {
    /// Adam with the usual β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
            clip_norm: Some(5.0),
        }
    }

    /// The learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Steps taken so far (drives bias correction; part of the
    /// checkpointed state).
    pub fn time_step(&self) -> u64 {
        self.t
    }

    /// The first/second-moment accumulators, ordered by [`ParamId`] for
    /// deterministic serialization. Parameters that never received a
    /// gradient have no entry.
    pub fn moments(&self) -> Vec<(ParamId, &Tensor, &Tensor)> {
        let mut out: Vec<(ParamId, &Tensor, &Tensor)> = self
            .m
            .iter()
            .map(|(&id, m)| (id, m, self.v.get(&id).expect("m and v share keys")))
            .collect();
        out.sort_by_key(|&(id, _, _)| id);
        out
    }

    /// Rebuilds an optimizer mid-run from checkpointed state: step count
    /// and per-parameter moment tensors. `clip_norm` is restored to the
    /// given value (the [`Adam::new`] default is `Some(5.0)`). Stepping the
    /// result continues the exact update sequence of the checkpointed
    /// optimizer.
    pub fn from_state(
        lr: f32,
        clip_norm: Option<f32>,
        t: u64,
        moments: impl IntoIterator<Item = (ParamId, Tensor, Tensor)>,
    ) -> Adam {
        let mut adam = Adam::new(lr);
        adam.clip_norm = clip_norm;
        adam.t = t;
        for (id, m, v) in moments {
            adam.m.insert(id, m);
            adam.v.insert(id, v);
        }
        adam
    }

    /// Applies one update step.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        self.t += 1;
        let scale = match self.clip_norm {
            Some(max) => {
                let norm = grads.global_norm();
                if norm > max {
                    max / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (b1, b2) = (self.beta1, self.beta2);
        let (lr, eps) = (self.lr, self.eps);
        let k = Kernels::GLOBAL;
        for (id, grad) in grads.iter() {
            let g = k.map(grad, |x| x * scale);
            let (r, c) = g.shape();
            let m = self.m.entry(id).or_insert_with(|| Tensor::zeros(r, c));
            let v = self.v.entry(id).or_insert_with(|| Tensor::zeros(r, c));
            *m = k.zip_map(m, &g, |mi, gi| b1 * mi + (1.0 - b1) * gi);
            *v = k.zip_map(v, &g, |vi, gi| b2 * vi + (1.0 - b2) * gi * gi);
            let step = k.zip_map(m, v, |mi, vi| lr * (mi / bc1) / ((vi / bc2).sqrt() + eps));
            let new = k.zip_map(store.get(id), &step, |w, s| w - s);
            store.set(id, new);
        }
    }
}

/// Plain stochastic gradient descent (used by ablation benches).
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// SGD with a fixed learning rate.
    pub fn new(lr: f32) -> Sgd {
        Sgd { lr }
    }

    /// Applies one update step.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        let lr = self.lr;
        for (id, grad) in grads.iter() {
            let new = Kernels::GLOBAL.zip_map(store.get(id), grad, |w, g| w - lr * g);
            store.set(id, new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn quadratic_step(store: &mut ParamStore, w: ParamId) -> (Gradients, f32) {
        let mut g = Graph::new();
        let wv = g.param(w, store);
        let sq = g.mul(wv, wv);
        let loss = g.sum_all(sq);
        let l = g.value(loss).get(0, 0);
        (g.backward(loss), l)
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[3.0, -2.0]]));
        let mut adam = Adam::new(0.05);
        let (_, first) = quadratic_step(&mut store, w);
        for _ in 0..300 {
            let (grads, _) = quadratic_step(&mut store, w);
            adam.step(&mut store, &grads);
        }
        let (_, last) = quadratic_step(&mut store, w);
        assert!(last < first * 0.01, "loss {first} → {last}");
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[1.0]]));
        let mut sgd = Sgd::new(0.1);
        let (grads, _) = quadratic_step(&mut store, w);
        sgd.step(&mut store, &grads);
        // grad of w² at 1 is 2 → w ← 1 - 0.2.
        assert!((store.get(w).get(0, 0) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn clipping_bounds_update_size() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[1000.0]]));
        let mut adam = Adam::new(0.1);
        adam.clip_norm = Some(1.0);
        let (grads, _) = quadratic_step(&mut store, w);
        assert!(grads.global_norm() > 1.0);
        adam.step(&mut store, &grads);
        // Step is bounded by lr regardless of the huge raw gradient.
        assert!((store.get(w).get(0, 0) - 1000.0).abs() <= 0.11);
    }
}
