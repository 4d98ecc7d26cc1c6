//! Tape-free inference: the values of [`CircuitGnn::forward`] without an
//! autograd tape.
//!
//! The tape records every op so training can backpropagate through it; a
//! serving lookup or a frozen trunk needs only the values.
//! [`CircuitGnn::infer`] walks the same [`CircuitGraph`] schedule over one
//! `n × d` state matrix and a few scratch buffers reused from group to
//! group: each group gathers its rows, runs the [`Kernels`] matmuls on
//! slices, and writes its gated update back in place.
//!
//! # Bit-identity with the tape
//!
//! The pass performs the tape's floating-point operations in the tape's
//! order, so every output is bit-identical to `forward`
//! (`tests/infer_equivalence.rs` pins it):
//!
//! - matmuls run through [`Kernels::matmul_into`], the slice entry point
//!   behind [`Kernels::matmul`], on the tape's shapes (the per-pin value
//!   and key projections stay one stacked matmul each);
//! - sums keep the tape's association, `(h·W + m·U) + h0·V` and then the
//!   bias row, and the update is `(1 − z)·h + z·h̃`;
//! - an attention score adds the `q∘k` products in ascending order from
//!   zero, which is what the tape's `(q∘k)·1` matmul computes (a fused
//!   multiply-add by 1 rounds like a plain add), then scales by `1/√d` and
//!   adds the pin bias; the softmax is the tape's [`softmax_row`];
//! - the activations are the tape's [`sigmoid`] and `f32::tanh`, and the
//!   readout mean folds [`Kernels::col_sums`].
//!
//! A group gathers all of its inputs before it writes any output: a DFF
//! group can read a DFF it also updates (the stages of a shift register),
//! and the tape reads the pre-group state there too.

use moss_tensor::{sigmoid, softmax_row, Kernels, ParamId, ParamStore, Tensor};

use crate::circuit::{CircuitGraph, Group};
use crate::model::CircuitGnn;

/// What [`CircuitGnn::infer`] computes for one circuit.
#[derive(Debug, Clone)]
pub struct Inference {
    /// Final node states (`node_count × d_hidden`).
    pub states: Tensor,
    /// Mean-pooled graph embedding (`1 × d_hidden`).
    pub graph_embedding: Tensor,
}

/// One gated update's weights as row-major slices (`d × d` matrices, `1 × d`
/// biases); the turnaround update has no `h0` term.
struct GateSlices<'a> {
    wz: &'a [f32],
    uz: &'a [f32],
    vz: Option<&'a [f32]>,
    bz: &'a [f32],
    wh: &'a [f32],
    uh: &'a [f32],
    vh: Option<&'a [f32]>,
    bh: &'a [f32],
}

/// Buffers reused by every group of a pass; each is resized to the group
/// at hand, so a pass allocates only while its largest group grows them.
#[derive(Default)]
struct Scratch {
    /// The group's own states (`rows × d`).
    h: Vec<f32>,
    /// The group's initial states `h0` (`rows × d`).
    h0: Vec<f32>,
    /// The message: aggregated pin values, or the turnaround's D-side
    /// states (`rows × d`).
    m: Vec<f32>,
    /// Pin states stacked pin-major (`arity·rows × d`).
    pins: Vec<f32>,
    /// Pin values `pins·Wv` (`arity·rows × d`).
    values: Vec<f32>,
    /// Pin keys `pins·Wk` (`arity·rows × d`).
    keys: Vec<f32>,
    /// Queries `h·Wq` (`rows × d`).
    q: Vec<f32>,
    /// Attention scores, then weights (`rows × arity`).
    alpha: Vec<f32>,
    gate: Gate,
}

/// The gated update's buffers.
#[derive(Default)]
struct Gate {
    /// Update-gate pre-activation, then `z` (`rows × d`).
    z: Vec<f32>,
    /// Candidate pre-activation, then `h̃` (`rows × d`).
    cand: Vec<f32>,
    /// One matmul product before it is added in (`rows × d`).
    prod: Vec<f32>,
}

/// Copies rows `idx` of the row-major `src` (width `d`) into `dst`.
fn gather(dst: &mut Vec<f32>, src: &[f32], d: usize, idx: &[usize]) {
    dst.clear();
    for &i in idx {
        dst.extend_from_slice(&src[i * d..(i + 1) * d]);
    }
}

/// `out = a × w` for an `a` of `rows × d` and a `d × d` weight.
fn matmul(a: &[f32], w: &[f32], d: usize, out: &mut Vec<f32>) {
    let rows = a.len() / d;
    out.resize(rows * d, 0.0);
    Kernels::GLOBAL.matmul_into(a, rows, d, w, d, out);
}

/// `acc = acc + x`, elementwise (the tape's `add`).
fn add_into(acc: &mut [f32], x: &[f32]) {
    for (a, &b) in acc.iter_mut().zip(x) {
        *a += b;
    }
}

/// Adds the `1 × d` `row` to every row of `acc` (the tape's `add_row`).
fn add_row(acc: &mut [f32], row: &[f32]) {
    for chunk in acc.chunks_exact_mut(row.len()) {
        add_into(chunk, row);
    }
}

impl CircuitGnn {
    /// Runs the two-phase propagation forward pass on `circuit` without a
    /// tape. Every value is bit-identical to [`CircuitGnn::forward`] (see
    /// the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the circuit's feature width differs from `d_in` or a
    /// cluster id exceeds the aggregator count.
    pub fn infer(&self, store: &ParamStore, circuit: &CircuitGraph) -> Inference {
        assert_eq!(
            circuit.features.cols(),
            self.config.d_in,
            "feature width mismatch"
        );
        let d = self.config.d_hidden;
        let w = |id: ParamId| store.get(id).data();
        let up = GateSlices {
            wz: w(self.wz),
            uz: w(self.uz),
            vz: Some(w(self.vz)),
            bz: w(self.bz),
            wh: w(self.wh),
            uh: w(self.uh),
            vh: Some(w(self.vh)),
            bh: w(self.bh),
        };
        let dff_up = GateSlices {
            wz: w(self.wdz),
            uz: w(self.udz),
            vz: None,
            bz: w(self.bdz),
            wh: w(self.wdh),
            uh: w(self.udh),
            vh: None,
            bh: w(self.bdh),
        };

        let h0 = {
            let _sp = moss_obs::span("gnn.input");
            let mut proj = Kernels::GLOBAL.matmul(&circuit.features, store.get(self.w_in));
            add_row(proj.data_mut(), w(self.b_in));
            Kernels::GLOBAL.map(&proj, f32::tanh)
        };

        let s = &mut Scratch::default();
        let mut states = h0.clone();
        for _ in 0..self.config.iterations {
            {
                let _sp = moss_obs::span("gnn.comb");
                for group in &circuit.comb_schedule {
                    self.infer_comb_group(store, group, &mut states, &h0, &up, s);
                }
            }
            if self.config.two_phase {
                let _sp = moss_obs::span("gnn.turnaround");
                for group in &circuit.dff_schedule {
                    gather(&mut s.h, states.data(), d, &group.nodes);
                    gather(&mut s.m, states.data(), d, &group.fanins[0]);
                    s.gate.update(&s.h, &s.m, None, &dff_up, d);
                    s.gate.write(states.data_mut(), &s.h, &group.nodes, d);
                }
            }
        }

        let _sp = moss_obs::span("gnn.readout");
        let inv = 1.0 / circuit.node_count.max(1) as f32;
        let pooled: Vec<f32> = Kernels::GLOBAL
            .col_sums(&states)
            .into_iter()
            .map(|x| x * inv)
            .collect();
        let mut ro = Kernels::GLOBAL.matmul(&Tensor::from_vec(pooled, 1, d), store.get(self.w_ro));
        add_row(ro.data_mut(), w(self.b_ro));
        let graph_embedding = Kernels::GLOBAL.map(&ro, f32::tanh);
        Inference {
            states,
            graph_embedding,
        }
    }

    /// One forward-phase group: gather, aggregate, gated update, write.
    fn infer_comb_group(
        &self,
        store: &ParamStore,
        group: &Group,
        states: &mut Tensor,
        h0: &Tensor,
        up: &GateSlices,
        s: &mut Scratch,
    ) {
        assert!(
            group.cluster < self.aggs.len(),
            "cluster {} exceeds aggregator count {}",
            group.cluster,
            self.aggs.len()
        );
        let d = self.config.d_hidden;
        let rows = group.nodes.len();
        let arity = group.arity;
        gather(&mut s.h, states.data(), d, &group.nodes);
        gather(&mut s.h0, h0.data(), d, &group.nodes);

        if arity == 0 {
            // No fanin: the message is the node's own h0.
            s.m.clone_from(&s.h0);
        } else {
            let agg = &self.aggs[group.cluster];
            let w = |id: ParamId| store.get(id).data();
            s.pins.clear();
            for fanins in &group.fanins[..arity] {
                for &i in fanins {
                    s.pins.extend_from_slice(&states.data()[i * d..(i + 1) * d]);
                }
            }
            matmul(&s.pins, w(agg.wv), d, &mut s.values);
            let block = rows * d;
            if self.config.attention && arity > 1 {
                // score_p = (q·k_p)/√d + bias_p, softmaxed over the pins.
                matmul(&s.h, w(agg.wq), d, &mut s.q);
                matmul(&s.pins, w(agg.wk), d, &mut s.keys);
                let scale = 1.0 / (d as f32).sqrt();
                let pin_bias = w(agg.pin_bias);
                s.alpha.resize(rows * arity, 0.0);
                for r in 0..rows {
                    let q = &s.q[r * d..(r + 1) * d];
                    let scores = &mut s.alpha[r * arity..(r + 1) * arity];
                    for (p, score) in scores.iter_mut().enumerate() {
                        let k = &s.keys[p * block + r * d..p * block + (r + 1) * d];
                        let mut dot = 0.0f32;
                        for (&qj, &kj) in q.iter().zip(k) {
                            dot += qj * kj;
                        }
                        *score = dot * scale + pin_bias[p];
                    }
                    softmax_row(scores);
                }
                // m = Σ_p α_p·v_p, accumulated pin by pin.
                s.m.resize(block, 0.0);
                for p in 0..arity {
                    let values = &s.values[p * block..(p + 1) * block];
                    for r in 0..rows {
                        let a = s.alpha[r * arity + p];
                        let out = &mut s.m[r * d..(r + 1) * d];
                        let v = &values[r * d..(r + 1) * d];
                        if p == 0 {
                            for (o, &x) in out.iter_mut().zip(v) {
                                *o = x * a;
                            }
                        } else {
                            for (o, &x) in out.iter_mut().zip(v) {
                                *o += x * a;
                            }
                        }
                    }
                }
            } else {
                // Uniform mean over the pins (the ablation path, and every
                // single-fanin group).
                s.m.clear();
                s.m.extend_from_slice(&s.values[..block]);
                for p in 1..arity {
                    add_into(&mut s.m, &s.values[p * block..(p + 1) * block]);
                }
                let inv = 1.0 / arity as f32;
                for x in &mut s.m {
                    *x *= inv;
                }
            }
        }

        s.gate.update(&s.h, &s.m, Some(&s.h0), up, d);
        s.gate.write(states.data_mut(), &s.h, &group.nodes, d);
    }
}

impl Gate {
    /// Computes `z = σ((h·Wz + m·Uz) [+ h0·Vz] + bz)` and
    /// `h̃ = tanh((h·Wh + m·Uh) [+ h0·Vh] + bh)` for the rows of `h`.
    fn update(&mut self, h: &[f32], m: &[f32], h0: Option<&[f32]>, w: &GateSlices, d: usize) {
        for (out, wx, ux, vx, bx) in [
            (&mut self.z, w.wz, w.uz, w.vz, w.bz),
            (&mut self.cand, w.wh, w.uh, w.vh, w.bh),
        ] {
            matmul(h, wx, d, out);
            matmul(m, ux, d, &mut self.prod);
            add_into(out, &self.prod);
            if let (Some(h0), Some(vx)) = (h0, vx) {
                matmul(h0, vx, d, &mut self.prod);
                add_into(out, &self.prod);
            }
            add_row(out, bx);
        }
        for x in &mut self.z {
            *x = sigmoid(*x);
        }
        for x in &mut self.cand {
            *x = x.tanh();
        }
    }

    /// Writes `h' = (1 − z)·h + z·h̃` for each row into its node's row of
    /// `states`.
    fn write(&self, states: &mut [f32], h: &[f32], nodes: &[usize], d: usize) {
        for (r, &node) in nodes.iter().enumerate() {
            let (z, h, cand) = (
                &self.z[r * d..(r + 1) * d],
                &h[r * d..(r + 1) * d],
                &self.cand[r * d..(r + 1) * d],
            );
            for (j, out) in states[node * d..(node + 1) * d].iter_mut().enumerate() {
                *out = (1.0 - z[j]) * h[j] + z[j] * cand[j];
            }
        }
    }
}
