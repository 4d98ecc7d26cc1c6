//! The MOSS circuit GNN: per-cluster attention aggregators with edge
//! positional encoding (Fig. 5) and two-phase asynchronous temporal
//! propagation (Fig. 4b), with a mean-pooling readout (Fig. 4c).
//!
//! Ablation switches mirror the paper's model variants: the adaptive
//! attention aggregator can be replaced by a uniform mean aggregator, and
//! the turnaround (feedback) phase can be disabled.

use moss_tensor::{Graph, ParamId, ParamStore, Tensor, Var};

use crate::circuit::{CircuitGraph, Group};
use crate::state_table::StateTable;

/// GNN hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GnnConfig {
    /// Input feature width (structural ⊕ LLM features).
    pub d_in: usize,
    /// Hidden state width.
    pub d_hidden: usize,
    /// Number of two-phase propagation rounds (paper: e.g. 10).
    pub iterations: usize,
    /// Number of dedicated aggregators (≥ max cluster id + 1).
    pub aggregators: usize,
    /// Attention-based adaptive aggregation (`false` = uniform mean — the
    /// "w/o adaptive aggregator" ablation).
    pub attention: bool,
    /// Run the turnaround (DFF feedback) phase (`false` = single-phase).
    pub two_phase: bool,
}

impl GnnConfig {
    /// A small configuration for CPU experiments.
    pub fn small(d_in: usize) -> GnnConfig {
        GnnConfig {
            d_in,
            d_hidden: 16,
            iterations: 4,
            aggregators: 6,
            attention: true,
            two_phase: true,
        }
    }
}

/// Per-aggregator attention parameters.
#[derive(Debug, Clone)]
pub(crate) struct AggParams {
    pub(crate) wq: ParamId,
    pub(crate) wk: ParamId,
    pub(crate) wv: ParamId,
    pub(crate) pin_bias: ParamId,
}

/// The circuit GNN model: parameter handles + forward pass builder.
#[derive(Debug, Clone)]
pub struct CircuitGnn {
    pub(crate) config: GnnConfig,
    pub(crate) w_in: ParamId,
    pub(crate) b_in: ParamId,
    pub(crate) aggs: Vec<AggParams>,
    // Gated (GRU-style) combinational update: z = σ(hWz + mUz + h0Vz + bz),
    // h' = (1−z)∘h + z∘tanh(hWh + mUh + h0Vh + bh).
    pub(crate) wz: ParamId,
    pub(crate) uz: ParamId,
    pub(crate) vz: ParamId,
    pub(crate) bz: ParamId,
    pub(crate) wh: ParamId,
    pub(crate) uh: ParamId,
    pub(crate) vh: ParamId,
    pub(crate) bh: ParamId,
    // Gated turnaround (DFF) update.
    pub(crate) wdz: ParamId,
    pub(crate) udz: ParamId,
    pub(crate) bdz: ParamId,
    pub(crate) wdh: ParamId,
    pub(crate) udh: ParamId,
    pub(crate) bdh: ParamId,
    pub(crate) w_ro: ParamId,
    pub(crate) b_ro: ParamId,
}

/// Forward-pass outputs.
#[derive(Debug, Clone, Copy)]
pub struct GnnOutput {
    /// Final node states (`node_count × d_hidden`).
    pub states: Var,
    /// Mean-pooled graph embedding (`1 × d_hidden`).
    pub graph_embedding: Var,
    /// Initial projected features (`node_count × d_hidden`).
    pub h0: Var,
}

impl CircuitGnn {
    /// Registers all GNN parameters into `store`.
    pub fn new(config: GnnConfig, store: &mut ParamStore, seed: u64) -> CircuitGnn {
        let d = config.d_hidden;
        let mk = |store: &mut ParamStore, name: String, r: usize, c: usize, s: u64| {
            store.get_or_add(name, Tensor::xavier(r, c, s))
        };
        let w_in = mk(store, "gnn.w_in".into(), config.d_in, d, seed);
        let b_in = store.get_or_add("gnn.b_in", Tensor::zeros(1, d));
        let mut aggs = Vec::with_capacity(config.aggregators);
        for a in 0..config.aggregators {
            let s = seed.wrapping_add(10 + a as u64 * 7);
            aggs.push(AggParams {
                wq: mk(store, format!("gnn.agg{a}.wq"), d, d, s),
                // Keys start at zero so every attention score is 0 and the
                // softmax is uniform: the adaptive aggregator *begins* as
                // mean aggregation and learns to deviate only where the
                // data supports it. Random K init hands each pin an
                // arbitrary weight before any training signal arrives.
                wk: store.get_or_add(format!("gnn.agg{a}.wk"), Tensor::zeros(d, d)),
                wv: mk(store, format!("gnn.agg{a}.wv"), d, d, s + 2),
                pin_bias: store.get_or_add(format!("gnn.agg{a}.pin_bias"), Tensor::zeros(1, 3)),
            });
        }
        CircuitGnn {
            wz: mk(store, "gnn.up.wz".into(), d, d, seed + 101),
            uz: mk(store, "gnn.up.uz".into(), d, d, seed + 102),
            vz: mk(store, "gnn.up.vz".into(), d, d, seed + 103),
            bz: store.get_or_add("gnn.up.bz", Tensor::zeros(1, d)),
            wh: mk(store, "gnn.up.wh".into(), d, d, seed + 107),
            uh: mk(store, "gnn.up.uh".into(), d, d, seed + 108),
            vh: mk(store, "gnn.up.vh".into(), d, d, seed + 109),
            bh: store.get_or_add("gnn.up.bh", Tensor::zeros(1, d)),
            wdz: mk(store, "gnn.dff.wz".into(), d, d, seed + 104),
            udz: mk(store, "gnn.dff.uz".into(), d, d, seed + 110),
            bdz: store.get_or_add("gnn.dff.bz", Tensor::zeros(1, d)),
            wdh: mk(store, "gnn.dff.wh".into(), d, d, seed + 105),
            udh: mk(store, "gnn.dff.uh".into(), d, d, seed + 111),
            bdh: store.get_or_add("gnn.dff.bh", Tensor::zeros(1, d)),
            w_ro: mk(store, "gnn.w_ro".into(), d, d, seed + 106),
            b_ro: store.get_or_add("gnn.b_ro", Tensor::zeros(1, d)),
            config,
            w_in,
            b_in,
            aggs,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GnnConfig {
        &self.config
    }

    /// Every parameter id belonging to this model.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut out = vec![
            self.w_in, self.b_in, self.wz, self.uz, self.vz, self.bz, self.wh, self.uh, self.vh,
            self.bh, self.wdz, self.udz, self.bdz, self.wdh, self.udh, self.bdh, self.w_ro,
            self.b_ro,
        ];
        for a in &self.aggs {
            out.extend([a.wq, a.wk, a.wv, a.pin_bias]);
        }
        out
    }

    /// Builds the full two-phase propagation forward pass on the tape.
    ///
    /// This is the training path, and the oracle for the tape-free
    /// [`CircuitGnn::infer`], which must reproduce its values bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit's feature width differs from `d_in` or a
    /// cluster id exceeds the aggregator count.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, circuit: &CircuitGraph) -> GnnOutput {
        assert_eq!(
            circuit.features.cols(),
            self.config.d_in,
            "feature width mismatch"
        );
        let w_in = g.param(self.w_in, store);
        let b_in = g.param(self.b_in, store);

        let up = GateWeights {
            wz: g.param(self.wz, store),
            uz: g.param(self.uz, store),
            vz: Some(g.param(self.vz, store)),
            bz: g.param(self.bz, store),
            wh: g.param(self.wh, store),
            uh: g.param(self.uh, store),
            vh: Some(g.param(self.vh, store)),
            bh: g.param(self.bh, store),
        };
        let dff_up = GateWeights {
            wz: g.param(self.wdz, store),
            uz: g.param(self.udz, store),
            vz: None,
            bz: g.param(self.bdz, store),
            wh: g.param(self.wdh, store),
            uh: g.param(self.udh, store),
            vh: None,
            bh: g.param(self.bdh, store),
        };

        // Per-aggregator weights loaded once per forward pass.
        let aggs: Vec<(Var, Var, Var, Var)> = self
            .aggs
            .iter()
            .map(|a| {
                (
                    g.param(a.wq, store),
                    g.param(a.wk, store),
                    g.param(a.wv, store),
                    g.param(a.pin_bias, store),
                )
            })
            .collect();

        let w_ro = g.param(self.w_ro, store);
        let b_ro = g.param(self.b_ro, store);

        let x = g.input(circuit.features.clone());
        let proj = g.matmul(x, w_in);
        let proj = g.add_row(proj, b_in);
        let h0 = g.tanh(proj);

        let mut table = StateTable::new(h0, circuit.node_count);
        for _ in 0..self.config.iterations {
            // Phase 1: forward propagation PI → DFF inputs, level by level.
            for group in &circuit.comb_schedule {
                self.update_group(g, group, &mut table, h0, &aggs, &up);
            }
            // Phase 2: turnaround — DFF outputs capture their D-side state.
            if self.config.two_phase {
                for group in &circuit.dff_schedule {
                    let h_v = table.gather(g, &group.nodes);
                    let h_d = table.gather(g, &group.fanins[0]);
                    let new = gated_update(g, h_v, h_d, None, &dff_up);
                    table.update(new, &group.nodes);
                }
            }
        }

        let states = table.assemble(g);
        let pooled = g.mean_rows(states);
        let ro = g.matmul(pooled, w_ro);
        let ro = g.add_row(ro, b_ro);
        let graph_embedding = g.tanh(ro);

        GnnOutput {
            states,
            graph_embedding,
            h0,
        }
    }

    fn update_group(
        &self,
        g: &mut Graph,
        group: &Group,
        table: &mut StateTable,
        h0: Var,
        aggs: &[(Var, Var, Var, Var)],
        up: &GateWeights,
    ) {
        assert!(
            group.cluster < aggs.len(),
            "cluster {} exceeds aggregator count {}",
            group.cluster,
            aggs.len()
        );
        let d = self.config.d_hidden;
        let h_v = table.gather(g, &group.nodes);
        let h0_v = g.gather_rows(h0, &group.nodes);

        let msg = if group.arity == 0 {
            None
        } else {
            let (wq, wk, wv, pin_bias) = aggs[group.cluster];
            let pin_states: Vec<Var> = (0..group.arity)
                .map(|p| table.gather(g, &group.fanins[p]))
                .collect();
            // Fuse the per-pin projections into one stacked matmul: matmul
            // is row-independent, so projecting the row-concatenation and
            // gathering it back per pin is exactly the per-pin result while
            // handing the backend one large matrix whose row blocks the
            // persistent pool can spread across workers.
            let rows = group.nodes.len();
            let stacked_pins = g.concat_rows(&pin_states);
            let stacked_values = g.matmul(stacked_pins, wv);
            let pin_rows: Vec<Vec<usize>> = (0..group.arity)
                .map(|p| (p * rows..(p + 1) * rows).collect())
                .collect();
            let values: Vec<Var> = pin_rows
                .iter()
                .map(|idx| g.gather_rows(stacked_values, idx))
                .collect();
            if self.config.attention && group.arity > 1 {
                // Additive-free dot-product attention with edge positional
                // encoding: score_p = (q·k_p)/√d + bias_p.
                let q = g.matmul(h_v, wq);
                let ones = g.input(Tensor::full(d, 1, 1.0));
                let stacked_keys = g.matmul(stacked_pins, wk);
                let mut scores: Vec<Var> = Vec::with_capacity(group.arity);
                for idx in &pin_rows {
                    let k = g.gather_rows(stacked_keys, idx);
                    let qk = g.mul(q, k);
                    let s = g.matmul(qk, ones);
                    scores.push(g.scale(s, 1.0 / (d as f32).sqrt()));
                }
                let mut stacked = scores[0];
                for &s in &scores[1..] {
                    stacked = g.concat_cols(stacked, s);
                }
                let bias = g.slice_cols(pin_bias, 0, group.arity);
                let stacked = g.add_row(stacked, bias);
                let alpha = g.softmax_rows(stacked);
                let mut acc: Option<Var> = None;
                for (p, &v) in values.iter().enumerate() {
                    let a_p = g.slice_cols(alpha, p, 1);
                    let contrib = g.mul_col(v, a_p);
                    acc = Some(match acc {
                        Some(prev) => g.add(prev, contrib),
                        None => contrib,
                    });
                }
                acc
            } else {
                // Uniform mean aggregation (ablation path / single fanin).
                let mut acc = values[0];
                for &v in &values[1..] {
                    acc = g.add(acc, v);
                }
                Some(g.scale(acc, 1.0 / group.arity as f32))
            }
        };

        let msg = msg.unwrap_or(h0_v);
        let new = gated_update(g, h_v, msg, Some(h0_v), up);
        table.update(new, &group.nodes);
    }
}

/// Parameter handles for one gated update.
#[derive(Debug, Clone, Copy)]
struct GateWeights {
    wz: Var,
    uz: Var,
    vz: Option<Var>,
    bz: Var,
    wh: Var,
    uh: Var,
    vh: Option<Var>,
    bh: Var,
}

/// GRU-style gated state update:
/// `z = σ(hWz + mUz [+ h0Vz] + bz)`, `h̃ = tanh(hWh + mUh [+ h0Vh] + bh)`,
/// `h' = (1−z)∘h + z∘h̃` — the asynchronous-update family the DeepSeq line
/// established and MOSS adopts (§IV-B).
fn gated_update(g: &mut Graph, h: Var, m: Var, h0: Option<Var>, w: &GateWeights) -> Var {
    let (n, d) = g.value(h).shape();
    let mut zsum = {
        let a = g.matmul(h, w.wz);
        let b = g.matmul(m, w.uz);
        g.add(a, b)
    };
    if let (Some(h0), Some(vz)) = (h0, w.vz) {
        let c = g.matmul(h0, vz);
        zsum = g.add(zsum, c);
    }
    let zsum = g.add_row(zsum, w.bz);
    let z = g.sigmoid(zsum);
    let mut hsum = {
        let a = g.matmul(h, w.wh);
        let b = g.matmul(m, w.uh);
        g.add(a, b)
    };
    if let (Some(h0), Some(vh)) = (h0, w.vh) {
        let c = g.matmul(h0, vh);
        hsum = g.add(hsum, c);
    }
    let hsum = g.add_row(hsum, w.bh);
    let cand = g.tanh(hsum);
    let ones = g.input(Tensor::full(n, d, 1.0));
    let keep = g.sub(ones, z);
    let a = g.mul(keep, h);
    let b = g.mul(z, cand);
    g.add(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitGraph;
    use crate::clustering::Clustering;
    use moss_netlist::{CellKind, Levelization, Netlist};
    use moss_tensor::Adam;

    fn ring_counter() -> Netlist {
        let mut nl = Netlist::new("ring");
        let a = nl.add_input("en");
        let f1 = nl.add_cell(CellKind::Dff, "r1", &[a]).unwrap();
        let inv = nl.add_cell(CellKind::Inv, "u1", &[f1]).unwrap();
        let x = nl.add_cell(CellKind::Xor2, "u2", &[inv, a]).unwrap();
        let f2 = nl.add_cell(CellKind::Dff, "r2", &[x]).unwrap();
        nl.add_output("q", f2);
        nl
    }

    fn graph_for(nl: &Netlist, d_in: usize) -> CircuitGraph {
        let n = nl.node_count();
        let mut features = Tensor::zeros(n, d_in);
        for i in 0..n {
            for j in 0..d_in {
                features.set(i, j, ((i * 31 + j * 7) % 13) as f32 / 13.0 - 0.5);
            }
        }
        let clusters = Clustering {
            assignment: (0..n).map(|i| i % 2).collect(),
            count: 2,
        };
        CircuitGraph::new(nl, &Levelization::of(nl).unwrap(), features, clusters).unwrap()
    }

    #[test]
    fn forward_shapes() {
        let nl = ring_counter();
        let circuit = graph_for(&nl, 8);
        let mut store = ParamStore::new();
        let gnn = CircuitGnn::new(GnnConfig::small(8), &mut store, 3);
        let mut g = Graph::new();
        let out = gnn.forward(&mut g, &store, &circuit);
        assert_eq!(g.value(out.states).shape(), (nl.node_count(), 16));
        assert_eq!(g.value(out.graph_embedding).shape(), (1, 16));
    }

    #[test]
    fn two_phase_moves_dff_states() {
        let nl = ring_counter();
        let circuit = graph_for(&nl, 8);
        let mut store = ParamStore::new();
        let mut cfg = GnnConfig::small(8);
        let gnn = CircuitGnn::new(cfg, &mut store, 3);
        let mut g = Graph::new();
        let out = gnn.forward(&mut g, &store, &circuit);
        let dff = nl.find("r2").unwrap().index();
        let with_phase = g.value(out.states).row_slice(dff).to_vec();
        let h0 = g.value(out.h0).row_slice(dff).to_vec();
        assert_ne!(with_phase, h0, "turnaround updated the DFF");

        // Without the turnaround phase DFF states stay at h0.
        cfg.two_phase = false;
        let mut store2 = ParamStore::new();
        let gnn2 = CircuitGnn::new(cfg, &mut store2, 3);
        let mut g2 = Graph::new();
        let out2 = gnn2.forward(&mut g2, &store2, &circuit);
        assert_eq!(
            g2.value(out2.states).row_slice(dff),
            g2.value(out2.h0).row_slice(dff)
        );
    }

    #[test]
    fn attention_starts_uniform_then_diverges_with_nonzero_keys() {
        let nl = ring_counter();
        let circuit = graph_for(&nl, 8);
        let mut cfg = GnnConfig::small(8);
        let mut store = ParamStore::new();
        let gnn = CircuitGnn::new(cfg, &mut store, 3);
        let mut g = Graph::new();
        let attn_out = gnn.forward(&mut g, &store, &circuit);
        let attn_emb = g.value(attn_out.graph_embedding).clone();

        cfg.attention = false;
        let mut store2 = ParamStore::new();
        let gnn2 = CircuitGnn::new(cfg, &mut store2, 3);
        let mut g2 = Graph::new();
        let mean_out = gnn2.forward(&mut g2, &store2, &circuit);
        let mean_emb = g2.value(mean_out.graph_embedding).clone();
        // Zero-initialized keys ⇒ uniform attention ⇒ identical to the
        // mean aggregator at initialization…
        assert!(attn_emb.distance(&mean_emb) < 1e-6, "starts as mean");

        // …and different once the keys move off zero (set every
        // aggregator's keys; only clusters with multi-pin groups engage).
        for a in 0..6 {
            let wk = store.find(&format!("gnn.agg{a}.wk")).unwrap();
            store.set(wk, Tensor::xavier(16, 16, 99 + a as u64));
        }
        let mut g3 = Graph::new();
        let moved = gnn.forward(&mut g3, &store, &circuit);
        let moved_emb = g3.value(moved.graph_embedding).clone();
        assert!(
            moved_emb.distance(&mean_emb) > 1e-7,
            "keys engage attention"
        );
    }

    #[test]
    fn trainable_end_to_end() {
        let nl = ring_counter();
        let circuit = graph_for(&nl, 8);
        let mut store = ParamStore::new();
        let gnn = CircuitGnn::new(GnnConfig::small(8), &mut store, 5);
        let mut opt = Adam::new(5e-3);
        let target = Tensor::full(1, 16, 0.3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let mut g = Graph::new();
            let out = gnn.forward(&mut g, &store, &circuit);
            let loss = g.smooth_l1(out.graph_embedding, target.clone());
            last = g.value(loss).get(0, 0);
            first.get_or_insert(last);
            let grads = g.backward(loss);
            opt.step(&mut store, &grads);
        }
        let first = first.unwrap();
        assert!(last < first * 0.5, "loss {first} → {last}");
    }

    #[test]
    fn deterministic_forward() {
        let nl = ring_counter();
        let circuit = graph_for(&nl, 8);
        let mut store = ParamStore::new();
        let gnn = CircuitGnn::new(GnnConfig::small(8), &mut store, 9);
        let mut g1 = Graph::new();
        let o1 = gnn.forward(&mut g1, &store, &circuit);
        let mut g2 = Graph::new();
        let o2 = gnn.forward(&mut g2, &store, &circuit);
        assert_eq!(g1.value(o1.states), g2.value(o2.states));
    }
}
