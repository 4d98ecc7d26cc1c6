//! Reimplementation of the DeepSeq2 baseline (Khan et al., arXiv
//! 2411.00530) per its public description: uniform (type-agnostic) gated
//! aggregation, asynchronous level-by-level updates with a two-phase
//! forward/turnaround schedule, *disentangled* function/timing sub-states,
//! and compressed-truth-table supervision — which we realize as signal-
//! probability supervision, the canonical single-number compression of a
//! node's truth table under random inputs.
//!
//! The baseline is evaluated on the same standard-cell graphs as MOSS
//! (rather than its native AIGs, which [`moss_synth::lower_to_aig`]
//! produces) so its Table I numbers are directly comparable; this choice
//! favors the baseline, making MOSS's margin conservative.

use std::collections::HashMap;

use moss_gnn::{CircuitGraph, Clustering, StateTable};
use moss_netlist::{CellLibrary, NodeKind};
use moss_tensor::{Graph, ParamId, ParamStore, Tensor, Var};

use crate::features::{build_node_features, FeatureOptions, STRUCT_DIM};
use crate::model::{Predictions, Prepared};
use crate::sample::CircuitSample;

/// DeepSeq2 hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeepSeq2Config {
    /// Width of *each* disentangled sub-state (function and timing).
    pub d_state: usize,
    /// Two-phase propagation rounds.
    pub iterations: usize,
    /// Feature width placeholder so prepared circuits line up with the MOSS
    /// pipeline (the LLM slots are zeroed).
    pub d_llm: usize,
}

impl DeepSeq2Config {
    /// Small CPU-friendly defaults.
    pub fn small(d_llm: usize) -> DeepSeq2Config {
        DeepSeq2Config {
            d_state: 8,
            iterations: 4,
            d_llm,
        }
    }
}

/// The baseline model.
#[derive(Debug, Clone)]
pub struct DeepSeq2 {
    config: DeepSeq2Config,
    w_in: ParamId,
    b_in: ParamId,
    // Gated update (shared across all node types — the uniform aggregator).
    wz: ParamId,
    uz: ParamId,
    bz: ParamId,
    wh: ParamId,
    uh: ParamId,
    bh: ParamId,
    // Heads: function sub-state drives toggle/probability/power, timing
    // sub-state drives arrival (the disentanglement).
    w_toggle: ParamId,
    b_toggle: ParamId,
    w_prob: ParamId,
    b_prob: ParamId,
    w_at: ParamId,
    b_at: ParamId,
    w_act: ParamId,
    b_act: ParamId,
}

/// DeepSeq2 loss handles.
#[derive(Debug, Clone, Copy)]
pub struct DeepSeq2Losses {
    /// Toggle loss.
    pub toggle: Var,
    /// Probability (compressed-truth-table) loss.
    pub probability: Var,
    /// Arrival-time loss.
    pub arrival: Var,
    /// Power loss.
    pub power: Var,
}

impl DeepSeq2 {
    /// Registers parameters into `store`.
    pub fn new(config: DeepSeq2Config, store: &mut ParamStore, seed: u64) -> DeepSeq2 {
        let d_in = STRUCT_DIM + config.d_llm;
        let d = config.d_state * 2; // function ⊕ timing
        let mk = |store: &mut ParamStore, name: &str, r: usize, c: usize, s: u64| {
            store.get_or_add(name, Tensor::xavier(r, c, s))
        };
        DeepSeq2 {
            w_in: mk(store, "ds2.w_in", d_in, d, seed),
            b_in: store.get_or_add("ds2.b_in", Tensor::zeros(1, d)),
            wz: mk(store, "ds2.wz", d, d, seed + 1),
            uz: mk(store, "ds2.uz", d, d, seed + 2),
            bz: store.get_or_add("ds2.bz", Tensor::zeros(1, d)),
            wh: mk(store, "ds2.wh", d, d, seed + 3),
            uh: mk(store, "ds2.uh", d, d, seed + 4),
            bh: store.get_or_add("ds2.bh", Tensor::zeros(1, d)),
            w_toggle: mk(store, "ds2.head.toggle.w", config.d_state, 1, seed + 5),
            b_toggle: store.get_or_add("ds2.head.toggle.b", Tensor::zeros(1, 1)),
            w_prob: mk(store, "ds2.head.prob.w", config.d_state, 1, seed + 6),
            b_prob: store.get_or_add("ds2.head.prob.b", Tensor::zeros(1, 1)),
            w_at: mk(store, "ds2.head.at.w", config.d_state, 1, seed + 7),
            b_at: store.get_or_add("ds2.head.at.b", Tensor::zeros(1, 1)),
            w_act: mk(store, "ds2.head.act.w", config.d_state, 1, seed + 8),
            b_act: store.get_or_add("ds2.head.act.b", Tensor::zeros(1, 1)),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DeepSeq2Config {
        &self.config
    }

    /// Prepares a sample for the baseline: same pipeline as MOSS but with
    /// LLM features disabled and a single uniform aggregator cluster.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist cannot be levelized.
    pub fn prepare(
        &self,
        sample: &CircuitSample,
        encoder: &moss_llm::TextEncoder,
        store: &ParamStore,
        lib: &CellLibrary,
        clock_mhz: f64,
    ) -> Result<Prepared, moss_netlist::NetlistError> {
        // Reuse the MOSS preparation minus LLM features and clustering.
        let features = build_node_features(
            &sample.netlist,
            encoder,
            store,
            &HashMap::new(),
            &sample.register_descs,
            &sample.bindings,
            &FeatureOptions {
                llm_enhancement: false,
            },
        )?;
        let n = sample.netlist.node_count();
        let circuit = CircuitGraph::new(
            &sample.netlist,
            features,
            Clustering {
                assignment: vec![0; n],
                count: 1,
            },
        )?;
        let cell_nodes: Vec<usize> = sample
            .netlist
            .node_ids()
            .filter(|&id| matches!(sample.netlist.kind(id), NodeKind::Cell(_)))
            .map(|id| id.index())
            .collect();
        let dff_nodes: Vec<usize> = sample.labels.arrival_ns.iter().map(|&(i, _)| i).collect();
        let pick = |v: &[f32]| -> Vec<f32> { cell_nodes.iter().map(|&i| v[i]).collect() };
        Ok(Prepared {
            name: sample.name.clone(),
            toggle_target: Tensor::from_vec(pick(&sample.labels.toggle), cell_nodes.len(), 1),
            prob_target: Tensor::from_vec(pick(&sample.labels.probability), cell_nodes.len(), 1),
            arrival_target: Tensor::from_vec(
                sample.labels.arrival_ns.iter().map(|&(_, a)| a).collect(),
                dff_nodes.len(),
                1,
            ),
            energy_vec: Tensor::from_vec(
                cell_nodes
                    .iter()
                    .map(
                        |&i| match sample.netlist.kind(moss_netlist::NodeId::new(i)) {
                            NodeKind::Cell(k) => {
                                lib.timing(k).switch_energy_fj as f32 * clock_mhz as f32
                            }
                            _ => 0.0,
                        },
                    )
                    .collect(),
                cell_nodes.len(),
                1,
            ),
            leakage_nw: sample.labels.leakage_nw,
            true_power_nw: sample.labels.total_power_nw,
            reg_embs: Tensor::zeros(1, self.config.d_llm),
            dff_reg_index: vec![0; dff_nodes.len()],
            rtl_windows: Vec::new(),
            circuit,
            cell_nodes,
            dff_nodes,
        })
    }

    /// Forward pass: gated uniform aggregation over the two-phase schedule.
    fn forward(&self, g: &mut Graph, store: &ParamStore, circuit: &CircuitGraph) -> Var {
        let x = g.input(circuit.features.clone());
        let w_in = g.param(self.w_in, store);
        let b_in = g.param(self.b_in, store);
        let proj = g.matmul(x, w_in);
        let proj = g.add_row(proj, b_in);
        let h0 = g.tanh(proj);
        let (wz, uz, bz) = (
            g.param(self.wz, store),
            g.param(self.uz, store),
            g.param(self.bz, store),
        );
        let (wh, uh, bh) = (
            g.param(self.wh, store),
            g.param(self.uh, store),
            g.param(self.bh, store),
        );
        let d = self.config.d_state * 2;

        let mut table = StateTable::new(h0, circuit.node_count);
        for _ in 0..self.config.iterations {
            for group in circuit
                .comb_schedule
                .iter()
                .chain(circuit.dff_schedule.iter())
            {
                if group.arity == 0 {
                    continue;
                }
                let h_v = table.gather(g, &group.nodes);
                // Uniform mean aggregation over fanins.
                let mut msg = table.gather(g, &group.fanins[0]);
                for p in 1..group.arity {
                    let m = table.gather(g, &group.fanins[p]);
                    msg = g.add(msg, m);
                }
                let msg = g.scale(msg, 1.0 / group.arity as f32);
                // GRU-style gate.
                let hz = g.matmul(h_v, wz);
                let mz = g.matmul(msg, uz);
                let zsum = g.add(hz, mz);
                let zsum = g.add_row(zsum, bz);
                let z = g.sigmoid(zsum);
                let hh = g.matmul(h_v, wh);
                let mh = g.matmul(msg, uh);
                let hsum = g.add(hh, mh);
                let hsum = g.add_row(hsum, bh);
                let cand = g.tanh(hsum);
                let ones = g.input(Tensor::full(group.nodes.len(), d, 1.0));
                let keep = g.sub(ones, z);
                let a = g.mul(keep, h_v);
                let b_ = g.mul(z, cand);
                let new = g.add(a, b_);
                table.update(new, &group.nodes);
            }
        }
        table.assemble(g)
    }

    /// Builds losses for one prepared circuit.
    pub fn losses(&self, g: &mut Graph, store: &ParamStore, prep: &Prepared) -> DeepSeq2Losses {
        let states = self.forward(g, store, &prep.circuit);
        let ds = self.config.d_state;
        let cells = g.gather_rows(states, &prep.cell_nodes);
        let func = g.slice_cols(cells, 0, ds);
        let toggle_pred = self.head(g, store, func, self.w_toggle, self.b_toggle, true);
        let prob_pred = self.head(g, store, func, self.w_prob, self.b_prob, true);
        let dffs = g.gather_rows(states, &prep.dff_nodes);
        let timing = g.slice_cols(dffs, ds, ds);
        let at_pred = self.head(g, store, timing, self.w_at, self.b_at, false);
        let act = self.head(g, store, func, self.w_act, self.b_act, true);
        let energy = g.input(prep.energy_vec.clone());
        let dyn_nw = g.mul(act, energy);
        let total_dyn = g.sum_all(dyn_nw);
        let scale = 1.0 / prep.true_power_nw.max(1e-9) as f32;
        let dyn_ratio = g.scale(total_dyn, scale);
        let leak = g.input(Tensor::from_rows(&[&[prep.leakage_nw as f32 * scale]]));
        let total_ratio = g.add(dyn_ratio, leak);

        let toggle_w = prep.toggle_target.map(|t| 1.0 / t.abs().max(0.05));
        let at_w = prep.arrival_target.map(|t| 1.0 / t.abs().max(0.05));
        DeepSeq2Losses {
            toggle: g.smooth_l1_weighted(toggle_pred, prep.toggle_target.clone(), toggle_w),
            probability: g.smooth_l1(prob_pred, prep.prob_target.clone()),
            arrival: g.smooth_l1_weighted(at_pred, prep.arrival_target.clone(), at_w),
            power: g.smooth_l1(total_ratio, Tensor::from_rows(&[&[1.0]])),
        }
    }

    /// Inference predictions (same shape as the MOSS model's).
    pub fn predict(&self, store: &ParamStore, prep: &Prepared) -> Predictions {
        let mut g = Graph::new();
        let states = self.forward(&mut g, store, &prep.circuit);
        let ds = self.config.d_state;
        let cells = g.gather_rows(states, &prep.cell_nodes);
        let func = g.slice_cols(cells, 0, ds);
        let toggle_pred = self.head(&mut g, store, func, self.w_toggle, self.b_toggle, true);
        let dffs = g.gather_rows(states, &prep.dff_nodes);
        let timing = g.slice_cols(dffs, ds, ds);
        let at_pred = self.head(&mut g, store, timing, self.w_at, self.b_at, false);
        let act = self.head(&mut g, store, func, self.w_act, self.b_act, true);
        let energy = g.input(prep.energy_vec.clone());
        let dyn_nw = g.mul(act, energy);
        let total_dyn = g.sum_all(dyn_nw);
        Predictions {
            toggle: g.value(toggle_pred).data().to_vec(),
            arrival_ns: g
                .value(at_pred)
                .data()
                .iter()
                .map(|&a| a.max(0.0))
                .collect(),
            power_nw: g.value(total_dyn).get(0, 0) as f64 + prep.leakage_nw,
            netlist_align: Vec::new(),
        }
    }

    fn head(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        states: Var,
        w: ParamId,
        b: ParamId,
        squash: bool,
    ) -> Var {
        let wv = g.param(w, store);
        let bv = g.param(b, store);
        let o = g.matmul(states, wv);
        let o = g.add_row(o, bv);
        if squash {
            g.sigmoid(o)
        } else {
            o
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::SampleOptions;
    use moss_llm::{EncoderConfig, TextEncoder};

    fn setup() -> (DeepSeq2, ParamStore, Prepared) {
        let m = moss_rtl::parse(
            "module t(input clk, input [2:0] d, output [2:0] q);
               reg [2:0] s = 0;
               always @(posedge clk) s <= s ^ d;
               assign q = s;
             endmodule",
        )
        .unwrap();
        let lib = CellLibrary::default();
        let sample = CircuitSample::build(
            &m,
            &lib,
            &SampleOptions {
                sim_cycles: 128,
                ..SampleOptions::default()
            },
        )
        .unwrap();
        let mut store = ParamStore::new();
        let enc = TextEncoder::new(EncoderConfig::tiny(), &mut store, 1);
        let model = DeepSeq2::new(DeepSeq2Config::small(16), &mut store, 7);
        let prep = model.prepare(&sample, &enc, &store, &lib, 500.0).unwrap();
        (model, store, prep)
    }

    #[test]
    fn losses_finite_and_trainable() {
        let (model, mut store, prep) = setup();
        let mut opt = moss_tensor::Adam::new(5e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..15 {
            let mut g = Graph::new();
            let l = model.losses(&mut g, &store, &prep);
            let s1 = g.add(l.toggle, l.probability);
            let s2 = g.add(l.arrival, l.power);
            let total = g.add(s1, s2);
            last = g.value(total).get(0, 0);
            first.get_or_insert(last);
            assert!(last.is_finite());
            let grads = g.backward(total);
            opt.step(&mut store, &grads);
        }
        assert!(last < first.unwrap());
    }

    #[test]
    fn predictions_match_label_shapes() {
        let (model, store, prep) = setup();
        let p = model.predict(&store, &prep);
        assert_eq!(p.toggle.len(), prep.cell_nodes.len());
        assert_eq!(p.arrival_ns.len(), prep.dff_nodes.len());
        assert!(p.power_nw > 0.0);
    }
}
