//! Serving-oriented embedding of bare gate-level netlists.
//!
//! The training pipeline prepares circuits through [`MossModel::prepare`],
//! which needs the RTL side of a sample (register prompts, bindings, the
//! whole-RTL text). A serving request carries none of that — just a
//! structural netlist — and must not pay an encoder forward pass per
//! request. [`NetlistEmbedder`] exploits the fact that everything the LLM
//! modality contributes to a *bare* netlist is circuit-independent: the 18
//! cell-kind description embeddings and the kind-vocabulary clustering
//! (Fig. 5) depend only on the model, so the [`KindTable`] holding both is
//! built once at construction, by the same code `MossModel::prepare` runs.
//! Per-request work is then purely structural: features, schedule, one
//! tape-free GNN pass ([`moss_gnn::CircuitGnn::infer`]), one alignment
//! projection.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use moss_gnn::CircuitGraph;
use moss_llm::{EncoderConfig, TextEncoder};
use moss_netlist::{Netlist, NetlistError};
use moss_tensor::ParamStore;

use crate::checkpoint::load_checkpoint_file;
use crate::features::{build_node_features_with, FeatureOptions};
use crate::kinds::KindTable;
use crate::model::{MossConfig, MossModel};

/// Seed for any parameter the checkpoint did not carry. Parameters bind by
/// name via `get_or_add`, so for a complete checkpoint the seed is inert.
const BIND_SEED: u64 = 0x5e12e;

/// A loaded MOSS model specialized for embedding bare netlists: weights
/// plus the precomputed cell-kind embeddings and kind-vocabulary
/// clustering.
#[derive(Debug)]
pub struct NetlistEmbedder {
    model: MossModel,
    store: ParamStore,
    kinds: KindTable,
    /// Empty maps: bare netlists carry no register prompts.
    no_regs: HashMap<String, Vec<f32>>,
    no_bindings: HashMap<usize, String>,
}

/// The encoder preset the pipeline pairs with a given LLM width: `tiny`
/// for 16, `small` for 32, otherwise `tiny` with the width overridden.
fn encoder_config_for(d_llm: usize) -> EncoderConfig {
    if d_llm == EncoderConfig::small().d_model {
        EncoderConfig::small()
    } else {
        EncoderConfig {
            d_model: d_llm,
            ..EncoderConfig::tiny()
        }
    }
}

impl NetlistEmbedder {
    /// Builds an embedder from a config + parameter store (typically a
    /// loaded checkpoint; a fresh store gets deterministic random init).
    pub fn new(config: MossConfig, mut store: ParamStore) -> NetlistEmbedder {
        let encoder = TextEncoder::new(encoder_config_for(config.d_llm), &mut store, BIND_SEED);
        let model = MossModel::new(config, &mut store, BIND_SEED);

        // The whole LLM contribution to a bare netlist, computed once.
        let kinds = KindTable::new(&config, &encoder, &store);
        NetlistEmbedder {
            model,
            store,
            kinds,
            no_regs: HashMap::new(),
            no_bindings: HashMap::new(),
        }
    }

    /// Loads a MOSSCKP2 checkpoint and builds an embedder around it.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint I/O and validation errors.
    pub fn from_checkpoint_file<P: AsRef<Path>>(path: P) -> io::Result<NetlistEmbedder> {
        let (config, store) = load_checkpoint_file(path)?;
        Ok(NetlistEmbedder::new(config, store))
    }

    /// The model configuration.
    pub fn config(&self) -> &MossConfig {
        self.model.config()
    }

    /// Width of the served embedding (the alignment space `d_align`).
    pub fn embedding_dim(&self) -> usize {
        self.model.config().d_align
    }

    /// Builds the propagation-ready graph for one netlist: features from
    /// the precomputed tables, the fixed kind clustering, and the
    /// level/cluster/arity schedule.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Empty`] for a netlist with no nodes (such as
    /// `module m (); endmodule`), and an error if the netlist cannot be
    /// levelized (a combinational cycle).
    pub fn prepare(&self, netlist: &Netlist) -> Result<CircuitGraph, NetlistError> {
        let _sp = moss_obs::span_items("serve.prepare", netlist.node_count() as u64);
        let config = self.model.config();
        let options = FeatureOptions {
            llm_enhancement: config.variant.llm_features(),
        };
        let features = build_node_features_with(
            netlist,
            config.d_llm,
            self.kinds.embeddings(),
            &self.no_regs,
            &self.no_bindings,
            &options,
        )?;
        CircuitGraph::new(netlist, features, self.kinds.clustering(netlist))
    }

    /// Embeds one prepared circuit with the tape-free GNN pass: the
    /// L2-normalized alignment-space embedding (`d_align` floats),
    /// bit-identical to the tape forward — see
    /// [`moss_gnn::CircuitGnn::infer`].
    pub fn embed_graph(&self, circuit: &CircuitGraph) -> Vec<f32> {
        self.model.netlist_align(&self.store, circuit)
    }

    /// Prepares and embeds one netlist.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist is empty or cannot be levelized.
    pub fn embed(&self, netlist: &Netlist) -> Result<Vec<f32>, NetlistError> {
        Ok(self.embed_graph(&self.prepare(netlist)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MossVariant;
    use moss_netlist::{parse_verilog, CellKind};
    use moss_synth::{synthesize, SynthOptions};
    use moss_tensor::{Graph, Tensor};

    fn demo_netlist() -> Netlist {
        parse_verilog(
            "module t (input a, input b, output y);
               wire n_u1; wire n_r0; wire n_u2;
               NAND2_X1 u1 (.A(a), .B(b), .Y(n_u1));
               DFF_X1 r0 (.D(n_u1), .Q(n_r0));
               XOR2_X1 u2 (.A(n_r0), .B(a), .Y(n_u2));
               assign y = n_u2;
             endmodule",
        )
        .unwrap()
    }

    fn embedder() -> NetlistEmbedder {
        let config = MossConfig::small(16, MossVariant::Full);
        NetlistEmbedder::new(config, ParamStore::new())
    }

    #[test]
    fn embeds_bare_netlists_with_unit_norm() {
        let e = embedder();
        let emb = e.embed(&demo_netlist()).unwrap();
        assert_eq!(emb.len(), e.embedding_dim());
        let norm: f32 = emb.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4, "unit norm, got {norm}");
    }

    #[test]
    fn deterministic_across_instances() {
        let a = embedder().embed(&demo_netlist()).unwrap();
        let b = embedder().embed(&demo_netlist()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_module_is_an_error_not_a_panic() {
        let nl = parse_verilog("module m (); endmodule").unwrap();
        assert_eq!(nl.node_count(), 0);
        let e = embedder();
        assert_eq!(e.prepare(&nl).unwrap_err(), NetlistError::Empty);
        assert_eq!(e.embed(&nl).unwrap_err(), NetlistError::Empty);
    }

    /// The store `moss-serve`'s demo checkpoint carries: the 16-wide tiny
    /// encoder (seed 1) and the small full model (seed 2).
    fn demo_store(config: &MossConfig) -> ParamStore {
        let mut store = ParamStore::new();
        TextEncoder::new(encoder_config_for(config.d_llm), &mut store, 1);
        MossModel::new(*config, &mut store, 2);
        store
    }

    /// The tape oracle for `embed_graph`: the tape forward, then the
    /// alignment projection on the tape.
    fn tape_embedding(e: &NetlistEmbedder, circuit: &CircuitGraph) -> Vec<f32> {
        let mut g = Graph::new();
        let out = e.model.gnn.forward(&mut g, &e.store, circuit);
        let emb = g.value(out.graph_embedding).clone();
        let aligned = e.model.netlist_align_frozen(&mut g, &e.store, &emb);
        g.value(aligned).data().to_vec()
    }

    #[test]
    fn embed_graph_matches_the_tape_on_the_table1_circuits() {
        let config = MossConfig::small(16, MossVariant::Full);
        let netlists: Vec<Netlist> = moss_datagen::benchmark_suite()
            .iter()
            .map(|m| synthesize(m, &SynthOptions::default()).unwrap().netlist)
            .collect();
        let demo = NetlistEmbedder::new(config, demo_store(&config));
        // The demo weights start every attention key at zero (a uniform
        // softmax); nonzero keys and pin biases make the softmax real.
        let mut keyed = demo_store(&config);
        for a in 0..config.aggregators {
            let wk = keyed.find(&format!("gnn.agg{a}.wk")).unwrap();
            keyed.set(wk, Tensor::xavier(16, 16, 40 + a as u64));
            let bias = keyed.find(&format!("gnn.agg{a}.pin_bias")).unwrap();
            keyed.set(bias, Tensor::xavier(1, 3, 50 + a as u64));
        }
        let keyed = NetlistEmbedder::new(config, keyed);
        for e in [&demo, &keyed] {
            for nl in &netlists {
                let circuit = e.prepare(nl).unwrap();
                let served = e.embed_graph(&circuit);
                let tape = tape_embedding(e, &circuit);
                let bytes = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bytes(&served), bytes(&tape), "{}", nl.name());
            }
        }
    }

    #[test]
    fn combinational_cycle_is_an_error_not_a_panic() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a");
        let g1 = nl.add_cell(CellKind::And2, "u1", &[a, a]).unwrap();
        let g2 = nl.add_cell(CellKind::Inv, "u2", &[g1]).unwrap();
        nl.replace_fanin(g1, 1, g2).unwrap();
        nl.add_output("y", g2);
        let e = embedder();
        assert!(e.prepare(&nl).is_err());
    }
}
