//! LLM-enhanced node feature construction (paper Fig. 2A / Fig. 4a).
//!
//! Every node gets structural features (one-hot cell class, fan-in/fan-out,
//! level, role flags) concatenated with the LLM embedding of its cell
//! datasheet description. DFF "anchor points" additionally get the LLM
//! embedding of their register-description prompt *overlaid* (added) onto
//! the cell-description slot, exactly as §IV-B describes.

use std::collections::HashMap;

use moss_llm::TextEncoder;
use moss_netlist::{CellKind, Levelization, Netlist, NodeKind};
use moss_rtl::RegisterDescription;
use moss_synth::DffBinding;
use moss_tensor::{ParamStore, Tensor};

/// Width of the structural feature block.
pub const STRUCT_DIM: usize = CellKind::ALL.len() + 8;

/// Feature construction options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureOptions {
    /// Include LLM embeddings (the "F" in the w/o FAA ablation). When
    /// disabled the LLM slots carry only a one-hot cell class.
    pub llm_enhancement: bool,
}

impl Default for FeatureOptions {
    fn default() -> Self {
        FeatureOptions {
            llm_enhancement: true,
        }
    }
}

/// Builds the node feature matrix of a synthesized netlist,
/// `node_count × (STRUCT_DIM + d_llm)`.
///
/// `levels` is the netlist's levelization, which the caller shares with
/// [`moss_gnn::CircuitGraph::new`]. `kind_emb` is the cell-description
/// embedding of every [`CellKind`] (circuit-independent, so callers
/// compute it once per encoder snapshot; read only with LLM enhancement
/// on). `register_descs` are the RTL register prompts (from
/// [`moss_rtl::describe_registers`]) and `bindings` map DFFs to register
/// bits (from synthesis); both come from the same design.
// The netlist, its levelization, the encoder and its store, the kind
// table, the design's two register tables and the options are all
// independent inputs.
#[allow(clippy::too_many_arguments)]
pub fn build_node_features(
    netlist: &Netlist,
    levels: &Levelization,
    encoder: &TextEncoder,
    store: &ParamStore,
    kind_emb: &HashMap<CellKind, Vec<f32>>,
    register_descs: &[RegisterDescription],
    bindings: &[DffBinding],
    options: &FeatureOptions,
) -> Tensor {
    let d_llm = encoder.config().d_model;

    // Register-prompt embeddings per register name.
    let mut reg_emb: HashMap<String, Vec<f32>> = HashMap::new();
    if options.llm_enhancement {
        let prompts: Vec<&str> = register_descs.iter().map(|rd| rd.prompt.as_str()).collect();
        let embs = encoder.embed_batch(store, &prompts);
        for (rd, e) in register_descs.iter().zip(embs) {
            reg_emb.insert(rd.name.clone(), e.data().to_vec());
        }
    }
    let dff_to_reg: HashMap<usize, String> = bindings
        .iter()
        .map(|b| (b.dff.index(), b.register_name.clone()))
        .collect();

    build_node_features_with(
        netlist,
        levels,
        d_llm,
        kind_emb,
        &reg_emb,
        &dff_to_reg,
        options,
    )
}

/// The table-driven core of [`build_node_features`]: structural features
/// plus LLM lookups from *precomputed* embedding maps. A serving layer
/// calls this per request with no register prompts, so no encoder forward
/// pass sits on the request path; the training pipeline goes through the
/// public wrapper above. One shared implementation keeps the two paths
/// bit-identical.
pub(crate) fn build_node_features_with(
    netlist: &Netlist,
    levels: &Levelization,
    d_llm: usize,
    kind_emb: &HashMap<CellKind, Vec<f32>>,
    reg_emb: &HashMap<String, Vec<f32>>,
    dff_to_reg: &HashMap<usize, String>,
    options: &FeatureOptions,
) -> Tensor {
    let n = netlist.node_count();
    let max_level = levels.max_level().max(1) as f32;
    // Each cell kind's embedding, unit-normalized once per call.
    let mut kind_unit: Vec<Option<Vec<f32>>> = vec![None; CellKind::ALL.len()];
    if options.llm_enhancement {
        for (kind, v) in kind_emb {
            kind_unit[kind.index()] = Some(normalized(v));
        }
    }

    let width = STRUCT_DIM + d_llm;
    let mut matrix = Tensor::zeros(n, width);
    for id in netlist.node_ids() {
        let i = id.index();
        let fan_in = netlist.fanins(id).len() as f32;
        let fan_out = netlist.fanouts(id).len() as f32;

        // Structural block.
        match netlist.kind(id) {
            NodeKind::Cell(kind) => matrix.set(i, kind.index(), 1.0),
            NodeKind::PrimaryInput => matrix.set(i, CellKind::ALL.len(), 0.0),
            NodeKind::PrimaryOutput => {}
        }
        let base = CellKind::ALL.len();
        matrix.set(i, base, (fan_in / 3.0).min(2.0));
        matrix.set(i, base + 1, (fan_out / 8.0).min(2.0));
        matrix.set(i, base + 2, levels.level(id) as f32 / max_level);
        matrix.set(i, base + 3, netlist.kind(id).is_dff() as u8 as f32);
        matrix.set(
            i,
            base + 4,
            (netlist.kind(id) == NodeKind::PrimaryInput) as u8 as f32,
        );
        matrix.set(
            i,
            base + 5,
            (netlist.kind(id) == NodeKind::PrimaryOutput) as u8 as f32,
        );
        // Absolute depth features: arrival time scales with the raw level,
        // not the per-circuit-normalized one, so expose both the node's own
        // level and the design's total depth on a fixed scale.
        matrix.set(i, base + 6, (levels.level(id) as f32 / 32.0).min(4.0));
        matrix.set(i, base + 7, (max_level / 32.0).min(4.0));

        // LLM block: cell description (+ register prompt overlay on DFFs).
        // Each embedding is L2-normalized before use so unseen designs'
        // register prompts cannot push DFF features outside the scale the
        // GNN trained on.
        let llm = &mut matrix.data_mut()[i * width + STRUCT_DIM..(i + 1) * width];
        if options.llm_enhancement {
            if let NodeKind::Cell(kind) = netlist.kind(id) {
                let cell_vec = kind_unit[kind.index()]
                    .as_ref()
                    .unwrap_or_else(|| panic!("no embedding for cell kind {kind:?}"));
                for (slot, &v) in llm.iter_mut().zip(cell_vec) {
                    *slot = v;
                }
                if kind.is_sequential() {
                    if let Some(reg) = dff_to_reg.get(&i) {
                        if let Some(rv) = reg_emb.get(reg) {
                            for (slot, v) in llm.iter_mut().zip(normalized(rv)) {
                                *slot += v;
                            }
                        }
                    }
                }
            }
        } else if let NodeKind::Cell(kind) = netlist.kind(id) {
            // Without LLM enhancement, the slot falls back to the pure
            // one-hot class signal.
            llm[kind.index() % d_llm] = 1.0;
        }
    }

    matrix
}

/// Unit-normalizes a vector (returns zeros for a zero vector).
fn normalized(v: &[f32]) -> Vec<f32> {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm < 1e-12 {
        return v.to_vec();
    }
    v.iter().map(|x| x / norm).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::KindTable;
    use crate::model::{MossConfig, MossVariant};
    use moss_llm::EncoderConfig;

    fn kind_embeddings(enc: &TextEncoder, store: &ParamStore) -> HashMap<CellKind, Vec<f32>> {
        let config = MossConfig::small(16, MossVariant::Full);
        KindTable::new(&config, enc, store).embeddings().clone()
    }

    /// The LLM slice of one node's feature row.
    fn llm_slice(f: &Tensor, node: usize) -> &[f32] {
        &f.row_slice(node)[STRUCT_DIM..]
    }

    fn setup() -> (Netlist, TextEncoder, ParamStore, Vec<DffBinding>) {
        let m = moss_rtl::parse(
            "module c(input clk, output [1:0] q);
               reg [1:0] s = 0;
               always @(posedge clk) s <= s + 2'd1;
               assign q = s;
             endmodule",
        )
        .unwrap();
        let synth = moss_synth::synthesize(&m, &moss_synth::SynthOptions::default()).unwrap();
        let mut store = ParamStore::new();
        let enc = TextEncoder::new(EncoderConfig::tiny(), &mut store, 1);
        (synth.netlist, enc, store, synth.dffs)
    }

    #[test]
    fn shapes_and_flags() {
        let (nl, enc, store, bindings) = setup();
        let m = moss_rtl::parse(
            "module c(input clk, output [1:0] q);
               reg [1:0] s = 0;
               always @(posedge clk) s <= s + 2'd1;
               assign q = s;
             endmodule",
        )
        .unwrap();
        let descs = moss_rtl::describe_registers(&m);
        let f = build_node_features(
            &nl,
            &Levelization::of(&nl).unwrap(),
            &enc,
            &store,
            &kind_embeddings(&enc, &store),
            &descs,
            &bindings,
            &FeatureOptions::default(),
        );
        assert_eq!(f.rows(), nl.node_count());
        assert_eq!(f.cols(), STRUCT_DIM + 16);
        // DFF flag set exactly on DFFs.
        for id in nl.node_ids() {
            let flag = f.get(id.index(), CellKind::ALL.len() + 3);
            assert_eq!(flag == 1.0, nl.kind(id).is_dff());
        }
    }

    #[test]
    fn dff_overlay_distinguishes_dffs_from_bare_cell_embedding() {
        let (nl, enc, store, bindings) = setup();
        let m = moss_rtl::parse(
            "module c(input clk, output [1:0] q);
               reg [1:0] s = 0;
               always @(posedge clk) s <= s + 2'd1;
               assign q = s;
             endmodule",
        )
        .unwrap();
        let descs = moss_rtl::describe_registers(&m);
        let f = build_node_features(
            &nl,
            &Levelization::of(&nl).unwrap(),
            &enc,
            &store,
            &kind_embeddings(&enc, &store),
            &descs,
            &bindings,
            &FeatureOptions::default(),
        );
        let dff = nl.dffs()[0];
        let plain_dff_emb = enc.embed_text(&store, CellKind::Dff.description());
        let stored = llm_slice(&f, dff.index());
        let diff: f32 = stored
            .iter()
            .zip(plain_dff_emb.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4, "register prompt overlaid on the DFF slot");
    }

    #[test]
    fn no_llm_mode_zeroes_embeddings() {
        let (nl, enc, store, bindings) = setup();
        let f = build_node_features(
            &nl,
            &Levelization::of(&nl).unwrap(),
            &enc,
            &store,
            &HashMap::new(),
            &[],
            &bindings,
            &FeatureOptions {
                llm_enhancement: false,
            },
        );
        // Fallback one-hot: each llm slice sums to ≤ 1.
        for id in nl.node_ids() {
            let sum: f32 = llm_slice(&f, id.index()).iter().sum();
            assert!(sum <= 1.0 + 1e-6);
        }
    }
}
