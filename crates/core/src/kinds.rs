//! The cell-kind vocabulary table shared by training and serving.
//!
//! Everything the LLM modality contributes to the *cells* of a netlist is
//! circuit-independent: the 18 cell-kind description embeddings, and the
//! kind-vocabulary clustering (Fig. 5) that assigns each kind its
//! aggregator. [`KindTable`] computes both once per encoder snapshot — once
//! per [`crate::MossModel::prepare`] call, once per
//! [`crate::NetlistEmbedder`] — so training and serving share one
//! implementation and cannot drift apart.

use std::collections::HashMap;

use moss_gnn::{cluster_nodes, ClusterConfig, Clustering};
use moss_llm::TextEncoder;
use moss_netlist::{CellKind, Netlist, NodeKind};
use moss_tensor::ParamStore;

use crate::model::MossConfig;

/// Kind embeddings plus the per-kind aggregator assignment.
#[derive(Debug, Clone)]
pub(crate) struct KindTable {
    /// Unnormalized cell-description embedding per kind (feature
    /// construction normalizes); empty when the variant uses neither LLM
    /// features nor the adaptive aggregator.
    embeddings: HashMap<CellKind, Vec<f32>>,
    /// Aggregator per cell-kind index.
    assignment: Vec<usize>,
    /// Number of aggregators in use.
    count: usize,
    /// The aggregator ports ride with: the buffer's (wire-like) family.
    wire_cluster: usize,
}

impl KindTable {
    /// Embeds the cell-kind descriptions with `encoder` and clusters them
    /// as `config`'s variant requires.
    pub(crate) fn new(config: &MossConfig, encoder: &TextEncoder, store: &ParamStore) -> KindTable {
        let variant = config.variant;
        let mut embeddings = HashMap::new();
        if variant.llm_features() || variant.adaptive_aggregator() {
            let descs: Vec<&str> = CellKind::ALL.iter().map(|k| k.description()).collect();
            let embs = encoder.embed_batch(store, &descs);
            for (kind, e) in CellKind::ALL.into_iter().zip(embs) {
                embeddings.insert(kind, e.data().to_vec());
            }
        }
        let (assignment, count) = if variant.adaptive_aggregator() {
            // Cluster the *cell-kind vocabulary* (18 LLM-embedded datasheet
            // descriptions) rather than the per-circuit node embeddings, so
            // that aggregator k always sees the same functional family of
            // cells in every circuit. Per-circuit clustering would give the
            // dedicated aggregators incoherent training populations (cluster
            // 0 meaning NANDs in one design and XORs in another).
            let kind_embs: Vec<Vec<f32>> = CellKind::ALL
                .iter()
                .map(|k| embeddings[k].clone())
                .collect();
            let kind_struct: Vec<(f32, f32)> = CellKind::ALL
                .iter()
                .map(|k| (k.input_count() as f32, 1.0))
                .collect();
            let kinds = cluster_nodes(
                &kind_embs,
                &kind_struct,
                &ClusterConfig {
                    eps: config.cluster_eps,
                    min_pts: 2,
                    max_clusters: config.aggregators,
                    structure_weight: 0.25,
                },
            );
            debug_assert!(kinds.count <= config.aggregators);
            (kinds.assignment, kinds.count)
        } else {
            (vec![0; CellKind::ALL.len()], 1)
        };
        let wire_cluster = assignment[CellKind::Buf.index()];
        KindTable {
            embeddings,
            assignment,
            count,
            wire_cluster,
        }
    }

    /// The cell-description embedding per kind.
    pub(crate) fn embeddings(&self) -> &HashMap<CellKind, Vec<f32>> {
        &self.embeddings
    }

    /// The aggregator of every node of `netlist`: cells by kind, ports with
    /// the wire-like family.
    pub(crate) fn clustering(&self, netlist: &Netlist) -> Clustering {
        let assignment = netlist
            .node_ids()
            .map(|id| match netlist.kind(id) {
                NodeKind::Cell(k) => self.assignment[k.index()],
                _ => self.wire_cluster,
            })
            .collect();
        Clustering {
            assignment,
            count: self.count,
        }
    }
}
