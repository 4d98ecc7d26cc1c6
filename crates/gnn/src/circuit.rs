//! Preprocessed circuit structure for GNN propagation: the level-ordered
//! update schedule (paper Fig. 4) grouped by (level, cluster, arity).

use moss_netlist::{Levelization, Netlist, NetlistError, NodeId};
use moss_tensor::Tensor;

use crate::clustering::Clustering;

/// One batched update group: nodes at the same level, in the same cluster,
/// with the same fanin arity, so a single set of matrix ops updates all of
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Aggregator (cluster) id.
    pub cluster: usize,
    /// Fanin count of every node in this group (0–3).
    pub arity: usize,
    /// Node indices updated by this group.
    pub nodes: Vec<usize>,
    /// Per-pin fanin node indices: `fanins[p][i]` drives pin `p` of
    /// `nodes[i]`. Only the first `arity` entries are meaningful.
    pub fanins: [Vec<usize>; 3],
}

/// A netlist prepared for propagation: features, clustering, and the
/// two-phase schedule.
#[derive(Debug, Clone)]
pub struct CircuitGraph {
    /// Node feature matrix (`node_count × d_in`).
    pub features: Tensor,
    /// Node-to-aggregator assignment.
    pub clusters: Clustering,
    /// Combinational groups in ascending level order (forward phase).
    pub comb_schedule: Vec<Group>,
    /// DFF groups (turnaround phase).
    pub dff_schedule: Vec<Group>,
    /// Indices of DFF nodes, ascending.
    pub dff_nodes: Vec<usize>,
    /// Total node count (states matrix height).
    pub node_count: usize,
}

impl CircuitGraph {
    /// Builds the propagation schedule from the netlist's levelization
    /// (which the caller computes once and shares with the feature
    /// builder).
    ///
    /// `features` must have one row per netlist node; `clusters` must assign
    /// every node.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Empty`] for a netlist with no nodes.
    ///
    /// # Panics
    ///
    /// Panics if `levels`/`features`/`clusters` sizes do not match the
    /// netlist.
    pub fn new(
        netlist: &Netlist,
        levels: &Levelization,
        features: Tensor,
        clusters: Clustering,
    ) -> Result<CircuitGraph, NetlistError> {
        let n = netlist.node_count();
        if n == 0 {
            return Err(NetlistError::Empty);
        }
        assert_eq!(levels.levels().len(), n, "one level per node");
        assert_eq!(features.rows(), n, "one feature row per node");
        assert_eq!(clusters.assignment.len(), n, "one cluster per node");

        // Forward phase: combinational cells in level order, grouped by
        // (level, cluster, arity). Primary outputs ride along as arity-1
        // "wire" updates at their driver's level + 1.
        let mut keyed: Vec<(u32, usize, usize, NodeId)> = Vec::new();
        for &id in levels.topo_combinational() {
            let arity = netlist.fanins(id).len().min(3);
            keyed.push((levels.level(id), clusters.assignment[id.index()], arity, id));
        }
        for id in netlist.primary_outputs() {
            keyed.push((levels.level(id) + 1, clusters.assignment[id.index()], 1, id));
        }
        keyed.sort();
        let mut comb_schedule: Vec<Group> = Vec::new();
        let mut last_key: Option<(u32, usize, usize)> = None;
        for (level, cluster, arity, id) in keyed {
            if last_key != Some((level, cluster, arity)) {
                comb_schedule.push(Group {
                    cluster,
                    arity,
                    nodes: Vec::new(),
                    fanins: [Vec::new(), Vec::new(), Vec::new()],
                });
                last_key = Some((level, cluster, arity));
            }
            let g = comb_schedule.last_mut().expect("just pushed");
            g.nodes.push(id.index());
            for (p, &f) in netlist.fanins(id).iter().take(3).enumerate() {
                g.fanins[p].push(f.index());
            }
        }

        // Turnaround phase: DFFs grouped by cluster (all arity 1).
        let dff_nodes: Vec<usize> = netlist.dffs().iter().map(|d| d.index()).collect();
        let mut dff_schedule: Vec<Group> = Vec::new();
        let mut dff_sorted: Vec<(usize, NodeId)> = netlist
            .dffs()
            .into_iter()
            .map(|d| (clusters.assignment[d.index()], d))
            .collect();
        dff_sorted.sort();
        for (cluster, id) in dff_sorted {
            if dff_schedule.last().map(|g| g.cluster) != Some(cluster) {
                dff_schedule.push(Group {
                    cluster,
                    arity: 1,
                    nodes: Vec::new(),
                    fanins: [Vec::new(), Vec::new(), Vec::new()],
                });
            }
            let g = dff_schedule.last_mut().expect("just pushed");
            g.nodes.push(id.index());
            g.fanins[0].push(netlist.fanins(id)[0].index());
        }

        Ok(CircuitGraph {
            features,
            clusters,
            comb_schedule,
            dff_schedule,
            dff_nodes,
            node_count: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{cluster_nodes, ClusterConfig};
    use moss_netlist::CellKind;

    fn pipeline_netlist() -> Netlist {
        let mut nl = Netlist::new("p");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell(CellKind::Nand2, "u1", &[a, b]).unwrap();
        let g2 = nl.add_cell(CellKind::Inv, "u2", &[g1]).unwrap();
        let ff = nl.add_cell(CellKind::Dff, "r0", &[g2]).unwrap();
        let g3 = nl.add_cell(CellKind::Xor2, "u3", &[ff, a]).unwrap();
        let ff2 = nl.add_cell(CellKind::Dff, "r1", &[g3]).unwrap();
        nl.add_output("y", ff2);
        nl
    }

    fn trivial_clustering(n: usize) -> Clustering {
        Clustering {
            assignment: vec![0; n],
            count: 1,
        }
    }

    #[test]
    fn schedule_covers_all_comb_cells_and_outputs() {
        let nl = pipeline_netlist();
        let n = nl.node_count();
        let cg = CircuitGraph::new(
            &nl,
            &Levelization::of(&nl).unwrap(),
            Tensor::zeros(n, 4),
            trivial_clustering(n),
        )
        .unwrap();
        let scheduled: usize = cg.comb_schedule.iter().map(|g| g.nodes.len()).sum();
        // 3 comb cells + 1 primary output.
        assert_eq!(scheduled, 4);
        assert_eq!(cg.dff_nodes.len(), 2);
        let dff_scheduled: usize = cg.dff_schedule.iter().map(|g| g.nodes.len()).sum();
        assert_eq!(dff_scheduled, 2);
    }

    #[test]
    fn groups_respect_level_order() {
        let nl = pipeline_netlist();
        let n = nl.node_count();
        let cg = CircuitGraph::new(
            &nl,
            &Levelization::of(&nl).unwrap(),
            Tensor::zeros(n, 4),
            trivial_clustering(n),
        )
        .unwrap();
        // u1 (level 1) must be scheduled before u2 (level 2).
        let pos = |name: &str| {
            let id = nl.find(name).unwrap().index();
            cg.comb_schedule
                .iter()
                .position(|g| g.nodes.contains(&id))
                .unwrap()
        };
        assert!(pos("u1") < pos("u2"));
    }

    #[test]
    fn fanins_align_with_nodes() {
        let nl = pipeline_netlist();
        let n = nl.node_count();
        let cg = CircuitGraph::new(
            &nl,
            &Levelization::of(&nl).unwrap(),
            Tensor::zeros(n, 4),
            trivial_clustering(n),
        )
        .unwrap();
        for g in &cg.comb_schedule {
            for p in 0..g.arity {
                assert_eq!(g.fanins[p].len(), g.nodes.len(), "pin {p} aligned");
            }
        }
    }

    #[test]
    fn clustered_groups_split_by_cluster() {
        let nl = pipeline_netlist();
        let n = nl.node_count();
        // Cluster by arbitrary two-group embedding.
        let embs: Vec<Vec<f32>> = (0..n)
            .map(|i| vec![if i % 2 == 0 { 0.0 } else { 10.0 }])
            .collect();
        let st = vec![(1.0, 1.0); n];
        let clusters = cluster_nodes(
            &embs,
            &st,
            &ClusterConfig {
                eps: 0.5,
                min_pts: 1,
                max_clusters: 4,
                structure_weight: 0.0,
            },
        );
        let cg = CircuitGraph::new(
            &nl,
            &Levelization::of(&nl).unwrap(),
            Tensor::zeros(n, 4),
            clusters.clone(),
        )
        .unwrap();
        for g in &cg.comb_schedule {
            for &node in &g.nodes {
                assert_eq!(clusters.assignment[node], g.cluster);
            }
        }
    }
}
