//! # moss-gnn
//!
//! The graph-neural-network modality of the MOSS reproduction (§IV-B):
//!
//! - [`cluster_nodes`]: DBSCAN + agglomerative refinement over LLM-derived
//!   node embeddings and fan-in/fan-out structure — the *adaptive
//!   aggregator* assignment of Fig. 5;
//! - [`CircuitGraph`]: a netlist preprocessed into a level-ordered,
//!   cluster/arity-batched update schedule with DFFs as sequential
//!   boundaries (pseudo primary inputs/outputs);
//! - [`CircuitGnn`]: per-cluster attention aggregators with edge positional
//!   encoding, *two-phase asynchronous temporal propagation* (forward
//!   PI→DFF, then turnaround feedback; Fig. 4b), and mean-pooling readout
//!   (Fig. 4c). Ablation switches reproduce the paper's "w/o adaptive
//!   aggregator" and single-phase variants. [`CircuitGnn::forward`] builds
//!   the pass on the autograd tape for training; [`CircuitGnn::infer`]
//!   computes the same values bit for bit without one, for serving and
//!   frozen-trunk embeddings.
//!
//! ## Example
//!
//! ```
//! use moss_gnn::{CircuitGnn, CircuitGraph, Clustering, GnnConfig};
//! use moss_netlist::{CellKind, Levelization, Netlist};
//! use moss_tensor::{Graph, ParamStore, Tensor};
//!
//! let mut nl = Netlist::new("t");
//! let a = nl.add_input("a");
//! let ff = nl.add_cell(CellKind::Dff, "r", &[a])?;
//! nl.add_output("q", ff);
//! let n = nl.node_count();
//! let clusters = Clustering { assignment: vec![0; n], count: 1 };
//! let levels = Levelization::of(&nl)?;
//! let circuit = CircuitGraph::new(&nl, &levels, Tensor::zeros(n, 4), clusters)?;
//!
//! let mut store = ParamStore::new();
//! let gnn = CircuitGnn::new(GnnConfig::small(4), &mut store, 1);
//! let mut g = Graph::new();
//! let out = gnn.forward(&mut g, &store, &circuit);
//! assert_eq!(g.value(out.graph_embedding).shape(), (1, 16));
//! # Ok::<(), moss_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod circuit;
mod clustering;
mod infer;
mod model;
mod state_table;

pub use circuit::{CircuitGraph, Group};
pub use clustering::{cluster_nodes, ClusterConfig, Clustering};
pub use infer::Inference;
pub use model::{CircuitGnn, GnnConfig, GnnOutput};
pub use state_table::StateTable;
