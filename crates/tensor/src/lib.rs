//! # moss-tensor
//!
//! A small tape-based automatic-differentiation engine — the stand-in for
//! PyTorch in the MOSS reproduction. All models in this workspace (the LLM
//! text encoder, the MOSS GNN, and the DeepSeq2 baseline) train end-to-end
//! through this crate.
//!
//! - [`Tensor`]: dense row-major `f32` matrices;
//! - [`Graph`]/[`Var`]: an eager autograd tape with matmul, broadcasts,
//!   activations (GELU/tanh/sigmoid), softmax, layer norm, L2 row
//!   normalization, gather/concat/slice, and the paper's losses
//!   (smooth-L1 for Etoggle/EAT/RrNdM/RNM; symmetric row/column
//!   cross-entropy for the CLIP-style RNC loss of Fig. 6);
//! - [`Kernels`]: the one set of dense kernels every op runs through — see
//!   [`backend`]. They run runtime-dispatched SIMD microkernels ([`simd`])
//!   and fan large problems out over a persistent thread
//!   pool ([`pool`]) sized by `MOSS_THREADS`;
//! - [`ParamStore`]/[`Adam`]: named parameters and the optimizer;
//! - [`max_gradient_error`]: finite-difference gradient checking;
//! - [`save_params`]/[`load_params`]: binary checkpoints.
//!
//! ## Example: one gradient step
//!
//! ```
//! use moss_tensor::{Adam, Graph, ParamStore, Tensor};
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::xavier(2, 2, 0));
//! let mut opt = Adam::new(1e-2);
//!
//! let mut g = Graph::new();
//! let x = g.input(Tensor::from_rows(&[&[1.0, 0.5]]));
//! let wv = g.param(w, &store);
//! let y = g.matmul(x, wv);
//! let loss = g.smooth_l1(y, Tensor::row(&[1.0, -1.0]));
//! let grads = g.backward(loss);
//! opt.step(&mut store, &grads);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
mod gradcheck;
mod graph;
mod optim;
mod params;
pub mod pool;
mod serialize;
pub mod simd;
mod tensor;

pub use backend::{par_map, Kernels};
pub use gradcheck::max_gradient_error;
pub use graph::{
    l2_normalize_rows, layer_norm_rows, softmax_in_place, softmax_rows, Gradients, Graph, Var,
};
pub use optim::Adam;
pub use params::{ParamId, ParamStore};
pub use pool::{PoolStats, ThreadPool};
pub use serialize::{load_params, save_params};
pub use tensor::Tensor;
