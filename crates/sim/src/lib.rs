//! # moss-sim
//!
//! Event-driven gate-level simulation for the MOSS reproduction — the
//! stand-in for Synopsys VCS in the paper's ground-truth pipeline (§V-A):
//! toggle rates are collected from cycle simulations with random inputs.
//!
//! - [`GateSim`]: zero-delay, two-phase cycle simulator with event-driven
//!   settling (only gates whose fanins changed are re-evaluated) — the
//!   reference oracle;
//! - [`CompiledSim`]: the production engine — the levelized netlist lowered
//!   once into a flat, branchless truth-table instruction stream over
//!   packed `u64` net values, with toggle counting fused into the clock
//!   step. Results are bit-identical to [`GateSim`];
//! - [`simulate_random`] / [`simulate_random_compiled`] / [`toggle_rates`]:
//!   random-stimulus runs producing per-cell [`ToggleReport`]s, the
//!   supervision signal for the paper's toggle-rate prediction task.
//!
//! ## Example
//!
//! ```
//! use moss_netlist::{CellKind, Netlist};
//! use moss_sim::toggle_rates;
//!
//! let mut nl = Netlist::new("t");
//! let a = nl.add_input("a");
//! let g = nl.add_cell(CellKind::Inv, "u1", &[a])?;
//! nl.add_output("y", g);
//! let report = toggle_rates(&nl, &[], 2_000, 42)?;
//! assert!(report.rate(g) > 0.3);
//! # Ok::<(), moss_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compiled;
mod sim;
mod toggle;

pub use compiled::{CompiledSim, ToggleAccum};
pub use sim::GateSim;
pub use toggle::{simulate_random, simulate_random_compiled, toggle_rates, ToggleReport};
