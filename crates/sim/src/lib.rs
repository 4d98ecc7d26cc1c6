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
//!   once into a flat, branchless truth-table instruction stream. Its
//!   toggle counting takes stimulus 64 cycles per `u64` word, steps only
//!   the logic on register feedback loops cycle by cycle, and runs
//!   everything else 64 consecutive cycles per word. Results are
//!   bit-identical to [`GateSim`];
//! - [`simulate_random`] / [`simulate_random_compiled`] / [`toggle_rates`]:
//!   random-stimulus runs (inputs drawn from `StdRng`) producing per-cell
//!   [`ToggleReport`]s, for tests and examples. The label pipeline
//!   (`moss::CircuitSample`) does not use them: it drives
//!   [`CompiledSim::count_toggles`] with its own xorshift stimulus, drawn
//!   64 cycles at a time, and those counts are the supervision signal for
//!   the paper's toggle-rate prediction task.
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

pub use compiled::CompiledSim;
pub use sim::GateSim;
pub use toggle::{simulate_random, simulate_random_compiled, toggle_rates, ToggleReport};
