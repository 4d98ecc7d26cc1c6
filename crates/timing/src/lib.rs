//! # moss-timing
//!
//! Static timing analysis for the MOSS reproduction — the stand-in for the
//! Synopsys timing flow the paper uses for ground truth: "Arrival Time (AT)
//! is obtained via timing analysis on DFF nodes using PrimePower and
//! Synopsys DC" (§V-A).
//!
//! The delay model is the load-linear NLDM-style model from
//! [`moss_netlist::CellLibrary`]: a gate's delay is
//! `intrinsic + slope × Σ(input-pin capacitance of its fanouts)`, arrival
//! times propagate along the combinational cones from primary inputs and DFF
//! clock-to-Q outputs, and the per-DFF *data arrival time* at the D pin is
//! the supervision target for the paper's arrival-time prediction (ATP)
//! task.
//!
//! ## Example
//!
//! ```
//! use moss_netlist::{CellKind, CellLibrary, Netlist};
//! use moss_timing::TimingReport;
//!
//! let mut nl = Netlist::new("t");
//! let a = nl.add_input("a");
//! let g1 = nl.add_cell(CellKind::Inv, "u1", &[a])?;
//! let g2 = nl.add_cell(CellKind::Inv, "u2", &[g1])?;
//! nl.add_output("y", g2);
//! let report = TimingReport::analyze(&nl, &CellLibrary::default())?;
//! assert!(report.arrival_ps(g2) > report.arrival_ps(g1));
//! # Ok::<(), moss_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod slack;
mod sta;

pub use slack::SlackReport;
pub use sta::TimingReport;
