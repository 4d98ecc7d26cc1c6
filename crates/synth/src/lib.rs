//! # moss-synth
//!
//! RTL-to-standard-cell synthesis for the MOSS reproduction — the stand-in
//! for Synopsys Design Compiler in the paper's data pipeline (§V-A).
//!
//! The pipeline: bit-blast the mini-RTL module, technology-map through
//! polarity-aware smart constructors with structural hashing (NAND/NOR
//! preferred, AOI/OAI for carry logic, MUX barrels for variable shifts),
//! infer one DFF per register bit, eliminate dead logic, and buffer high
//! fanouts. [`SynthOptions::variant`] derives distinct mapping styles so the
//! same RTL yields several structurally different netlists, as the paper's
//! dataset construction requires.
//!
//! The [`SynthResult::dffs`] bindings record which RTL register bit each DFF
//! implements — the ground truth for the paper's RrNdM alignment task.
//!
//! ## Example
//!
//! ```
//! use moss_synth::{synthesize, SynthOptions};
//!
//! let m = moss_rtl::parse(
//!     "module acc(input clk, input [7:0] d, output [7:0] q);
//!        reg [7:0] sum = 0;
//!        always @(posedge clk) sum <= sum + d;
//!        assign q = sum;
//!      endmodule")?;
//! let out = synthesize(&m, &SynthOptions::default())?;
//! assert_eq!(out.netlist.dff_count(), 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod error;
mod lower;
mod synth;

pub use builder::{Bit, MapStyle, NetBuilder};
pub use error::SynthError;
pub use lower::{add, const_bits, eq, extend, less_than, lower_expr, mul, shift, Env};
pub use synth::{synthesize, DffBinding, SynthOptions, SynthResult};
