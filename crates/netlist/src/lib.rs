//! Gate-level netlist intermediate representation for the ApproxFPGAs
//! reproduction.
//!
//! This crate provides the structural substrate every other crate builds on:
//!
//! * [`Netlist`] — a topologically-ordered gate-level DAG with primary
//!   inputs, primary outputs and a small, fixed gate vocabulary ([`Gate`]).
//! * [`Simulator`] — 64-way bit-parallel behavioural simulation, used for
//!   exhaustive/sampled error analysis and for switching-activity (power)
//!   estimation.
//! * [`analyze`] — structural analysis: logic levels, depth, fanout,
//!   gate histograms.
//! * [`opt`] — constant folding, algebraic identities, structural hashing
//!   and dead-logic sweeping (used to clean up mutated/approximated
//!   circuits).
//! * [`export`] — the structural Verilog writer.
//! * [`bristol`] — Bristol-fashion circuit import/export (the MPC
//!   community's exchange format).
//!
//! # Example
//!
//! Build and simulate a 1-bit full adder:
//!
//! ```
//! use afp_netlist::Netlist;
//!
//! let mut n = Netlist::new("full_adder");
//! let a = n.add_input();
//! let b = n.add_input();
//! let cin = n.add_input();
//! let axb = n.xor(a, b);
//! let sum = n.xor(axb, cin);
//! let cout = n.maj(a, b, cin);
//! n.set_outputs(vec![sum, cout]);
//!
//! // 1 + 1 + 0 = 0b10
//! let out = n.eval_bits(&[true, true, false]);
//! assert_eq!(out, vec![false, true]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
mod batch;
pub mod bristol;
pub mod export;
mod gate;
mod netlist;
pub mod opt;
pub mod parse;
mod sim;

pub use batch::{NetlistBatch, SIM_BATCH_BYTES, SIM_BATCH_NODES};
pub use gate::{Gate, GateKind};
pub use netlist::{NetId, Netlist, NetlistError};
pub use sim::{
    pack_operand, pack_operand_wide, transpose, unpack_result, unpack_result_wide, SimScratch,
    SimTape, Simulator, LANES, LANE_WORDS,
};
