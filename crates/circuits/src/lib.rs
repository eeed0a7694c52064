//! Exact and approximate arithmetic circuit generators.
//!
//! This crate recreates, from scratch, the role the EvoApprox8b library
//! plays in the ApproxFPGAs paper: a large collection of gate-level
//! approximate adders and multipliers spanning a wide error/cost trade-off
//! space, at 8/12/16-bit operand widths.
//!
//! * [`arith`] — the [`ArithCircuit`] wrapper (word-level interface over a
//!   gate-level [`afp_netlist::Netlist`]) and batch evaluation helpers.
//! * [`adders`] — exact adder architectures (ripple-carry, carry-lookahead,
//!   carry-select, carry-skip) and approximate variants (LOA, truncated,
//!   no-carry, approximate-full-adder substitution, GeAr-style segmented).
//! * [`multipliers`] — exact array and Wallace-tree multipliers and
//!   approximate variants (truncated, broken-array, 2x2-block underdesigned,
//!   approximate-compressor trees).
//! * [`mutate`] — seeded, LSB-biased random netlist mutation, emulating the
//!   structural diversity of CGP-evolved circuits.
//! * [`library`] — enumeration of whole circuit libraries
//!   ([`LibrarySpec`] → `Vec<ArithCircuit>`) with behavioural dedup.
//! * [`store`] — persisting libraries as sealed [`afp_store`] files with
//!   structural dedup, and streaming them back lazily.
//! * [`source`] — the [`LibrarySource`] abstraction (generated-from-spec
//!   or streamed-from-store) feeding flows shard-at-a-time with bounded
//!   residency, plus the paper's full-scale corpus specs.
//! * [`soa`] — a small set of "state-of-the-art FPGA-tailored" multipliers
//!   used as comparison points in Fig. 1.
//!
//! # Example
//!
//! ```
//! use afp_circuits::adders::ripple_carry;
//!
//! let add8 = ripple_carry(8);
//! assert_eq!(add8.eval(200, 100), 300);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adders;
pub mod advanced_multipliers;
pub mod arith;
pub mod library;
pub mod multipliers;
pub mod mutate;
pub mod prefix_adders;
pub mod soa;
pub mod source;
pub mod spec;
pub mod store;

pub use arith::{
    plan_batches, simulation_batch, ArithCircuit, ArithKind, BatchEvaluator, InterfaceError,
};
pub use library::{build_library, build_library_with, LibrarySpec};
pub use source::{ensure_library, paper_full_specs, LibraryShards, LibrarySource};
pub use spec::from_spec_ref;
pub use store::{
    read_library, stream_library, stream_library_bytes, write_library, write_library_specs,
    LibraryStream, WriteSummary,
};
