//! The ApproxFPGAs methodology (DAC 2020) — ML-driven exploration of
//! pareto-optimal approximate circuits for FPGAs.
//!
//! Given a large library of approximate arithmetic circuits whose ASIC
//! parameters and error metrics are cheap to obtain, but whose FPGA
//! parameters require expensive synthesis, the flow:
//!
//! 1. synthesizes a small subset (default 10%) for the target FPGA,
//! 2. trains the 18 statistical/ML models of Table I to estimate each FPGA
//!    parameter (latency, power, #LUTs) from structural + ASIC features,
//! 3. scores the models by the paper's *fidelity* metric and keeps the
//!    top performers,
//! 4. estimates the whole library, builds several *pseudo-pareto fronts*
//!    per model (peeling scheme of §II), takes the union,
//! 5. re-synthesizes only those candidates and extracts the measured
//!    pareto-optimal FPGA ACs,
//!
//! cutting exploration time roughly 10x while recovering most of the true
//! pareto front.
//!
//! Entry point: [`flow::Flow`]. Sub-modules mirror the paper's pipeline:
//! [`record`] (features), [`dataset`] (subset + split), [`fidelity`]
//! (model evaluation), [`pareto`] (fronts, peeling, coverage),
//! [`flow`] (orchestration + time accounting).
//!
//! # Example
//!
//! ```
//! use afp_circuits::{ArithKind, LibrarySource, LibrarySpec};
//! use afp_ml::MlModelId;
//! use approxfpgas::flow::{Flow, FlowConfig};
//!
//! // A miniature run (tiny library, few models) — at full library sizes
//! // (see afp-bench) the same flow reaches the paper's ~10x speedup.
//! let config = FlowConfig {
//!     models: vec![MlModelId::Ml11, MlModelId::Ml14, MlModelId::Ml18],
//!     top_models: 2,
//!     ..FlowConfig::default()
//! };
//! let source = LibrarySource::Generated(LibrarySpec::new(ArithKind::Adder, 8, 60));
//! let outcome = Flow::new(config).run_source(&source).unwrap();
//! assert!(outcome.time.flow_count <= outcome.time.exhaustive_count);
//! assert!(!outcome.final_fronts.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dataset;
pub mod fidelity;
pub mod flow;
mod oracle;
pub mod pareto;
pub mod record;
pub mod report;
pub mod request;
pub mod targets;
pub mod zoo_store;

pub use cache::{CachedCharacterization, CharacterizationCache};
pub use fidelity::FidelityRecord;
pub use flow::{ChaosSpec, Flow, FlowConfig, FlowOutcome, TimeAccounting, DEFAULT_SHARD_CIRCUITS};
pub use pareto::{
    coverage, measured_front, pareto_front, peel_fronts, pseudo_pareto, MeasuredFront, PseudoPareto,
};
pub use record::{CircuitRecord, FeatureLayout, FpgaParam};
pub use report::run_report;
pub use request::{characterize_request, request_report, RequestConfig};
pub use targets::{
    sweep_targets, transfer_matrix, TargetRun, TargetSet, TransferOutcome, UnknownTargetError,
};
pub use zoo_store::{
    load_zoo, save_zoo, SavedZoo, ZooStoreError, AFPM_RECORD_VERSION, ZOO_MEMO_BYTES,
    ZOO_MEMO_VERSION,
};

/// Structured tracing and run reports (re-export of [`afp_obs`]).
///
/// [`flow::Flow::run_source_traced`] records per-stage spans into an
/// [`obs::Recorder`]; [`report::run_report`] folds the recorder plus a
/// [`FlowOutcome`] into an [`obs::RunReport`] with table and JSON sinks.
pub use afp_obs as obs;

/// The workspace float-ordering policy (re-export of [`afp_ord`]).
///
/// Every ranking in the flow — pareto sweeps, fidelity top-k, split
/// search — uses these total-order comparators; NaN ranks worst and can
/// neither panic a sort nor win a selection. See the [`afp_ord`] crate
/// docs for the full policy table.
pub use afp_ord as ord;
