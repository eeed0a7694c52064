//! `afp-runtime` — the parallel execution and caching substrate of the
//! ApproxFPGAs reproduction.
//!
//! The crate provides two building blocks used by every hot path of the
//! flow (library generation, characterization, error analysis, model
//! training, estimation):
//!
//! * [`Runtime`] — a work-stealing task pool over per-worker deques.
//!   [`Runtime::par_map`] distributes items dynamically (idle workers
//!   steal from busy ones), yet always returns results **in input order**,
//!   so the output of a parallel stage is bit-for-bit independent of the
//!   thread count. `threads = 1` executes inline on the caller thread.
//! * [`ClockCache`] — the one in-memory cache: a byte-bounded CLOCK ring
//!   keyed by 128-bit structural fingerprints ([`Key128`]). It holds the
//!   characterization memo and `afp serve`'s rendered bodies; `afp-store`
//!   adds the persistent disk tier so repeated runs of the same
//!   characterization skip recomputation across processes.
//!
//! Both report into shared [`Counters`]: relaxed atomics declared once,
//! as rows of the [`COUNTERS`] registry. Each row names a counter, says
//! whether it is a count or a gauge ([`CounterKind`]), whether
//! normalized reports zero it, and which [`ReportSection`] publishes it.
//! [`CounterSnapshot`], its gauge-aware [`CounterSnapshot::since`] delta,
//! the flow run report, `afp serve`'s `/stats` and normalization are all
//! derived from that table.
//!
//! # Example
//!
//! ```
//! use afp_runtime::Runtime;
//!
//! let squares = Runtime::new(4).par_map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod counters;
mod hash;
mod inflight;
mod pool;

pub use cache::{Admission, ClockCache};
pub use counters::{CounterKind, CounterRow, CounterSnapshot, Counters, ReportSection, COUNTERS};
pub use hash::{Fingerprint, Key128, StableHasher};
pub use inflight::Inflight;
pub use pool::Runtime;
