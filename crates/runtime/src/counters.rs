//! Shared runtime counters, declared once in a registry table.
//!
//! Every counter is one row of the `counters!` invocation below: its
//! doc comment, its field name, its [`CounterKind`], whether its value is
//! unstable across runs, and the [`ReportSection`] it is published in.
//! The table generates [`Counters`], [`CounterSnapshot`],
//! [`Counters::snapshot`], [`CounterSnapshot::since`],
//! [`CounterSnapshot::rows`] and [`COUNTERS`]; report builders loop over
//! the rows instead of naming fields, so a new counter is one new row.

use std::sync::atomic::{AtomicU64, Ordering};

/// How a counter's value evolves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterKind {
    /// A monotonic count, bumped via [`Counters::add`]. A delta between
    /// two snapshots is the difference.
    Count,
    /// A gauge: a high-water mark raised via [`Counters::max`], or a
    /// level stored via [`Counters::set`]. The difference of two peaks or
    /// levels is not a peak or level of anything, so a delta carries the
    /// later value.
    Gauge,
}

impl CounterKind {
    /// The delta of one counter between an `earlier` and a `later`
    /// snapshot.
    fn delta(self, later: u64, earlier: u64) -> u64 {
        match self {
            CounterKind::Count => later.saturating_sub(earlier),
            CounterKind::Gauge => later,
        }
    }
}

/// The report section a counter is published in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportSection {
    /// Scheduler, synthesis, mapper, simulator and zoo-memo work: the
    /// `runtime` section of both the flow run report and the `afp serve`
    /// `/stats` document.
    Runtime,
    /// Characterization-cache behaviour: the `cache` section, whose keys
    /// differ from the counter names and sit among derived values.
    Cache,
    /// Estimate defenses: the `quarantine` section of the run report.
    Quarantine,
    /// Request handling: the `serve` section of `/stats`.
    Serve,
    /// The model-zoo fast path: the `estimate` section of `/stats`.
    Estimate,
}

impl ReportSection {
    /// The section's JSON key.
    pub fn name(self) -> &'static str {
        match self {
            ReportSection::Runtime => "runtime",
            ReportSection::Cache => "cache",
            ReportSection::Quarantine => "quarantine",
            ReportSection::Serve => "serve",
            ReportSection::Estimate => "estimate",
        }
    }
}

/// One row of the counter registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterRow {
    /// Field name in [`Counters`] and [`CounterSnapshot`], and the report
    /// key wherever the counter is published under its own name.
    pub name: &'static str,
    /// Count or high-water gauge.
    pub kind: CounterKind,
    /// The value depends on scheduling or execution shape (thread
    /// count, shard size, streamed or resident library), not on what was
    /// computed, so normalized reports zero it.
    pub unstable: bool,
    /// Where the counter is published.
    pub section: ReportSection,
}

macro_rules! counters {
    ($(
        $(#[doc = $doc:literal])+
        $name:ident: $kind:ident, $stability:ident, $section:ident;
    )+) => {
        /// Atomic counters shared by a [`crate::Runtime`] and the caches
        /// attached to a flow run. All increments are `Relaxed`: the values
        /// are telemetry, never used for synchronization.
        #[derive(Debug, Default)]
        pub struct Counters {
            $( $(#[doc = $doc])+ pub $name: AtomicU64, )+
        }

        /// A plain-value snapshot of [`Counters`], safe to store in results.
        /// Rows marked unstable in [`COUNTERS`] are not deterministic across
        /// runs or thread counts; everything else is.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $( $(#[doc = $doc])+ pub $name: u64, )+
        }

        /// The counter registry, in declaration order: the order every
        /// report section built from it uses.
        pub const COUNTERS: &[CounterRow] = &[$(
            CounterRow {
                name: stringify!($name),
                kind: CounterKind::$kind,
                unstable: counters!(@unstable $stability),
                section: ReportSection::$section,
            },
        )+];

        impl Counters {
            /// A point-in-time copy of all counters.
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot {
                    $( $name: self.$name.load(Ordering::Relaxed), )+
                }
            }
        }

        impl CounterSnapshot {
            /// The delta `self - earlier`, counter-wise: counts subtract
            /// (saturating), gauges carry `self`'s high-water mark.
            pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
                CounterSnapshot {
                    $( $name: CounterKind::$kind.delta(self.$name, earlier.$name), )+
                }
            }

            /// Every `(row, value)` pair, in [`COUNTERS`] order.
            pub fn rows(&self) -> impl Iterator<Item = (&'static CounterRow, u64)> {
                COUNTERS.iter().zip([$( self.$name ),+])
            }
        }
    };
    (@unstable stable) => { false };
    (@unstable unstable) => { true };
}

counters! {
    /// Tasks executed by `par_map` (inline or on a worker).
    /// Characterization runs two synthesis tasks and one per lane block
    /// of each simulation batch, and batches form within one shard, so
    /// the count depends on the shard size (never on the thread count).
    tasks_executed: Count, unstable, Runtime;
    /// Successful thefts: an idle worker taking work from a peer's deque.
    steals: Count, unstable, Runtime;
    /// Characterization cache hits.
    cache_hits: Count, stable, Cache;
    /// Characterization cache misses (entries computed and inserted).
    cache_misses: Count, stable, Cache;
    /// Entries the characterization memory tier dropped to stay within
    /// its byte budget (a later lookup of one is a miss, recomputed bit
    /// for bit).
    cache_evictions: Count, stable, Cache;
    /// ASIC synthesis invocations actually performed.
    asic_synths: Count, stable, Runtime;
    /// FPGA synthesis invocations actually performed.
    fpga_synths: Count, stable, Runtime;
    /// Behavioural error analyses actually performed.
    error_analyses: Count, stable, Runtime;
    /// Bytes of operand data pushed through the bit-parallel simulator
    /// (16 bytes per evaluated input pair).
    bytes_simulated: Count, stable, Runtime;
    /// Logic gates folded into an existing node of a hash-consed
    /// simulation batch (simulated once for all the circuits sharing
    /// it). Batches form within one shard, so the count depends on the
    /// shard size.
    sim_nodes_shared: Count, unstable, Runtime;
    /// Cut-pair merges performed by the LUT mapper (post signature filter).
    cuts_merged: Count, stable, Runtime;
    /// Cut merges rejected O(1) by the leaf-signature popcount filter.
    cuts_sig_rejected: Count, stable, Runtime;
    /// Candidate cuts dropped because an equal leaf set was already kept.
    cuts_dominance_pruned: Count, stable, Runtime;
    /// Synthesis calls that reused a worker's warm mapper scratch state
    /// (depends on how work-stealing spread circuits over workers).
    mapper_reuses: Count, unstable, Runtime;
    /// Simulation blocks that executed a pre-compiled gate tape instead
    /// of re-lowering the netlist.
    sim_tape_reuses: Count, stable, Runtime;
    /// Characterizations answered by copying the record of a structurally
    /// identical circuit instead of simulating again.
    structural_dedup_hits: Count, stable, Runtime;
    /// Library shards pulled through the streaming characterization path.
    shards_streamed: Count, unstable, Runtime;
    /// High-water mark of circuits resident at once while streaming a
    /// library shard-at-a-time.
    peak_resident_circuits: Gauge, unstable, Runtime;
    /// Non-finite model estimates quarantined by the flow (excluded from
    /// pseudo-pareto peeling instead of corrupting the ranking).
    estimates_quarantined: Count, stable, Quarantine;
    /// Cache entries whose disk append failed (the run continued with the
    /// in-memory value, but persistence was lost).
    cache_write_errors: Count, stable, Cache;
    /// Characterization requests answered by `afp serve` (coalesced
    /// joiners count too — every 200 response is one served request).
    requests_served: Count, stable, Serve;
    /// Requests that joined an identical in-flight characterization
    /// instead of starting their own (the coalescing win).
    requests_coalesced: Count, stable, Serve;
    /// Connections rejected with a queue-full backpressure response
    /// because the bounded serve queue was at capacity.
    queue_rejections: Count, stable, Serve;
    /// High-water mark of distinct characterizations in flight at once in
    /// the serve coalescing map.
    inflight_peak: Gauge, stable, Serve;
    /// Estimate requests answered from a persisted model zoo (no
    /// synthesis ran — the `afp serve` fast path).
    estimates_served: Count, stable, Estimate;
    /// Estimate responses reused from the rendered-body cache (the model
    /// never even ran).
    model_cache_hits: Count, stable, Estimate;
    /// Requests after the first answered on an already-open keep-alive
    /// connection (each one saved a TCP handshake).
    keepalive_reuses: Count, stable, Serve;
    /// Responses sent from the daemon's rendered-body cache (no lookup,
    /// rendering or model ran for them).
    body_cache_hits: Count, stable, Serve;
    /// Bodies the rendered-body cache dropped to stay within its byte
    /// budget.
    body_cache_evictions: Count, stable, Serve;
    /// Bytes the rendered-body cache holds now (a level, not a peak).
    body_cache_bytes: Gauge, stable, Serve;
    /// Flows whose trained zoo was loaded from the memo beside the
    /// characterization store (no model was trained).
    zoo_memo_hits: Count, stable, Runtime;
    /// Flows with a persistent cache whose zoo was trained: no memo under
    /// the run's training key, or one that was corrupt or mismatching.
    zoo_memo_misses: Count, stable, Runtime;
    /// Memo saves and evictions that failed (the flow still succeeded).
    zoo_memo_errors: Count, stable, Runtime;
}

impl Counters {
    /// Bump a counter by `n`.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise a high-water gauge to at least `n` (for peaks, not counts).
    #[inline]
    pub fn max(counter: &AtomicU64, n: u64) {
        counter.fetch_max(n, Ordering::Relaxed);
    }

    /// Store a level gauge's current value.
    #[inline]
    pub fn set(counter: &AtomicU64, n: u64) {
        counter.store(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let c = Counters::default();
        Counters::add(&c.tasks_executed, 10);
        Counters::add(&c.cache_hits, 3);
        let a = c.snapshot();
        Counters::add(&c.tasks_executed, 5);
        let b = c.snapshot();
        let d = b.since(&a);
        assert_eq!(d.tasks_executed, 5);
        assert_eq!(d.cache_hits, 0);
        assert_eq!(b.tasks_executed, 15);
    }

    #[test]
    fn max_is_a_high_water_gauge() {
        let c = Counters::default();
        Counters::max(&c.peak_resident_circuits, 40);
        Counters::max(&c.peak_resident_circuits, 12);
        Counters::max(&c.peak_resident_circuits, 64);
        assert_eq!(c.snapshot().peak_resident_circuits, 64);
    }

    #[test]
    fn gauge_deltas_carry_the_later_high_water_mark() {
        let c = Counters::default();
        Counters::max(&c.peak_resident_circuits, 40);
        Counters::max(&c.inflight_peak, 3);
        Counters::add(&c.shards_streamed, 2);
        let a = c.snapshot();
        Counters::max(&c.peak_resident_circuits, 64);
        Counters::add(&c.shards_streamed, 1);
        let d = c.snapshot().since(&a);
        assert_eq!(d.peak_resident_circuits, 64);
        assert_eq!(d.inflight_peak, 3);
        assert_eq!(d.shards_streamed, 1);
    }

    #[test]
    fn registry_names_are_unique_and_rows_follow_the_fields() {
        let mut names: Vec<&str> = COUNTERS.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTERS.len());
        assert_eq!(COUNTERS.len(), 33);
        // `rows` pairs each row with its own field, in table order.
        let c = Counters::default();
        Counters::add(&c.structural_dedup_hits, 7);
        Counters::max(&c.inflight_peak, 9);
        let snap = c.snapshot();
        let value = |name: &str| snap.rows().find(|(r, _)| r.name == name).unwrap().1;
        assert_eq!(value("structural_dedup_hits"), 7);
        assert_eq!(value("inflight_peak"), 9);
        assert_eq!(snap.rows().map(|(_, v)| v).sum::<u64>(), 16);
    }

    #[test]
    fn only_peaks_and_levels_are_gauges() {
        let gauges: Vec<&str> = COUNTERS
            .iter()
            .filter(|r| r.kind == CounterKind::Gauge)
            .map(|r| r.name)
            .collect();
        assert_eq!(
            gauges,
            [
                "peak_resident_circuits",
                "inflight_peak",
                "body_cache_bytes"
            ]
        );
    }

    #[test]
    fn a_level_gauge_delta_carries_the_current_level() {
        let c = Counters::default();
        Counters::set(&c.body_cache_bytes, 900);
        let a = c.snapshot();
        Counters::set(&c.body_cache_bytes, 300);
        assert_eq!(c.snapshot().since(&a).body_cache_bytes, 300);
    }
}
