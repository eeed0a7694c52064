//! `afp-obs` — dependency-free structured tracing for the ApproxFPGAs
//! flow.
//!
//! The paper's headline claim is a *time* result (~10x exploration
//! speedup), so the flow needs per-stage instrumentation, not just two
//! coarse wall-clock numbers. This crate provides:
//!
//! * [`Recorder`] — a thread-safe aggregator of named stages. Each stage
//!   accumulates monotonic wall time ([`std::time::Instant`]), a call
//!   count and an item count (for throughput such as circuits/s).
//! * [`SpanGuard`] — RAII timing of one stage activation. Opening a
//!   span against a **disabled** recorder performs no clock read and no
//!   allocation; the guard is a no-op shell.
//! * [`RunReport`] — a structured report (stages + named sections of
//!   typed fields) with two sinks: human-readable text (the stage table
//!   of [`RunReport::render_table`], one line per section from
//!   [`RunReport::render_sections`]) and a machine-readable JSON document
//!   ([`RunReport::to_json`], [`RunReport::write_json`]).
//!
//! Tracing is strictly observational: a recorder never influences what
//! the instrumented code computes, so enabling it cannot perturb
//! bit-identical thread-count guarantees. Spans recorded from inside
//! parallel workers *sum* per-worker durations, so a parallel stage's
//! wall time can exceed the elapsed wall clock — it is a work measure,
//! not a latency measure.
//!
//! # Example
//!
//! ```
//! use afp_obs::{Recorder, RunReport};
//!
//! let rec = Recorder::enabled();
//! {
//!     let mut span = rec.span("flow/characterize");
//!     span.add_items(120);
//!     // ... work ...
//! }
//! let report = RunReport::from_recorder(&rec);
//! assert_eq!(report.stages.len(), 1);
//! assert_eq!(report.stages[0].calls, 1);
//! assert_eq!(report.stages[0].items, 120);
//! assert!(report.to_json().starts_with('{'));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Accumulated statistics of one named stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Total wall time spent in the stage, in nanoseconds. For spans
    /// recorded from parallel workers this sums per-worker durations.
    pub wall_ns: u64,
    /// Number of span activations.
    pub calls: u64,
    /// Number of items processed (span-reported; 0 when not applicable).
    pub items: u64,
}

impl StageStats {
    /// Wall time in seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Items per second, when both items and time were recorded.
    pub fn items_per_s(&self) -> Option<f64> {
        if self.items > 0 && self.wall_ns > 0 {
            Some(self.items as f64 / self.wall_s())
        } else {
            None
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    stages: Mutex<BTreeMap<String, StageStats>>,
}

impl Inner {
    fn add(&self, name: &str, wall: Duration, calls: u64, items: u64) {
        let mut stages = self.stages.lock().unwrap_or_else(PoisonError::into_inner);
        let stats = match stages.get_mut(name) {
            Some(stats) => stats,
            // Allocate the key only on first touch of a stage.
            None => stages.entry(name.to_string()).or_default(),
        };
        stats.wall_ns = stats
            .wall_ns
            .saturating_add(u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX));
        stats.calls += calls;
        stats.items += items;
    }
}

/// A thread-safe, cloneable aggregator of stage timings.
///
/// Cloning shares the underlying storage, so one recorder can be handed
/// to parallel workers and CLI layers alike. A **disabled** recorder
/// ([`Recorder::disabled`]) carries no storage: spans against it read no
/// clock and allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recording recorder.
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A no-op recorder: spans cost one branch, no clock read, no
    /// allocation.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether spans against this recorder record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a timing span for `name`. Dropping the guard (or calling
    /// [`SpanGuard::finish`]) adds the elapsed time, one call and any
    /// reported items to the stage.
    pub fn span<'r>(&'r self, name: &'r str) -> SpanGuard<'r> {
        SpanGuard {
            active: self
                .inner
                .as_deref()
                .map(|inner| (inner, name, Instant::now())),
            items: 0,
        }
    }

    /// Record a finished duration directly (used when the timing was
    /// taken externally, and by tests).
    pub fn record(&self, name: &str, wall: Duration, items: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.add(name, wall, 1, items);
        }
    }

    /// Snapshot of every stage, sorted by stage name (deterministic
    /// regardless of completion order).
    pub fn stages(&self) -> Vec<(String, StageStats)> {
        match self.inner.as_deref() {
            Some(inner) => inner
                .stages
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(name, stats)| (name.clone(), *stats))
                .collect(),
            None => Vec::new(),
        }
    }
}

/// RAII guard of one stage activation; see [`Recorder::span`].
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
#[derive(Debug)]
pub struct SpanGuard<'r> {
    /// `None` on the disabled path — the guard is an inert shell.
    active: Option<(&'r Inner, &'r str, Instant)>,
    items: u64,
}

impl SpanGuard<'_> {
    /// Report `n` items processed under this span (for throughput).
    pub fn add_items(&mut self, n: u64) {
        if self.active.is_some() {
            self.items += n;
        }
    }

    /// End the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((inner, name, start)) = self.active.take() {
            inner.add(name, start.elapsed(), 1, self.items);
        }
    }
}

/// A typed field value of a report section.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Absent / undefined (renders as `null` in JSON, `--` in tables).
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned counter.
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Floating-point number; non-finite values serialize as `null`.
    Num(f64),
    /// Text.
    Str(String),
}

impl Value {
    /// A ratio that may be undefined (e.g. a speedup with a zero
    /// denominator): `None` becomes [`Value::Null`].
    pub fn ratio(r: Option<f64>) -> Value {
        match r {
            Some(x) if x.is_finite() => Value::Num(x),
            _ => Value::Null,
        }
    }

    fn to_json(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::UInt(n) => n.to_string(),
            Value::Int(n) => n.to_string(),
            Value::Num(x) => json_f64(*x),
            Value::Str(s) => json_str(s),
        }
    }

    fn render(&self) -> String {
        match self {
            Value::Null => "--".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::UInt(n) => n.to_string(),
            Value::Int(n) => n.to_string(),
            Value::Num(x) => format!("{x:.4}"),
            Value::Str(s) => s.clone(),
        }
    }
}

/// Format an `Option<f64>` ratio as `N.Nx`, or `--` when undefined.
pub fn fmt_ratio(r: Option<f64>) -> String {
    match r {
        Some(x) if x.is_finite() => format!("{x:.1}x"),
        _ => "--".to_string(),
    }
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` is the shortest representation that round-trips; it is
        // valid JSON for every finite double.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// `s` as a quoted JSON string literal, escaping quotes, backslashes and
/// control characters.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One named group of typed fields in a [`RunReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct Section {
    /// Section name (a top-level JSON key; must be unique per report).
    pub name: String,
    /// Ordered `(field, value)` pairs.
    pub fields: Vec<(String, Value)>,
}

impl Section {
    /// An empty section.
    pub fn new(name: &str) -> Section {
        Section {
            name: name.to_string(),
            fields: Vec::new(),
        }
    }

    /// Append a field (builder style).
    pub fn field(mut self, name: &str, value: Value) -> Section {
        self.fields.push((name.to_string(), value));
        self
    }
}

/// One stage row of a [`RunReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct StageRow {
    /// Stage name.
    pub name: String,
    /// Wall time in seconds.
    pub wall_s: f64,
    /// Span activations.
    pub calls: u64,
    /// Items processed (0 = not applicable).
    pub items: u64,
}

impl StageRow {
    /// Items per second, when defined.
    pub fn items_per_s(&self) -> Option<f64> {
        if self.items > 0 && self.wall_s > 0.0 {
            Some(self.items as f64 / self.wall_s)
        } else {
            None
        }
    }
}

/// Structured report of one run: stage table + named sections.
///
/// The JSON schema is stable by construction — `version`, `total_wall_s`
/// and `stages` first, then one top-level object per section, all field
/// orders fixed by the builder.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Schema version; bump when keys change meaning.
    pub version: u32,
    /// Stage rows, sorted by stage name.
    pub stages: Vec<StageRow>,
    /// Named sections, in builder order.
    pub sections: Vec<Section>,
}

/// Current JSON schema version emitted by [`RunReport::to_json`].
pub const REPORT_VERSION: u32 = 1;

impl Default for RunReport {
    fn default() -> RunReport {
        RunReport::new()
    }
}

impl RunReport {
    /// An empty report: no stages, no sections. The starting point for
    /// request-scoped reports (e.g. one `afp serve` response) that are
    /// assembled purely from sections, with no stage tracing attached.
    pub fn new() -> RunReport {
        RunReport {
            version: REPORT_VERSION,
            stages: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// A report holding the stages of `recorder` and no sections yet.
    pub fn from_recorder(recorder: &Recorder) -> RunReport {
        RunReport {
            version: REPORT_VERSION,
            stages: recorder
                .stages()
                .into_iter()
                .map(|(name, s)| StageRow {
                    name,
                    wall_s: s.wall_s(),
                    calls: s.calls,
                    items: s.items,
                })
                .collect(),
            sections: Vec::new(),
        }
    }

    /// Append a section.
    pub fn push_section(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// Total wall time across all stages, in seconds.
    pub fn total_wall_s(&self) -> f64 {
        let total: f64 = self.stages.iter().map(|s| s.wall_s).sum();
        // An empty sum is -0.0; canonicalize so a stage-less report
        // serializes the same "0.0" as a zeroed one.
        if total == 0.0 {
            0.0
        } else {
            total
        }
    }

    /// A copy with every timing zeroed (stage `wall_s` and therefore the
    /// serialized `total_wall_s`). Used by schema-stability goldens and
    /// CI diffs, where wall-clock values are noise.
    pub fn normalized(&self) -> RunReport {
        let mut out = self.clone();
        for stage in &mut out.stages {
            stage.wall_s = 0.0;
        }
        out
    }

    /// Overwrite one section field (e.g. to zero a scheduling-dependent
    /// counter before a golden comparison). No-op when absent.
    pub fn set_field(&mut self, section: &str, field: &str, value: Value) {
        for s in &mut self.sections {
            if s.name == section {
                for (name, v) in &mut s.fields {
                    if name == field {
                        *v = value;
                        return;
                    }
                }
            }
        }
    }

    /// Serialize as a single-line JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str(&format!("\"version\":{}", self.version));
        out.push_str(&format!(
            ",\"total_wall_s\":{}",
            json_f64(self.total_wall_s())
        ));
        out.push_str(",\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"wall_s\":{},\"calls\":{},\"items\":{},\"items_per_s\":{}}}",
                json_str(&s.name),
                json_f64(s.wall_s),
                s.calls,
                s.items,
                match s.items_per_s() {
                    Some(r) => json_f64(r),
                    None => "null".to_string(),
                }
            ));
        }
        out.push(']');
        for section in &self.sections {
            out.push(',');
            out.push_str(&json_str(&section.name));
            out.push_str(":{");
            for (i, (name, value)) in section.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(name));
                out.push(':');
                out.push_str(&value.to_json());
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Render the human-readable stage table followed by
    /// [`RunReport::render_sections`].
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let name_w = self
            .stages
            .iter()
            .map(|s| s.name.len())
            .chain(["stage".len(), "total".len()])
            .max()
            .unwrap_or(5);
        out.push_str(&format!(
            "{:<name_w$}  {:>10}  {:>7}  {:>9}  {:>11}\n",
            "stage", "wall", "calls", "items", "items/s"
        ));
        for s in &self.stages {
            let per_s = match s.items_per_s() {
                Some(r) => format!("{r:.1}"),
                None => "--".to_string(),
            };
            let items = if s.items > 0 {
                s.items.to_string()
            } else {
                "--".to_string()
            };
            out.push_str(&format!(
                "{:<name_w$}  {:>8.3} s  {:>7}  {:>9}  {:>11}\n",
                s.name, s.wall_s, s.calls, items, per_s
            ));
        }
        out.push_str(&format!(
            "{:<name_w$}  {:>8.3} s\n",
            "total",
            self.total_wall_s()
        ));
        out.push_str(&self.render_sections());
        out
    }

    /// Render one `[section] key=value, ...` line per section, in
    /// builder order.
    pub fn render_sections(&self) -> String {
        let mut out = String::new();
        for section in &self.sections {
            out.push_str(&format!("[{}]", section.name));
            for (i, (name, value)) in section.fields.iter().enumerate() {
                out.push_str(if i == 0 { " " } else { ", " });
                out.push_str(&format!("{name}={}", value.render()));
            }
            out.push('\n');
        }
        out
    }

    /// Write the JSON document to `path`, creating parent directories.
    /// Returns the path written.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ObsError`] (wrapping the underlying
    /// [`std::io::Error`]) when the parent directory cannot be created or
    /// the file cannot be written — never panics.
    pub fn write_json(&self, path: &Path) -> Result<PathBuf, ObsError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|source| ObsError {
                    op: "create report directory",
                    path: parent.to_path_buf(),
                    source,
                })?;
            }
        }
        let mut doc = self.to_json();
        doc.push('\n');
        std::fs::write(path, doc).map_err(|source| ObsError {
            op: "write report",
            path: path.to_path_buf(),
            source,
        })?;
        Ok(path.to_path_buf())
    }
}

/// A typed I/O error from a report sink: what failed, on which path, and
/// the underlying OS error.
#[derive(Debug)]
pub struct ObsError {
    /// The operation that failed (human phrasing, e.g. "write report").
    pub op: &'static str,
    /// The path involved.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot {} at {}: {}",
            self.op,
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for ObsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        {
            let mut span = rec.span("noop");
            span.add_items(10);
        }
        rec.record("noop", Duration::from_secs(1), 5);
        assert!(!rec.is_enabled());
        assert!(rec.stages().is_empty());
        let report = RunReport::from_recorder(&rec);
        assert!(report.stages.is_empty());
        assert_eq!(report.total_wall_s(), 0.0);
    }

    #[test]
    fn spans_aggregate_calls_items_and_time() {
        let rec = Recorder::enabled();
        for _ in 0..3 {
            let mut span = rec.span("stage/a");
            span.add_items(7);
        }
        rec.record("stage/b", Duration::from_millis(5), 2);
        let stages = rec.stages();
        assert_eq!(stages.len(), 2);
        let (ref name_a, a) = stages[0];
        assert_eq!(name_a, "stage/a");
        assert_eq!(a.calls, 3);
        assert_eq!(a.items, 21);
        let (ref name_b, b) = stages[1];
        assert_eq!(name_b, "stage/b");
        assert_eq!(b.wall_ns, 5_000_000);
        assert_eq!(b.items_per_s(), Some(2.0 / 0.005));
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = Recorder::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rec = rec.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let mut span = rec.span("parallel");
                        span.add_items(1);
                    }
                });
            }
        });
        let stages = rec.stages();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].1.calls, 200);
        assert_eq!(stages[0].1.items, 200);
    }

    #[test]
    fn json_is_schema_stable_and_parses_as_object() {
        let rec = Recorder::enabled();
        rec.record("s", Duration::from_millis(1), 3);
        let mut report = RunReport::from_recorder(&rec);
        report.push_section(
            Section::new("counters")
                .field("hits", Value::UInt(3))
                .field("rate", Value::ratio(None))
                .field("speedup", Value::ratio(Some(9.5))),
        );
        let json = report.normalized().to_json();
        assert!(json.starts_with("{\"version\":1,\"total_wall_s\":0"));
        assert!(json.contains("\"stages\":["));
        assert!(json.contains("\"counters\":{\"hits\":3,\"rate\":null,\"speedup\":9.5}"));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_escapes_strings_and_maps_non_finite_to_null() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
    }

    #[test]
    fn table_renders_every_stage_and_the_total() {
        let rec = Recorder::enabled();
        rec.record("alpha", Duration::from_millis(250), 100);
        rec.record("beta", Duration::from_millis(750), 0);
        let table = RunReport::from_recorder(&rec).render_table();
        assert!(table.contains("alpha"));
        assert!(table.contains("beta"));
        assert!(table.contains("total"));
        assert!(table.lines().next().unwrap().contains("items/s"));
    }

    #[test]
    fn sections_render_one_line_each_after_the_stage_table() {
        let rec = Recorder::enabled();
        rec.record("alpha", Duration::from_millis(5), 1);
        let mut report = RunReport::from_recorder(&rec);
        report.push_section(
            Section::new("runtime")
                .field("steals", Value::UInt(2))
                .field("rate", Value::Null),
        );
        report.push_section(Section::new("cache").field("hits", Value::UInt(0)));
        let sections = report.render_sections();
        assert_eq!(sections, "[runtime] steals=2, rate=--\n[cache] hits=0\n");
        let table = report.render_table();
        assert!(table.starts_with("stage"), "{table}");
        assert!(table.ends_with(&sections), "{table}");
    }

    #[test]
    fn ratio_formatting_renders_undefined_as_dashes() {
        assert_eq!(fmt_ratio(Some(9.87)), "9.9x");
        assert_eq!(fmt_ratio(None), "--");
        assert_eq!(fmt_ratio(Some(f64::NAN)), "--");
        assert_eq!(fmt_ratio(Some(f64::INFINITY)), "--");
    }

    #[test]
    fn write_json_creates_parents_and_propagates_typed_errors() {
        let dir = std::env::temp_dir().join(format!("afp-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = RunReport::from_recorder(&Recorder::enabled());
        let path = dir.join("deep/nested/run_report.json");
        let written = report.write_json(&path).expect("parents are created");
        let text = std::fs::read_to_string(written).unwrap();
        assert!(text.ends_with("}\n"));
        // A path under a *file* cannot be created: typed error, no panic.
        let bad = dir.join("deep/nested/run_report.json/child.json");
        let err = report.write_json(&bad).unwrap_err();
        assert!(err.to_string().contains("cannot"));
        assert!(std::error::Error::source(&err).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_field_overwrites_matching_section_fields() {
        let mut report = RunReport::from_recorder(&Recorder::disabled());
        report.push_section(Section::new("runtime").field("steals", Value::UInt(17)));
        report.set_field("runtime", "steals", Value::UInt(0));
        assert_eq!(
            report.sections[0].fields[0],
            ("steals".to_string(), Value::UInt(0))
        );
        // Unknown section/field: silent no-op.
        report.set_field("nope", "x", Value::Null);
    }
}
