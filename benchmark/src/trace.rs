//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span names the layer and operation (`asic.synth`, `core.cache_get`,
//! ...); the text before the first `.` is the layer, and `bench` marks
//! the benchmark's own glue. Each thread records into its own
//! [`Spans`] buffer, which hands its spans to the shared [`Tracer`] when
//! dropped; nothing is written until the run ends. A span started on a
//! worker thread names the span that caused it on the spawning thread as
//! its parent, so one parent may have children on several threads at
//! once: its self time subtracts the *union* of their intervals.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::percentile;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub thread: u32,
    /// Circuit index or request number the span worked on.
    pub item: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collector of every thread's spans. A disabled tracer reads no clock
/// and records nothing, so the same replay code runs untraced.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    next_thread: AtomicU32,
    sink: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_thread: AtomicU32::new(0),
            sink: Mutex::new(Vec::new()),
        }
    }

    /// A span buffer for the calling thread; its outermost spans get
    /// `parent` (a span open on another thread) as their parent.
    pub fn thread(&self, parent: Option<u64>) -> Spans<'_> {
        Spans {
            tracer: self,
            thread: self.next_thread.fetch_add(1, Ordering::Relaxed),
            parent,
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Every span recorded by buffers dropped so far, ordered by start.
    pub fn finish(self) -> Vec<SpanRecord> {
        let mut spans = self.sink.into_inner().expect("span sink poisoned");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One thread's span stack and finished spans.
pub struct Spans<'t> {
    tracer: &'t Tracer,
    thread: u32,
    parent: Option<u64>,
    open: Vec<(u64, &'static str, u64, u64)>,
    done: Vec<SpanRecord>,
}

impl Spans<'_> {
    /// Open a span; it ends at the matching [`Spans::close`].
    pub fn open(&mut self, name: &'static str, item: u64) {
        if self.tracer.enabled {
            let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
            self.open.push((id, name, item, self.tracer.now_ns()));
        }
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let end_ns = self.tracer.now_ns();
        let (id, name, item, start_ns) = self.open.pop().expect("close without open span");
        let parent = self.open.last().map(|s| s.0).or(self.parent);
        self.done.push(SpanRecord {
            id,
            parent,
            name,
            thread: self.thread,
            item,
            start_ns,
            end_ns,
        });
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, item);
        let r = f();
        self.close();
        r
    }

    /// The innermost open span, as the parent for spans of worker threads.
    pub fn current(&self) -> Option<u64> {
        self.open.last().map(|s| s.0).or(self.parent)
    }
}

impl Drop for Spans<'_> {
    fn drop(&mut self) {
        if self.done.is_empty() {
            return;
        }
        // Runs on a worker's way out; a poisoned sink only loses spans.
        if let Ok(mut sink) = self.tracer.sink.lock() {
            sink.append(&mut self.done);
        }
    }
}

/// Self time of each span (index-aligned with `spans`): its duration
/// minus the union of its children's intervals, clipped to its own.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration();
            };
            kids.sort_unstable();
            let (mut covered, mut cur): (u64, Option<(u64, u64)>) = (0, None);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-operation totals of a traced run.
#[derive(Clone, Debug, Default)]
pub struct Op {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    /// Span durations in µs, ascending.
    pub durations_us: Vec<f64>,
}

/// Operations by span name, plus the total self time of all spans (the
/// thread-time the trace accounts for).
pub struct Summary {
    pub ops: BTreeMap<&'static str, Op>,
    pub total_self_ns: u64,
}

impl Summary {
    pub fn new(spans: &[SpanRecord]) -> Summary {
        let selfs = self_times(spans);
        let mut ops: BTreeMap<&'static str, Op> = BTreeMap::new();
        for (s, &own) in spans.iter().zip(&selfs) {
            let op = ops.entry(s.name).or_default();
            op.calls += 1;
            op.busy_ns += s.duration();
            op.self_ns += own;
            op.durations_us.push(s.duration() as f64 / 1e3);
        }
        for op in ops.values_mut() {
            op.durations_us.sort_by(f64::total_cmp);
        }
        Summary {
            ops,
            total_self_ns: selfs.iter().sum(),
        }
    }

    /// Self time of operation `name` as a percentage of all traced time.
    pub fn pct(&self, name: &str) -> f64 {
        match (self.ops.get(name), self.total_self_ns) {
            (Some(op), total) if total > 0 => 100.0 * op.self_ns as f64 / total as f64,
            _ => 0.0,
        }
    }

    /// Median span duration of `name` in µs (0 when it never ran).
    pub fn p50_us(&self, name: &str) -> f64 {
        self.ops
            .get(name)
            .map_or(0.0, |op| crate::stats::median(&op.durations_us))
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.ops.get(name).map_or(0, |op| op.calls)
    }

    /// Share of traced time spent inside a program layer rather than in
    /// the benchmark's own glue.
    pub fn coverage(&self) -> f64 {
        if self.total_self_ns == 0 {
            return 0.0;
        }
        let layered: u64 = self
            .ops
            .iter()
            .filter(|(name, _)| !name.starts_with("bench."))
            .map(|(_, op)| op.self_ns)
            .sum();
        layered as f64 / self.total_self_ns as f64
    }

    /// The per-operation table printed by a traced run.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<28} {:>9} {:>10} {:>10} {:>10} {:>10} {:>7}\n",
            "span", "calls", "busy_s", "self_s", "p50_us", "p90_us", "share%"
        );
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.2}"));
        for (name, op) in &self.ops {
            out.push_str(&format!(
                "{:<28} {:>9} {:>10.4} {:>10.4} {:>10} {:>10} {:>7.2}\n",
                name,
                op.calls,
                op.busy_ns as f64 / 1e9,
                op.self_ns as f64 / 1e9,
                fmt(percentile(&op.durations_us, 0.5)),
                fmt(percentile(&op.durations_us, 0.9)),
                self.pct(name)
            ));
        }
        out
    }
}

/// Write `spans` as JSON lines to `path`.
pub fn write_jsonl(path: &Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"thread\":{},\"item\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.thread, s.item, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "core.x",
            thread: 0,
            item: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children on two threads overlap in 20..40 and
        // one pokes past the parent's end.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 90, 130),
            span(5, Some(2), 15, 25),
        ];
        let selfs = self_times(&spans);
        // Union inside the parent: 10..50 and 90..100 = 50 ns.
        assert_eq!(selfs[0], 50);
        // Child 2 has its own child 15..25.
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 40);
        assert_eq!(selfs[4], 10);
    }

    #[test]
    fn worker_spans_name_the_spawning_span_as_parent() {
        let tracer = Tracer::new(true);
        {
            let mut main = tracer.thread(None);
            main.open("bench.root", 0);
            let root = main.current();
            std::thread::scope(|s| {
                for item in 0..2 {
                    let tracer = &tracer;
                    s.spawn(move || {
                        let mut worker = tracer.thread(root);
                        worker.time("asic.synth", item, || std::hint::black_box(item));
                    });
                }
            });
            main.close();
        }
        let spans = tracer.finish();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "bench.root").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name == "asic.synth")
            .all(|s| s.parent == Some(root.id) && s.layer() == "asic"));
        let summary = Summary::new(&spans);
        assert_eq!(summary.calls("asic.synth"), 2);
        assert!(summary.coverage() <= 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let mut t = tracer.thread(None);
            assert_eq!(t.time("core.x", 0, || 7), 7);
            assert_eq!(t.current(), None);
        }
        assert!(tracer.finish().is_empty());
    }
}
