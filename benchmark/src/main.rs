//! The benchmark of the ApproxFPGAs reproduction: one workload per
//! process, end-to-end metrics untraced, per-layer metrics from a
//! separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload explore_cold --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Workloads (see `README.md` beside this package for why each exists):
//! `explore_cold` and `explore_warm` run the paper-full exploration flow
//! on a stored corpus with an empty or a filled characterization store;
//! `serve_hot` and `serve_cold` drive an in-process `afp serve` daemon
//! with cached or never-seen requests. Inputs are generated from
//! `--seed` only. Every output is checked before any number is printed;
//! a failed check exits non-zero without a result. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A traced run also writes its spans to
//! `target/benchmark/<workload>-seed<N>.spans.jsonl`.

mod explore;
mod layers;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use afp_runtime::CounterSnapshot;

use crate::trace::{SpanRecord, Summary};

/// Daemon workers and the most client threads: the benchmark is sized
/// for a two-core machine.
pub const THREADS: usize = 2;

/// End-to-end metrics: every workload reports each of these.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Operations whose share of traced time is a per-layer metric
/// (`<op>.pct`).
const SHARED_OPS: [&str; 22] = [
    "circuits.corpus_stream",
    "circuits.spec_parse",
    "netlist.structural_hash",
    "netlist.stats",
    "asic.synth",
    "fpga.map",
    "error.analyze",
    "core.cache_key",
    "core.cache_get",
    "store.cache_open",
    "store.cache_insert",
    "core.sample_split",
    "core.train_zoo",
    "ml.estimate_all",
    "core.peel_fronts",
    "core.pareto",
    "serve.http_parse",
    "core.request_report",
    "obs.to_json",
    "core.estimate_features",
    "ml.estimate_row",
    "serve.http_write",
];

/// Per-layer metrics other than the operation shares and the per-model
/// training shares. Metrics in a unit of time are measured on every
/// workload; the others read 0 where a workload never reaches the layer.
const PER_LAYER: [(&str, &str); 23] = [
    ("trace.wall_s", "s"),
    ("core.characterize.p50_us", "us"),
    ("core.cache_key.p50_us", "us"),
    ("netlist.stats.p50_us", "us"),
    ("serve.transport.pct", "%"),
    ("core.characterize.calls", "count"),
    ("asic.synth.calls", "count"),
    ("fpga.map.calls", "count"),
    ("error.analyze.calls", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("fpga.sig_rejected_ratio", "ratio"),
    ("error.mib_simulated", "MiB"),
    ("store.cache_bytes", "bytes"),
    ("store.corpus_bytes", "bytes"),
    ("runtime.coalesced_ratio", "ratio"),
    ("runtime.characterizations_per_request", "ratio"),
    ("serve.queue_rejections", "count"),
    ("serve.keepalive_reuses", "count"),
    ("core.flow_synthesized", "count"),
    ("core.flow_mean_coverage", "ratio"),
    ("core.flow_modeled_speedup", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Every per-layer metric in output order, with its unit.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    all.extend(SHARED_OPS.iter().map(|op| (format!("{op}.pct"), "%")));
    all.extend(
        afp_ml::MlModelId::ALL
            .iter()
            .map(|m| (format!("ml.train.{}.pct", m.label()), "%")),
    );
    all
}

fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us")
}

/// How much work a run does. The benchmark uses [`Size::BENCH`]; the
/// test-only [`Size::TINY`] keeps `cargo test` fast.
pub struct Size {
    /// `paper_full_specs` scale of the explore corpus. At 0.1 the 8x8
    /// multiplier library is the paper's 4,494-circuit subsample.
    pub corpus_scale: f64,
    /// Set-ups per untraced explore run; `setup_s` is their median.
    pub explore_setups: usize,
    /// Set-ups per untraced serve run: more, because each is short.
    pub serve_setups: usize,
    /// Circuits per library the two serve zoos are trained on.
    pub zoo_library: usize,
    /// Length of the hot schedule, walked cyclically.
    pub hot_schedule: usize,
    /// Hot requests replayed in process by a traced run.
    pub hot_replay: usize,
    /// Never-seen keys generated for `serve_cold`.
    pub cold_keys: usize,
    /// Keys both cold clients walk between deadline checks.
    pub cold_chunk: usize,
    /// Cold keys replayed by a traced run.
    pub cold_replay_keys: usize,
}

impl Size {
    pub const BENCH: Size = Size {
        corpus_scale: 0.1,
        explore_setups: 3,
        serve_setups: 5,
        zoo_library: 120,
        hot_schedule: 1 << 16,
        hot_replay: 20_000,
        cold_keys: 30_000,
        cold_chunk: 256,
        cold_replay_keys: 600,
    };

    #[cfg(test)]
    pub const TINY: Size = Size {
        corpus_scale: 0.002,
        explore_setups: 2,
        serve_setups: 2,
        zoo_library: 30,
        hot_schedule: 4096,
        hot_replay: 200,
        cold_keys: 200,
        cold_chunk: 8,
        cold_replay_keys: 8,
    };
}

/// What one workload run measured.
pub struct Run {
    pub attempted: u64,
    pub values: BTreeMap<String, f64>,
    /// Extra `name value` lines: context, not metrics.
    pub info: Vec<String>,
    pub trace: Option<(Vec<SpanRecord>, Summary)>,
}

impl Run {
    pub fn new(attempted: u64) -> Run {
        Run {
            attempted,
            values: BTreeMap::new(),
            info: Vec::new(),
            trace: None,
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The per-layer metrics every traced replay derives from its spans.
    pub fn layer_common(&mut self, s: &Summary, wall_s: f64) {
        self.set("trace.wall_s", wall_s);
        for op in ["core.characterize", "core.cache_key", "netlist.stats"] {
            self.set(&format!("{op}.p50_us"), s.p50_us(op));
        }
        for op in [
            "core.characterize",
            "asic.synth",
            "fpga.map",
            "error.analyze",
        ] {
            self.set(&format!("{op}.calls"), s.calls(op) as f64);
        }
        for op in SHARED_OPS {
            self.set(&format!("{op}.pct"), s.pct(op));
        }
        self.set("trace.coverage", s.coverage());
    }

    /// Ratios of the replay runtime's counters.
    pub fn counters(&mut self, c: &CounterSnapshot) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        self.set(
            "core.cache_hit_ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        );
        self.set(
            "fpga.sig_rejected_ratio",
            ratio(c.cuts_sig_rejected, c.cuts_merged + c.cuts_sig_rejected),
        );
        self.set(
            "error.mib_simulated",
            c.bytes_simulated as f64 / (1024.0 * 1024.0),
        );
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ExploreCold,
    ExploreWarm,
    ServeHot,
    ServeCold,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ExploreCold,
        Workload::ExploreWarm,
        Workload::ServeHot,
        Workload::ServeCold,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ExploreCold => "explore_cold",
            Workload::ExploreWarm => "explore_warm",
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: benchmark --workload explore_cold|explore_warm|serve_hot|serve_cold --seed N [--seconds S] [--trace 0|1]";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 12.0, false);
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == name)
                            .ok_or(format!("unknown workload `{name}`"))?,
                    );
                }
                "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
                "--seconds" => {
                    seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        })
    }
}

/// `(name, value, unit)` of each reported metric, in table order.
type Metrics = Vec<(String, f64, &'static str)>;

/// Run one workload in `work` and assemble its metrics in table order.
fn run(args: &Args, size: &Size, work: &Path) -> Result<(Run, Metrics), String> {
    std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let (seed, secs) = (args.seed, args.seconds);
    let run = match (args.workload, args.trace) {
        (Workload::ExploreCold, false) => explore::measure(false, seed, secs, size, work)?,
        (Workload::ExploreWarm, false) => explore::measure(true, seed, secs, size, work)?,
        (Workload::ServeHot, false) => serve::measure(false, seed, secs, size, work)?,
        (Workload::ServeCold, false) => serve::measure(true, seed, secs, size, work)?,
        (Workload::ExploreCold, true) => explore::trace(false, seed, size, work)?,
        (Workload::ExploreWarm, true) => explore::trace(true, seed, size, work)?,
        (Workload::ServeHot, true) => serve::trace(false, seed, secs, size, work)?,
        (Workload::ServeCold, true) => serve::trace(true, seed, secs, size, work)?,
    };
    let table: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    if let Some(stray) = run
        .values
        .keys()
        .find(|k| !table.iter().any(|(n, _)| n == *k))
    {
        return Err(format!(
            "workload set `{stray}`, which is not a metric of this run"
        ));
    }
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = run.values.get(&name).copied();
        let value = match value {
            Some(v) if v.is_finite() && (!is_time(unit) || v > 0.0) => v,
            Some(v) => return Err(format!("metric {name} measured as {v}")),
            None if !args.trace || is_time(unit) => {
                return Err(format!("metric {name} was not measured"))
            }
            None => 0.0,
        };
        metrics.push((name, value, unit));
    }
    Ok((run, metrics))
}

/// The result line: the last line of standard output.
fn result_json(attempted: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from("target").join("benchmark");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    let result = run(&args, &Size::BENCH, &work);
    let _ = std::fs::remove_dir_all(&work);
    let (run, metrics) = match result {
        Ok(done) => done,
        Err(e) => {
            eprintln!("benchmark check failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} cores {}",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in &run.info {
        println!("info {line}");
    }
    if let Some((spans, summary)) = &run.trace {
        print!("{}", summary.table());
        let path = out_dir.join(format!(
            "{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = trace::write_jsonl(&path, spans) {
            eprintln!("writing {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("spans {} written to {}", spans.len(), path.display());
    }
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    println!("{}", result_json(run.attempted, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in_benchmark_json() -> (Vec<String>, Vec<String>) {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str, next: &str| -> Vec<String> {
            let from = json.find(key).expect("section present");
            let to = json[from..].find(next).map_or(json.len(), |i| from + i);
            json[from..to]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().expect("closing quote").to_string())
                .collect()
        };
        (
            section("\"end_to_end\"", "\"per_layer\""),
            section("\"per_layer\"", "\n}"),
        )
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let (e2e, layer) = names_in_benchmark_json();
        let ours: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(e2e, ours);
        let ours: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(layer, ours);
    }

    #[test]
    fn args_parse_the_documented_form() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload serve_cold --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeCold, 7, 3.0, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload serve_hot").is_err());
        assert!(parse("--workload serve_hot --seed 1 --trace 2").is_err());
    }

    /// Every workload, untraced and traced, at the tiny size: the gates
    /// run and every metric of the run's table comes out.
    #[test]
    fn every_workload_runs_at_tiny_size() {
        let root = std::env::temp_dir().join(format!("afp-benchmark-test-{}", std::process::id()));
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: 5,
                    seconds: 0.3,
                    trace,
                };
                let work = root.join(format!("{}-{trace}", workload.name()));
                let (run, metrics) = run(&args, &Size::TINY, &work)
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
                let want = if trace {
                    per_layer().len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(metrics.len(), want);
                assert!(run.attempted > 0);
                if trace {
                    let (_, summary) = run.trace.as_ref().expect("traced run keeps spans");
                    assert!(
                        summary.coverage() > 0.5,
                        "{}: {}",
                        workload.name(),
                        summary.coverage()
                    );
                }
                let line = result_json(run.attempted, &metrics);
                assert!(line.starts_with("{\"correct\": true"));
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
