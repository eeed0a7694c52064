//! Streaming-flow residency measurement: wall time and peak circuit
//! residency of `Flow::run_source` over persisted corpora of growing
//! size, at a fixed shard size.
//!
//! This is the regenerator behind EXPERIMENTS.md "Streaming flow
//! residency" and the `BENCH_residency.json` pins. The claim being
//! pinned is the tentpole contract of the streaming path: as the corpus
//! grows, peak resident circuits stay O(shard) — flat — instead of
//! O(corpus), while the outcome stays identical to characterizing the
//! whole corpus as one shard (checked here before any timing).
//!
//! Usage: `cargo run --release -p afp-bench --bin flow_residency [--quick]`
//!
//! Writes `results/flow_residency.csv` (`case,metric,value`).

use std::path::PathBuf;

use afp_bench::{emit, time_us};
use afp_circuits::{build_library, ArithKind, LibrarySource, LibrarySpec};
use approxfpgas::{Flow, FlowConfig};

/// Circuits pulled per shard — the residency budget every case must
/// respect regardless of corpus size.
const SHARD: usize = 64;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afp-bench-residency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config() -> FlowConfig {
    FlowConfig {
        min_subset: 24,
        threads: 1,
        shard_circuits: SHARD,
        ..FlowConfig::default()
    }
}

/// Peak RSS high-water mark of this process in KiB, if the platform
/// exposes it (`VmHWM` in `/proc/self/status`). Informational only: the
/// kernel gauge is cumulative across cases, so the per-case pin is the
/// flow's own `peak_resident_circuits` counter.
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let runs = if quick { 1 } else { 3 };
    println!("flow_residency: shard {SHARD}, {runs} run(s) per case (median)\n");

    let dir = temp_dir();
    let cases = [("flow_mul8_120", 120usize), ("flow_mul8_320", 320usize)];

    // Persist each corpus once, untimed.
    let mut corpora = Vec::new();
    for &(name, size) in &cases {
        let path = dir.join(format!("{name}.afps"));
        let library = build_library(&LibrarySpec::new(ArithKind::Multiplier, 8, size));
        let summary = afp_circuits::write_library(&path, &library).unwrap();
        assert_eq!(
            summary.written + summary.deduplicated,
            library.len(),
            "{name}: write_library lost circuits"
        );
        corpora.push((name, path));
    }

    // Equivalence gate before any timing: streaming in SHARD-circuit
    // shards must agree with one whole-corpus shard on the smallest corpus.
    {
        let source = LibrarySource::Stored(corpora[0].1.clone());
        let resident = Flow::new(FlowConfig {
            shard_circuits: 0,
            ..config()
        })
        .run_source(&source)
        .unwrap();
        let streamed = Flow::new(config()).run_source(&source).unwrap();
        assert_eq!(resident.subset, streamed.subset, "subset diverged");
        assert_eq!(
            resident.final_fronts, streamed.final_fronts,
            "fronts diverged"
        );
        assert_eq!(resident.time, streamed.time, "time accounting diverged");
    }

    let mut rows = Vec::new();
    let mut peaks = Vec::new();
    for (name, path) in &corpora {
        let source = LibrarySource::Stored(path.clone());
        let outcome = Flow::new(config()).run_source(&source).unwrap();
        let peak = outcome.runtime.peak_resident_circuits;
        assert!(
            peak <= SHARD as u64,
            "{name}: peak residency {peak} exceeds the shard budget {SHARD}"
        );
        peaks.push(peak);
        let flow_us = time_us(1, runs, || {
            let outcome = Flow::new(config())
                .run_source(std::hint::black_box(&source))
                .unwrap();
            std::hint::black_box(outcome.records.len());
        });
        rows.extend([
            (*name, "circuits", outcome.records.len() as f64),
            (
                *name,
                "shards_streamed",
                outcome.runtime.shards_streamed as f64,
            ),
            (*name, "peak_resident", peak as f64),
            (*name, "flow_us", flow_us),
        ]);
        rows.extend(vm_hwm_kib().map(|k| (*name, "vm_hwm_kib", k as f64)));
    }

    // The residency claim itself: the corpus grew, the peak did not.
    assert!(
        peaks.windows(2).all(|w| w[1] <= w[0].max(SHARD as u64)),
        "peak residency grew with corpus size: {peaks:?}"
    );

    emit("flow_residency", &rows);

    let _ = std::fs::remove_dir_all(&dir);
}
