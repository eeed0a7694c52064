//! Golden store-backed flow reports: the characterization cache's disk
//! tier must be invisible to results. A cold run that fills the binary
//! store, a warm run served from it, and a warm run on eight threads have
//! to produce the same normalized JSON report wherever warmth does not
//! legitimately change a counter (task, synthesis, simulation and
//! hit/miss counts) or a stage (per-model training, which a warm run
//! skips by loading its zoo memo). Anything less means the store codec
//! is lossy and quietly changing science. A leftover legacy CSV cache is
//! ignored and left untouched.

use std::path::{Path, PathBuf};

use approxfpgas_suite::circuits::{ArithKind, LibrarySource, LibrarySpec};
use approxfpgas_suite::flow::cache::STORE_FILE;
use approxfpgas_suite::flow::report::{normalized, run_report};
use approxfpgas_suite::flow::{Flow, FlowConfig};
use approxfpgas_suite::ml::MlModelId;
use approxfpgas_suite::obs::{Recorder, RunReport, Value};
use approxfpgas_suite::runtime::COUNTERS;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afp-suite-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run a traced flow backed by the store in `cache_dir` and return the
/// normalized report with the honestly-different `flow.threads` field
/// zeroed out.
fn normalized_report(threads: usize, cache_dir: &Path) -> RunReport {
    let config = FlowConfig {
        min_subset: 20,
        models: vec![MlModelId::Ml1, MlModelId::Ml13],
        threads,
        cache_dir: Some(cache_dir.to_path_buf()),
        ..FlowConfig::default()
    };
    let recorder = Recorder::enabled();
    let outcome = Flow::try_new(config.clone())
        .unwrap()
        .run_source_traced(
            &LibrarySource::Generated(LibrarySpec::new(ArithKind::Adder, 8, 48)),
            &recorder,
        )
        .expect("generated libraries stream");
    let mut report = normalized(&run_report(&config, &outcome, &recorder));
    report.set_field("flow", "threads", Value::UInt(0));
    report
}

/// The report JSON with every counter that cache warmth legitimately
/// changes zeroed: what was computed, not what had to be recomputed.
/// Zoo training is such work too — a warm run loads its zoo from the memo
/// — so the per-model `train/*` stages go and the memo counters are
/// zeroed.
fn warmth_invariant(report: &RunReport) -> String {
    let mut report = report.clone();
    report
        .stages
        .retain(|stage| !stage.name.starts_with("train/"));
    for row in COUNTERS
        .iter()
        .filter(|row| row.name.starts_with("zoo_memo_"))
    {
        report.set_field(row.section.name(), row.name, Value::UInt(0));
    }
    for field in [
        "tasks_executed",
        "asic_synths",
        "fpga_synths",
        "error_analyses",
        "bytes_simulated",
        "cuts_merged",
        "cuts_sig_rejected",
        "cuts_dominance_pruned",
        "sim_tape_reuses",
    ] {
        report.set_field("runtime", field, Value::UInt(0));
    }
    report.set_field("cache", "hits", Value::UInt(0));
    report.set_field("cache", "misses", Value::UInt(0));
    report.set_field("cache", "hit_rate", Value::Null);
    report.to_json()
}

#[test]
fn cold_and_warm_store_reports_agree() {
    let dir = temp_dir("store");

    let cold = normalized_report(1, &dir);
    assert!(dir.join(STORE_FILE).exists());
    let cold_json = cold.to_json();
    assert!(cold_json.contains("\"hits\":0"), "{cold_json}");

    // Warm runs: every characterization is served from the store. If the
    // codec dropped a bit, the time/coverage sections would drift.
    let warm = normalized_report(1, &dir);
    let warm_json = warm.to_json();
    assert!(
        warm_json.contains("\"misses\":0"),
        "warm run should be fully cache-served: {warm_json}"
    );
    assert!(warm_json.contains("\"asic_synths\":0"), "{warm_json}");
    assert!(warm_json.contains("\"bytes_simulated\":0"), "{warm_json}");
    assert!(warm_json.contains("\"cuts_merged\":0"), "{warm_json}");
    // The warm zoo came from the memo: the stage ran, no model trained.
    assert!(warm_json.contains("\"zoo_memo_hits\":1,"), "{warm_json}");
    let trains = |r: &RunReport| {
        r.stages
            .iter()
            .filter(|s| s.name.starts_with("train/"))
            .count()
    };
    assert!(trains(&cold) > 0);
    assert_eq!(trains(&warm), 0, "a warm run re-trained its zoo");
    assert!(warm.stages.iter().any(|s| s.name == "flow/train_zoo"));
    assert_eq!(
        warmth_invariant(&cold),
        warmth_invariant(&warm),
        "the warm store changed what the flow computed"
    );

    // And the same at eight threads: nothing differs at all.
    let warm8 = normalized_report(8, &dir);
    assert_eq!(
        warm8.to_json(),
        warm_json,
        "thread count leaks into the report"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn leftover_csv_cache_is_ignored_and_left_untouched() {
    let dir = temp_dir("leftover-csv");
    // A cache directory left behind by a build that still had the removed
    // CSV tier: a versioned header and one row.
    let csv = dir.join("characterization.csv");
    let legacy = b"key,v1,asic_area_um2,asic_delay_ns\n\
                   000000000000000100000000000000ff,1.5,0.25\n";
    std::fs::write(&csv, legacy).unwrap();

    let reference_dir = temp_dir("leftover-csv-reference");
    let reference = normalized_report(1, &reference_dir);

    // The store opens empty and the run is fully cold, exactly like a
    // run on an empty directory.
    let run = normalized_report(1, &dir);
    let json = run.to_json();
    assert!(json.contains("\"hits\":0"), "{json}");
    assert_eq!(json, reference.to_json());
    assert!(dir.join(STORE_FILE).exists());
    assert_eq!(
        std::fs::read(&csv).unwrap(),
        legacy,
        "the legacy CSV file must be left byte-for-byte untouched"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}
