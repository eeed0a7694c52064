//! The streaming contract of the flow: a stored corpus streamed
//! shard-at-a-time must produce a normalized run report byte-identical
//! to characterizing it as one resident shard, for any thread count and
//! shard size — and a damaged corpus must fail loudly, never shrink
//! silently.

use std::path::PathBuf;

use approxfpgas_suite::circuits::{write_library_specs, ArithKind, LibrarySource, LibrarySpec};
use approxfpgas_suite::flow::report::{normalized, run_report};
use approxfpgas_suite::flow::{Flow, FlowConfig};
use approxfpgas_suite::ml::MlModelId;
use approxfpgas_suite::obs::{Recorder, Value};
use approxfpgas_suite::runtime::{Key128, Runtime};
use approxfpgas_suite::store::StoreWriter;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afp-streamflow-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(threads: usize, shard_circuits: usize) -> FlowConfig {
    FlowConfig {
        min_subset: 24,
        models: vec![
            MlModelId::Ml1,
            MlModelId::Ml4,
            MlModelId::Ml13,
            MlModelId::Ml18,
        ],
        threads,
        shard_circuits,
        ..FlowConfig::default()
    }
}

/// Write a mixed adder/multiplier corpus — streaming must not assume a
/// single-kind library.
fn mixed_corpus(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("corpus.afps");
    let specs = [
        LibrarySpec::new(ArithKind::Adder, 8, 40),
        LibrarySpec::new(ArithKind::Multiplier, 4, 20),
    ];
    write_library_specs(&path, &specs, &Runtime::new(1)).unwrap();
    path
}

/// Normalized report JSON with the honestly-differing `flow.threads`
/// field aligned — the byte-identity comparator for all paths.
fn report_json(
    cfg: &FlowConfig,
    outcome: &approxfpgas_suite::flow::FlowOutcome,
    rec: &Recorder,
) -> String {
    let mut report = normalized(&run_report(cfg, outcome, rec));
    report.set_field("flow", "threads", Value::UInt(0));
    report.to_json()
}

#[test]
fn streamed_reports_are_byte_identical_to_the_in_ram_path() {
    let dir = temp_dir("golden");
    let path = mixed_corpus(&dir);

    // In-RAM comparator: the whole corpus as one shard, on one thread.
    let in_ram_cfg = config(1, 0);
    let rec = Recorder::enabled();
    let outcome = Flow::new(in_ram_cfg.clone())
        .run_source_traced(&LibrarySource::Stored(path.clone()), &rec)
        .unwrap();
    assert_eq!(outcome.runtime.shards_streamed, 1);
    let golden = report_json(&in_ram_cfg, &outcome, &rec);
    assert!(golden.contains("\"shards_streamed\":0"), "{golden}");
    assert!(golden.contains("\"peak_resident_circuits\":0"), "{golden}");

    for threads in [1, 8] {
        for shard in [7, 17, 1000] {
            let cfg = config(threads, shard);
            let rec = Recorder::enabled();
            let outcome = Flow::new(cfg.clone())
                .run_source_traced(&LibrarySource::Stored(path.clone()), &rec)
                .unwrap();
            assert!(
                outcome.runtime.shards_streamed >= 1,
                "threads={threads} shard={shard}"
            );
            assert!(
                outcome.runtime.peak_resident_circuits <= shard as u64,
                "threads={threads} shard={shard}: peak {}",
                outcome.runtime.peak_resident_circuits
            );
            let streamed = report_json(&cfg, &outcome, &rec);
            assert_eq!(
                golden, streamed,
                "normalized report diverged at threads={threads} shard={shard}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_corpus_fails_the_flow_loudly() {
    let dir = temp_dir("torn");
    let path = mixed_corpus(&dir);
    let bytes = std::fs::read(&path).unwrap();
    // Cut through the trailer into the index frame: the data frames are
    // all intact, so a silent-prefix policy would "succeed" with the
    // full library — the flow must refuse anyway.
    std::fs::write(&path, &bytes[..bytes.len() - 12]).unwrap();
    match Flow::new(config(1, 16)).run_source(&LibrarySource::Stored(path.clone())) {
        Ok(_) => panic!("a truncated corpus must not characterize"),
        Err(err) => {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("torn or corrupt"),
                "unexpected message: {err}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_record_version_fails_the_flow_loudly() {
    let dir = temp_dir("version");
    let path = dir.join("future.afps");
    // A well-formed store whose records were written by some future
    // circuit codec: indistinguishable from garbage to this build, and
    // it must say so rather than stream zero circuits.
    let mut writer = StoreWriter::create(&path, 999).unwrap();
    writer.append(Key128 { hi: 1, lo: 2 }, b"opaque").unwrap();
    writer.finish_sealed().unwrap();
    match Flow::new(config(1, 16)).run_source(&LibrarySource::Stored(path.clone())) {
        Ok(_) => panic!("a foreign-version corpus must not characterize"),
        Err(err) => {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains("record version 999"), "{msg}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
