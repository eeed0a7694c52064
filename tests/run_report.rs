//! The JSON run report is a contract: CI parses it, EXPERIMENTS.md quotes
//! it, and downstream tooling diffs it. These tests pin the schema (keys,
//! ordering, normalization) and the arithmetic linking stage spans to the
//! report totals.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;

use approxfpgas_suite::circuits::{ArithKind, LibrarySource, LibrarySpec};
use approxfpgas_suite::flow::report::{normalized, run_report};
use approxfpgas_suite::flow::{Flow, FlowConfig};
use approxfpgas_suite::ml::MlModelId;
use approxfpgas_suite::obs::{Recorder, RunReport};

/// The 60-circuit 8-bit adder library every run explores.
fn source() -> LibrarySource {
    LibrarySource::Generated(LibrarySpec::new(ArithKind::Adder, 8, 60))
}

fn report_config(threads: usize) -> FlowConfig {
    FlowConfig {
        min_subset: 24,
        models: vec![
            MlModelId::Ml1,
            MlModelId::Ml4,
            MlModelId::Ml13,
            MlModelId::Ml18,
        ],
        threads,
        ..FlowConfig::default()
    }
}

fn traced_run(threads: usize) -> (approxfpgas_suite::flow::FlowOutcome, RunReport) {
    let config = report_config(threads);
    let recorder = Recorder::enabled();
    let outcome = Flow::new(config.clone())
        .run_source_traced(&source(), &recorder)
        .expect("generated libraries stream");
    let report = run_report(&config, &outcome, &recorder);
    (outcome, report)
}

fn traced_report(threads: usize) -> RunReport {
    traced_run(threads).1
}

/// Extract the top-level keys of a single-line JSON object, in order.
/// Good enough for the documents we emit (no nested objects before the
/// section objects, keys never contain escapes).
fn top_level_keys(json: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let bytes = json.as_bytes();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut key_start = None;
    let mut expecting_key = false;
    for (i, &b) in bytes.iter().enumerate() {
        if in_str {
            if b == b'"' && bytes[i - 1] != b'\\' {
                in_str = false;
                if let (1, Some(start), true) = (depth, key_start.take(), expecting_key) {
                    keys.push(json[start..i].to_string());
                    expecting_key = false;
                }
            }
            continue;
        }
        match b {
            b'"' => {
                in_str = true;
                key_start = Some(i + 1);
            }
            b'{' | b'[' => {
                depth += 1;
                expecting_key = depth == 1;
            }
            b'}' | b']' => depth -= 1,
            b',' => expecting_key = depth == 1,
            _ => {}
        }
    }
    keys
}

#[test]
fn normalized_report_schema_is_golden() {
    let (outcome, raw) = traced_run(1);
    let report = normalized(&raw);
    let json = report.to_json();

    // Top-level key order is the schema contract.
    assert_eq!(
        top_level_keys(&json),
        [
            "version",
            "total_wall_s",
            "stages",
            "flow",
            "target",
            "time",
            "runtime",
            "cache",
            "quarantine",
            "coverage"
        ]
    );
    assert!(
        json.starts_with("{\"version\":1,\"total_wall_s\":0.0,\"stages\":["),
        "unexpected preamble: {}",
        &json[..60.min(json.len())]
    );

    // Normalization zeroed every timing surface.
    assert!(report.stages.iter().all(|s| s.wall_s == 0.0));
    assert_eq!(report.total_wall_s(), 0.0);
    assert!(json.contains("\"steals\":0"));

    // The flow stages this configuration must have traced, in the
    // name-sorted order the recorder guarantees.
    let flow_stages: Vec<&str> = report
        .stages
        .iter()
        .map(|s| s.name.as_str())
        .filter(|n| n.starts_with("flow/"))
        .collect();
    assert_eq!(
        flow_stages,
        [
            "flow/build_library",
            "flow/characterize",
            "flow/fronts",
            "flow/select_estimate",
            "flow/subset_split",
            "flow/train_zoo"
        ]
    );
    // Every competing model was trained under its own stage; estimate
    // stages exist exactly for the models that won a selection slot.
    for id in report_config(1).models {
        assert!(
            report
                .stages
                .iter()
                .any(|s| s.name == format!("train/{}", id.label())),
            "missing train stage for {}",
            id.label()
        );
    }
    let selected: std::collections::BTreeSet<_> = outcome
        .selected_models
        .values()
        .flatten()
        .copied()
        .collect();
    assert!(!selected.is_empty());
    for id in report_config(1).models {
        assert_eq!(
            report
                .stages
                .iter()
                .any(|s| s.name == format!("estimate/{}", id.label())),
            selected.contains(&id),
            "estimate stage presence disagrees with selection for {}",
            id.label()
        );
    }
}

#[test]
fn normalized_report_is_byte_identical_across_thread_counts() {
    use approxfpgas_suite::obs::Value;
    // `flow.threads` honestly reports the configured thread count, so
    // align that one (intentionally different) field; everything else
    // must agree byte-for-byte after normalization.
    let mut one = normalized(&traced_report(1));
    let mut eight = normalized(&traced_report(8));
    one.set_field("flow", "threads", Value::UInt(0));
    eight.set_field("flow", "threads", Value::UInt(0));
    assert_eq!(
        one.to_json(),
        eight.to_json(),
        "normalized reports diverge across threads"
    );
    // And across repeated runs of the same configuration.
    let again = normalized(&traced_report(1)).to_json();
    assert_eq!(normalized(&traced_report(1)).to_json(), again);
}

#[test]
fn report_fields_mirror_the_outcome() {
    let config = report_config(1);
    let recorder = Recorder::enabled();
    let outcome = Flow::new(config.clone())
        .run_source_traced(&source(), &recorder)
        .expect("generated libraries stream");
    let json = run_report(&config, &outcome, &recorder).to_json();
    assert!(json.contains(&format!("\"library_size\":{}", outcome.records.len())));
    assert!(json.contains(&format!("\"subset_size\":{}", outcome.subset.len())));
    assert!(json.contains(&format!("\"flow_count\":{}", outcome.time.flow_count)));
    assert!(json.contains("\"estimates_quarantined\":0"));
    // An untraced recorder still yields a valid (stage-less) document.
    let empty = run_report(&config, &outcome, &Recorder::disabled()).to_json();
    assert!(empty.contains("\"stages\":[]"));
    assert_eq!(top_level_keys(&empty), top_level_keys(&json));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The report's `total_wall_s` is exactly the sum of its stage rows,
    /// and each stage row is exactly the aggregate of what was recorded
    /// against it — no time invented, none lost.
    #[test]
    fn report_totals_equal_sum_of_stage_spans(
        events in prop::collection::vec(
            (0usize..5, 0u64..10_000_000u64, 0u64..1000u64),
            0..40,
        )
    ) {
        const NAMES: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];
        let rec = Recorder::enabled();
        let mut expected: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for &(name_ix, nanos, items) in &events {
            let name = NAMES[name_ix];
            rec.record(name, Duration::from_nanos(nanos), items);
            let e = expected.entry(name).or_default();
            e.0 += nanos;
            e.1 += 1;
            e.2 += items;
        }
        let report = RunReport::from_recorder(&rec);
        prop_assert_eq!(report.stages.len(), expected.len());
        let mut expected_total = 0.0f64;
        for (row, (&name, &(ns, calls, items))) in
            report.stages.iter().zip(expected.iter())
        {
            prop_assert_eq!(row.name.as_str(), name);
            prop_assert_eq!(row.wall_s.to_bits(), (ns as f64 / 1e9).to_bits());
            prop_assert_eq!(row.calls, calls);
            prop_assert_eq!(row.items, items);
            expected_total += ns as f64 / 1e9;
        }
        // Value equality, not bit equality: the empty sum is allowed to
        // be -0.0.
        prop_assert_eq!(report.total_wall_s(), expected_total);
        // Normalization never changes counts, only timings.
        let norm = report.normalized();
        prop_assert_eq!(norm.total_wall_s(), 0.0);
        for (row, (&name, &(_, calls, items))) in
            norm.stages.iter().zip(expected.iter())
        {
            prop_assert_eq!(row.name.as_str(), name);
            prop_assert_eq!(row.calls, calls);
            prop_assert_eq!(row.items, items);
        }
    }
}
