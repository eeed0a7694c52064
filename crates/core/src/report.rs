//! Assembly of the per-run observability report.
//!
//! [`run_report`] folds a finished [`FlowOutcome`] plus the stage spans of
//! an [`afp_obs::Recorder`] into one [`RunReport`]: the stage table from
//! tracing, and typed sections for configuration, time accounting,
//! runtime counters, cache behaviour, estimate quarantine and pareto
//! coverage. The JSON schema is stable by construction — fields are
//! emitted in fixed builder order — so goldens can compare documents
//! byte-for-byte after [`normalized`] strips the nondeterministic
//! surfaces (wall-clock timings and the counters the registry marks
//! unstable). Counter fields come from the [`COUNTERS`] registry through
//! [`counter_section`], never from hand-written field lists.

use afp_obs::{Recorder, RunReport, Section, Value};
use afp_runtime::{CounterSnapshot, ReportSection, COUNTERS};

use crate::flow::{FlowConfig, FlowOutcome};
use crate::record::FpgaParam;

/// Stable lower-case report key of one FPGA parameter.
fn param_key(param: FpgaParam) -> &'static str {
    match param {
        FpgaParam::Latency => "latency",
        FpgaParam::Power => "power",
        FpgaParam::Area => "area",
    }
}

/// Build the structured run report of one flow outcome.
///
/// Sections, in order: `flow` (what ran; `library_kind` and
/// `library_width` come from the explored records and read `"mixed"` and
/// `null` when a stored corpus mixes kinds or widths), `target` (which
/// device profile the FPGA ground truth was synthesized for), `time` (the
/// paper's exploration-time accounting; undefined ratios are `null`),
/// `runtime` (the registry's scheduler, synthesis, mapper, simulator and
/// zoo-memo counters, see [`counter_section`]), `cache` (hit/miss
/// totals, hit rate and dropped disk writes), `quarantine` (non-finite
/// estimate defenses from the robustness harness) and `coverage`
/// (per-parameter pareto coverage plus the mean).
pub fn run_report(config: &FlowConfig, outcome: &FlowOutcome, recorder: &Recorder) -> RunReport {
    let mut report = RunReport::from_recorder(recorder);
    // The explored records say what ran.
    let (library_kind, library_width) = match outcome.records.split_first() {
        Some((first, rest))
            if rest
                .iter()
                .all(|r| r.kind == first.kind && r.width == first.width) =>
        {
            (first.kind.mnemonic(), Value::UInt(first.width as u64))
        }
        _ => ("mixed", Value::Null),
    };
    report.push_section(
        Section::new("flow")
            .field("library_kind", Value::Str(library_kind.to_string()))
            .field("library_width", library_width)
            .field("library_size", Value::UInt(outcome.records.len() as u64))
            .field("subset_size", Value::UInt(outcome.subset.len() as u64))
            .field("train_size", Value::UInt(outcome.train.len() as u64))
            .field("validate_size", Value::UInt(outcome.validate.len() as u64))
            .field("models", Value::UInt(config.models.len() as u64))
            .field("fronts", Value::UInt(config.fronts as u64))
            .field("top_models", Value::UInt(config.top_models as u64))
            .field("threads", Value::UInt(config.threads as u64))
            .field("seed", Value::UInt(config.seed)),
    );
    let fpga = &config.fpga;
    report.push_section(
        Section::new("target")
            .field("name", Value::Str(fpga.target.clone()))
            .field("lut_inputs", Value::UInt(fpga.arch.lut_inputs as u64))
            .field(
                "luts_per_slice",
                Value::UInt(fpga.arch.luts_per_slice as u64),
            )
            .field("clock_mhz", Value::Num(fpga.clock_mhz))
            .field("pnr_jitter", Value::Num(fpga.pnr_jitter)),
    );
    let time = &outcome.time;
    report.push_section(
        Section::new("time")
            .field("exhaustive_s", Value::Num(time.exhaustive_s))
            .field("flow_s", Value::Num(time.flow_s()))
            .field("subset_s", Value::Num(time.subset_s))
            .field("candidates_s", Value::Num(time.candidates_s))
            .field("ml_s", Value::Num(time.ml_s))
            .field(
                "exhaustive_count",
                Value::UInt(time.exhaustive_count as u64),
            )
            .field("flow_count", Value::UInt(time.flow_count as u64))
            .field("speedup", Value::ratio(time.speedup()))
            .field("synth_reduction", Value::ratio(time.synth_reduction())),
    );
    let rt = &outcome.runtime;
    report.push_section(counter_section(ReportSection::Runtime, rt));
    let lookups = rt.cache_hits + rt.cache_misses;
    let hit_rate = if lookups > 0 {
        Some(rt.cache_hits as f64 / lookups as f64)
    } else {
        None
    };
    let last_write_error = match &outcome.cache_last_error {
        Some(err) => Value::Str(err.clone()),
        None => Value::Null,
    };
    report.push_section(
        Section::new("cache")
            .field("hits", Value::UInt(rt.cache_hits))
            .field("misses", Value::UInt(rt.cache_misses))
            .field("hit_rate", Value::ratio(hit_rate))
            .field("evictions", Value::UInt(rt.cache_evictions))
            .field("write_errors", Value::UInt(rt.cache_write_errors))
            .field("last_write_error", last_write_error),
    );
    let dropped: u64 = outcome
        .dropped_models
        .values()
        .map(|v| v.len() as u64)
        .sum();
    report.push_section(
        Section::new("quarantine")
            .field(
                "estimates_quarantined",
                Value::UInt(rt.estimates_quarantined),
            )
            .field("models_dropped", Value::UInt(dropped)),
    );
    let mut coverage = Section::new("coverage");
    for &param in &FpgaParam::ALL {
        let c = outcome.coverage.get(&param).copied();
        coverage = coverage.field(param_key(param), Value::ratio(c));
    }
    report.push_section(coverage.field("mean", Value::Num(outcome.mean_coverage())));
    report
}

/// The fields of one report section that come straight from the counter
/// registry: every [`COUNTERS`] row tagged `section`, in table order, keyed
/// by counter name. The `runtime` section of both the run report and
/// `afp serve`'s `/stats` is exactly this; the `serve` and `estimate`
/// sections of `/stats` start with it and append derived values.
pub fn counter_section(section: ReportSection, snapshot: &CounterSnapshot) -> Section {
    snapshot
        .rows()
        .filter(|(row, _)| row.section == section)
        .fold(Section::new(section.name()), |s, (row, value)| {
            s.field(row.name, Value::UInt(value))
        })
}

/// Strip the run-to-run unstable surfaces from a report — wall-clock
/// stage timings and every counter the registry marks unstable (its
/// value depends on scheduling, shard size, or whether the library was
/// streamed or resident, not on what was computed) — leaving a document
/// that is byte-identical across repeated runs, thread counts, shard
/// sizes and library sources. This is what the schema goldens and CI
/// diffs compare.
pub fn normalized(report: &RunReport) -> RunReport {
    let mut out = report.normalized();
    for row in COUNTERS.iter().filter(|row| row.unstable) {
        out.set_field(row.section.name(), row.name, Value::UInt(0));
    }
    // Error strings embed host-specific paths; only presence is stable.
    out.set_field("cache", "last_write_error", Value::Null);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;
    use afp_circuits::{ArithKind, LibrarySource, LibrarySpec};
    use afp_ml::MlModelId;

    fn small_outcome() -> (FlowConfig, FlowOutcome, Recorder) {
        let config = FlowConfig {
            models: vec![MlModelId::Ml11, MlModelId::Ml14, MlModelId::Ml18],
            top_models: 2,
            ..FlowConfig::default()
        };
        let recorder = Recorder::enabled();
        let outcome = Flow::new(config.clone())
            .run_source_traced(
                &LibrarySource::Generated(LibrarySpec::new(ArithKind::Adder, 8, 60)),
                &recorder,
            )
            .expect("generated source");
        (config, outcome, recorder)
    }

    #[test]
    fn report_has_every_section_in_order() {
        let (config, outcome, recorder) = small_outcome();
        let report = run_report(&config, &outcome, &recorder);
        let names: Vec<&str> = report.sections.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "flow",
                "target",
                "time",
                "runtime",
                "cache",
                "quarantine",
                "coverage"
            ]
        );
        // The registry's `runtime` rows, in table order (`afp serve`'s
        // `/stats` pins the same list).
        let runtime: Vec<&str> = report.sections[3]
            .fields
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(
            runtime,
            [
                "tasks_executed",
                "steals",
                "asic_synths",
                "fpga_synths",
                "error_analyses",
                "bytes_simulated",
                "sim_nodes_shared",
                "cuts_merged",
                "cuts_sig_rejected",
                "cuts_dominance_pruned",
                "mapper_reuses",
                "sim_tape_reuses",
                "structural_dedup_hits",
                "shards_streamed",
                "peak_resident_circuits",
                "zoo_memo_hits",
                "zoo_memo_misses",
                "zoo_memo_errors"
            ]
        );
        let cache: Vec<&str> = report.sections[4]
            .fields
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(
            cache,
            [
                "hits",
                "misses",
                "hit_rate",
                "evictions",
                "write_errors",
                "last_write_error"
            ]
        );
        let json = report.to_json();
        assert!(json.contains("\"quarantine\":{\"estimates_quarantined\":0"));
        assert!(json.contains("\"coverage\":{\"latency\":"));
        assert!(
            json.contains("\"target\":{\"name\":\"lut6-7series\",\"lut_inputs\":6"),
            "{json}"
        );
    }

    #[test]
    fn normalized_zeroes_exactly_the_unstable_counters() {
        let mut report = RunReport::new();
        let mut runtime = counter_section(ReportSection::Runtime, &CounterSnapshot::default());
        for (_, value) in &mut runtime.fields {
            *value = Value::UInt(1);
        }
        report.push_section(runtime);
        let zeroed: Vec<String> = normalized(&report).sections[0]
            .fields
            .iter()
            .filter(|(_, value)| *value == Value::UInt(0))
            .map(|(key, _)| key.clone())
            .collect();
        assert_eq!(
            zeroed,
            [
                "tasks_executed",
                "steals",
                "sim_nodes_shared",
                "mapper_reuses",
                "shards_streamed",
                "peak_resident_circuits"
            ]
        );
    }

    #[test]
    fn a_stored_corpus_reports_the_kind_and_width_it_explored() {
        use afp_circuits::{build_library, store};
        let dir = std::env::temp_dir().join(format!("afp-report-mul8-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mul8.afps");
        let library = build_library(&LibrarySpec::new(ArithKind::Multiplier, 8, 40));
        store::write_library(&path, &library).unwrap();
        let config = FlowConfig {
            models: vec![MlModelId::Ml11, MlModelId::Ml18],
            top_models: 1,
            ..FlowConfig::default()
        };
        let outcome = Flow::new(config.clone())
            .run_source(&LibrarySource::Stored(path))
            .expect("stored corpus");
        let json = run_report(&config, &outcome, &Recorder::disabled()).to_json();
        assert!(
            json.contains("\"library_kind\":\"mul\",\"library_width\":8,"),
            "{json}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn normalized_report_is_reproducible() {
        let (config, outcome, recorder) = small_outcome();
        let a = normalized(&run_report(&config, &outcome, &recorder));
        let (config2, outcome2, recorder2) = small_outcome();
        let b = normalized(&run_report(&config2, &outcome2, &recorder2));
        assert_eq!(a.to_json(), b.to_json());
        // Timings and steals are genuinely gone.
        assert!(a.to_json().contains("\"steals\":0"));
        assert_eq!(a.total_wall_s(), 0.0);
    }
}
