//! Thread-count invariance and cache behaviour of the parallel flow.
//!
//! The work-stealing runtime distributes items dynamically, so *which
//! thread* computes an item is nondeterministic — but every partition
//! boundary is a pure function of the input size and all merges happen in
//! input order, so the flow's observable output must be bit-identical for
//! any thread count. These tests pin that guarantee at the whole-flow
//! level, plus the characterization cache's "second run synthesizes
//! nothing" promise.

use approxfpgas_suite::circuits::{ArithKind, LibrarySource, LibrarySpec};
use approxfpgas_suite::flow::{Flow, FlowConfig, FlowOutcome};
use approxfpgas_suite::ml::MlModelId;

fn tiny_config(threads: usize) -> FlowConfig {
    FlowConfig {
        min_subset: 24,
        threads,
        // A competitive subset of the zoo keeps the test quick while still
        // exercising deterministic and seeded-stochastic models.
        models: vec![
            MlModelId::Ml1,
            MlModelId::Ml4,
            MlModelId::Ml5,
            MlModelId::Ml13,
            MlModelId::Ml17,
        ],
        ..FlowConfig::default()
    }
}

fn assert_outcomes_identical(serial: &FlowOutcome, parallel: &FlowOutcome) {
    assert_eq!(serial.subset, parallel.subset);
    assert_eq!(serial.train, parallel.train);
    assert_eq!(serial.validate, parallel.validate);
    assert_eq!(serial.records.len(), parallel.records.len());
    for (a, b) in serial.records.iter().zip(&parallel.records) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.asic, b.asic, "{}: ASIC report differs", a.name);
        assert_eq!(a.fpga, b.fpga, "{}: FPGA report differs", a.name);
        assert_eq!(a.error, b.error, "{}: error metrics differ", a.name);
    }
    for (a, b) in serial.zoo.fidelities.iter().zip(&parallel.zoo.fidelities) {
        assert_eq!((a.model, a.param), (b.model, b.param));
        assert_eq!(a.fidelity, b.fidelity, "{} fidelity differs", a.model);
        assert_eq!(a.mae, b.mae);
        assert_eq!(a.r2, b.r2);
    }
    assert_eq!(serial.selected_models, parallel.selected_models);
    assert_eq!(serial.candidates, parallel.candidates);
    assert_eq!(serial.synthesized, parallel.synthesized);
    assert_eq!(serial.final_fronts, parallel.final_fronts);
    assert_eq!(serial.true_fronts, parallel.true_fronts);
    assert_eq!(serial.coverage, parallel.coverage);
    assert_eq!(serial.time, parallel.time);
}

/// A generated library of 60 8-bit circuits of `kind`.
fn library(kind: ArithKind) -> LibrarySource {
    LibrarySource::Generated(LibrarySpec::new(kind, 8, 60))
}

/// Run `flow` on the generated library of `kind`.
fn run(flow: &Flow, kind: ArithKind) -> FlowOutcome {
    flow.run_source(&library(kind))
        .expect("generated libraries stream")
}

#[test]
fn adder_flow_is_identical_for_one_and_eight_threads() {
    let serial = run(&Flow::new(tiny_config(1)), ArithKind::Adder);
    let parallel = run(&Flow::new(tiny_config(8)), ArithKind::Adder);
    assert_outcomes_identical(&serial, &parallel);
    // Task accounting is thread-invariant too (steals are not).
    assert_eq!(
        serial.runtime.tasks_executed,
        parallel.runtime.tasks_executed
    );
}

#[test]
fn multiplier_flow_is_identical_for_one_and_eight_threads() {
    let serial = run(&Flow::new(tiny_config(1)), ArithKind::Multiplier);
    let parallel = run(&Flow::new(tiny_config(8)), ArithKind::Multiplier);
    assert_outcomes_identical(&serial, &parallel);
    assert_eq!(
        serial.runtime.tasks_executed,
        parallel.runtime.tasks_executed
    );
}

#[test]
fn traced_flow_keeps_the_thread_invariance_guarantee() {
    // Same bit-identity contract, but with a live recorder attached to
    // both runs: spans read clocks and take a mutex, yet must never leak
    // into what the flow computes.
    use approxfpgas_suite::obs::Recorder;
    let rec_serial = Recorder::enabled();
    let rec_parallel = Recorder::enabled();
    let source = library(ArithKind::Adder);
    let traced = |threads, recorder| {
        Flow::new(tiny_config(threads))
            .run_source_traced(&source, recorder)
            .expect("generated libraries stream")
    };
    let serial = traced(1, &rec_serial);
    let parallel = traced(8, &rec_parallel);
    assert_outcomes_identical(&serial, &parallel);
    // And tracing vs no tracing is equally invisible.
    let untraced = run(&Flow::new(tiny_config(8)), ArithKind::Adder);
    assert_outcomes_identical(&untraced, &parallel);
    if rec_serial.is_enabled() {
        // Call/item tallies are scheduling-independent; only wall time
        // (and the runtime's steal counter) may differ across threads.
        let strip = |rec: &Recorder| -> Vec<(String, u64, u64)> {
            rec.stages()
                .into_iter()
                .map(|(name, s)| (name, s.calls, s.items))
                .collect()
        };
        assert_eq!(strip(&rec_serial), strip(&rec_parallel));
    }
}

#[test]
fn second_run_on_one_flow_synthesizes_nothing() {
    let flow = Flow::new(tiny_config(4));
    let cold = run(&flow, ArithKind::Adder);
    assert!(cold.runtime.asic_synths > 0);
    assert!(cold.runtime.fpga_synths > 0);
    assert_eq!(cold.runtime.cache_hits, 0);
    assert_eq!(cold.runtime.cache_misses as usize, cold.records.len());

    // Counters are per-run (fresh Runtime), so the warm run's synthesis
    // counts stand alone: the cache outlives the run and every
    // characterization must hit.
    let warm = run(&flow, ArithKind::Adder);
    assert_eq!(warm.runtime.asic_synths, 0, "warm run re-synthesized ASIC");
    assert_eq!(warm.runtime.fpga_synths, 0, "warm run re-synthesized FPGA");
    assert_eq!(warm.runtime.error_analyses, 0);
    assert_eq!(warm.runtime.cache_hits as usize, warm.records.len());
    assert_outcomes_identical(&cold, &warm);
}

#[test]
fn disabling_the_cache_disables_memoization() {
    let flow = Flow::new(FlowConfig {
        use_cache: false,
        ..tiny_config(2)
    });
    let first = run(&flow, ArithKind::Adder);
    let second = run(&flow, ArithKind::Adder);
    assert_eq!(first.runtime.cache_hits, 0);
    assert_eq!(first.runtime.cache_misses, 0);
    assert_eq!(second.runtime.asic_synths, first.runtime.asic_synths);
    assert!(second.runtime.asic_synths > 0);
}

#[test]
fn disk_cache_warms_a_fresh_process_worth_of_state() {
    let dir = std::env::temp_dir().join(format!("afp-disk-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = FlowConfig {
        cache_dir: Some(dir.clone()),
        ..tiny_config(4)
    };
    let cold = run(&Flow::new(config.clone()), ArithKind::Adder);
    assert!(cold.runtime.fpga_synths > 0);

    // A brand-new Flow (fresh memory tier) reloads the CSV tier.
    let warm = run(&Flow::new(config), ArithKind::Adder);
    assert_eq!(warm.runtime.asic_synths, 0);
    assert_eq!(warm.runtime.fpga_synths, 0);
    assert_eq!(warm.runtime.cache_hits as usize, warm.records.len());
    assert_outcomes_identical(&cold, &warm);
    let _ = std::fs::remove_dir_all(&dir);
}
