//! Numeric-robustness harness: the flow must survive worst-case
//! estimator output (NaN, ±inf, huge magnitudes) without panicking,
//! without corrupting its rankings, and bit-identically across thread
//! counts.
//!
//! Injection is done by [`afp_ml::chaos::ChaosRegressor`] wrappers around
//! the trained models — a pure function of feature row and seed, so the
//! corruption pattern is independent of scheduling.

use approxfpgas_suite::circuits::{ArithKind, LibrarySource, LibrarySpec};
use approxfpgas_suite::flow::record::FpgaParam;
use approxfpgas_suite::flow::{ChaosSpec, Flow, FlowConfig, FlowOutcome};
use approxfpgas_suite::ml::chaos::{ChaosConfig, ChaosKind};
use approxfpgas_suite::ml::MlModelId;

/// Run `flow` on a generated library of `size` 8-bit adders.
fn run(flow: &Flow, size: usize) -> FlowOutcome {
    let source = LibrarySource::Generated(LibrarySpec::new(ArithKind::Adder, 8, size));
    flow.run_source(&source)
        .expect("generated libraries stream")
}

fn fast_models() -> Vec<MlModelId> {
    vec![
        MlModelId::Ml1,
        MlModelId::Ml2,
        MlModelId::Ml3,
        MlModelId::Ml4,
        MlModelId::Ml11,
        MlModelId::Ml13,
        MlModelId::Ml14,
        MlModelId::Ml18,
    ]
}

fn chaotic_config(rate: f64, threads: usize) -> FlowConfig {
    FlowConfig {
        min_subset: 24,
        models: fast_models(),
        threads,
        chaos: Some(ChaosSpec::mixed(rate, 0xBAD_F00D)),
        ..FlowConfig::default()
    }
}

fn assert_sane(outcome: &FlowOutcome) {
    assert!(
        outcome.mean_coverage().is_finite(),
        "mean coverage went non-finite"
    );
    for (&param, &c) in &outcome.coverage {
        assert!(
            (0.0..=1.0).contains(&c),
            "{param:?}: coverage {c} out of [0,1]"
        );
        assert!(c.is_finite(), "{param:?}: non-finite coverage");
    }
    // Front members were really synthesized, and no front index escapes
    // the library.
    for front in outcome.final_fronts.values() {
        for i in front {
            assert!(outcome.synthesized.contains(i));
            assert!(*i < outcome.records.len());
        }
    }
}

#[test]
fn flow_completes_under_mixed_injection() {
    let outcome = run(&Flow::new(chaotic_config(0.2, 1)), 100);
    assert_sane(&outcome);
    // Injection at 20% over a 100-circuit library must actually have
    // quarantined something.
    assert!(
        outcome.runtime.estimates_quarantined > 0,
        "no estimates quarantined under 20% injection"
    );
    // Selection still fills its slots from the surviving models.
    for (&param, models) in &outcome.selected_models {
        assert!(!models.is_empty(), "{param:?}: no models selected");
    }
}

#[test]
fn injection_outcomes_are_bit_identical_across_thread_counts() {
    let one = run(&Flow::new(chaotic_config(0.25, 1)), 100);
    let eight = run(&Flow::new(chaotic_config(0.25, 8)), 100);
    assert_eq!(one.subset, eight.subset);
    assert_eq!(one.selected_models, eight.selected_models);
    assert_eq!(one.dropped_models, eight.dropped_models);
    assert_eq!(one.candidates, eight.candidates);
    assert_eq!(one.synthesized, eight.synthesized);
    assert_eq!(one.final_fronts, eight.final_fronts);
    assert_eq!(one.true_fronts, eight.true_fronts);
    for (&param, c1) in &one.coverage {
        assert_eq!(
            c1.to_bits(),
            eight.coverage[&param].to_bits(),
            "{param:?}: coverage differs across thread counts"
        );
    }
    assert_eq!(one.time, eight.time);
    assert_eq!(
        one.runtime.estimates_quarantined,
        eight.runtime.estimates_quarantined
    );
    assert!(one.runtime.estimates_quarantined > 0);
}

#[test]
fn heavy_injection_still_yields_valid_coverage() {
    // Half of every model's estimates are NaN/inf/huge; the flow must
    // still terminate with rankable output.
    let outcome = run(&Flow::new(chaotic_config(0.5, 0)), 100);
    assert_sane(&outcome);
    assert!(outcome.runtime.estimates_quarantined > 0);
}

#[test]
fn fully_nan_model_is_dropped_and_replaced() {
    // Golden quarantine path: Ml4 is the top fidelity model for Area in
    // this configuration (see tests/golden_flow.rs). Make its Area
    // estimates all-NaN: it must be dropped from the Area selection, the
    // next-best model promoted, and every parameter still gets its full
    // top-k quota.
    let config = FlowConfig {
        min_subset: 24,
        models: fast_models(),
        chaos: Some(ChaosSpec {
            config: ChaosConfig::always(ChaosKind::Nan, 77),
            only: Some((MlModelId::Ml4, FpgaParam::Area)),
        }),
        ..FlowConfig::default()
    };
    let outcome = run(&Flow::new(config), 100);
    assert_sane(&outcome);

    // The poisoned model is dropped for Area only.
    assert_eq!(
        outcome.dropped_models[&FpgaParam::Area],
        vec![MlModelId::Ml4]
    );
    assert!(!outcome.selected_models[&FpgaParam::Area].contains(&MlModelId::Ml4));
    // Every estimate of the poisoned (model, param) pair was quarantined.
    assert_eq!(
        outcome.runtime.estimates_quarantined,
        outcome.records.len() as u64
    );
    // The quota is still met by promotion: 3 models per parameter.
    for (&param, models) in &outcome.selected_models {
        assert_eq!(models.len(), 3, "{param:?}: quota not met: {models:?}");
    }
    // Other parameters keep Ml4 (only its Area stream was poisoned) and
    // drop nothing.
    assert!(outcome.selected_models[&FpgaParam::Power].contains(&MlModelId::Ml4));
    assert!(outcome.dropped_models[&FpgaParam::Power].is_empty());
    assert!(outcome.dropped_models[&FpgaParam::Latency].is_empty());
}

#[test]
fn mean_coverage_of_an_empty_coverage_map_is_zero_not_nan() {
    // Regression: an empty coverage map used to divide 0.0 by 0, turning
    // the report's headline number into NaN. The mean of nothing is
    // defined as 0.0 — "nothing covered", not "undefined".
    let mut outcome = run(&Flow::new(chaotic_config(0.2, 1)), 100);
    outcome.coverage.clear();
    let mean = outcome.mean_coverage();
    assert!(mean.is_finite(), "empty coverage produced {mean}");
    assert_eq!(mean.to_bits(), 0.0f64.to_bits());
}

#[test]
fn always_inf_injection_never_panics_rankings() {
    // Everything +inf: every model is fully non-finite, every pool runs
    // dry, and the flow must still complete with empty selections rather
    // than panic.
    let config = FlowConfig {
        min_subset: 24,
        models: fast_models(),
        chaos: Some(ChaosSpec {
            config: ChaosConfig::always(ChaosKind::PosInf, 3),
            only: None,
        }),
        ..FlowConfig::default()
    };
    let outcome = run(&Flow::new(config), 60);
    for (&param, models) in &outcome.selected_models {
        assert!(models.is_empty(), "{param:?}: {models:?} survived +inf");
        assert!(outcome.candidates[&param].is_empty());
    }
    // Every tried model was dropped; the subset alone is synthesized.
    assert!(outcome.dropped_models.values().all(|v| !v.is_empty()));
    assert_eq!(
        outcome.synthesized.iter().copied().collect::<Vec<_>>(),
        outcome.subset
    );
    assert_sane(&outcome);
}
