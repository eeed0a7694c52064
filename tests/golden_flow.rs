//! Golden pinning of the default (no-injection) flow outputs.
//!
//! The values below were captured **before** the NaN-safe ordering
//! migration (total-order comparators + estimate quarantine): the
//! migration must not change any front, coverage bit, model selection or
//! synthesis set when every estimate is finite. If a deliberate
//! behavioural change moves these, re-capture them and say why in the
//! commit message.

use approxfpgas_suite::circuits::{ArithKind, LibrarySource, LibrarySpec};
use approxfpgas_suite::flow::record::FpgaParam;
use approxfpgas_suite::flow::{ChaosSpec, Flow, FlowConfig, FlowOutcome};
use approxfpgas_suite::ml::chaos::{ChaosConfig, ChaosKind};
use approxfpgas_suite::ml::MlModelId;
use approxfpgas_suite::obs::Recorder;

fn golden_config() -> FlowConfig {
    FlowConfig {
        min_subset: 24,
        models: vec![
            MlModelId::Ml1,
            MlModelId::Ml2,
            MlModelId::Ml3,
            MlModelId::Ml4,
            MlModelId::Ml11,
            MlModelId::Ml13,
            MlModelId::Ml14,
            MlModelId::Ml18,
        ],
        ..FlowConfig::default()
    }
}

fn assert_matches_goldens(outcome: &FlowOutcome) {
    assert_eq!(
        outcome.subset,
        vec![
            0, 4, 7, 8, 17, 20, 22, 23, 30, 32, 34, 36, 38, 58, 65, 68, 73, 80, 81, 82, 83, 94, 97,
            98
        ]
    );
    assert_eq!(
        outcome.synthesized.iter().copied().collect::<Vec<_>>(),
        vec![
            0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
            26, 27, 28, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 42, 46, 49, 58, 59, 60, 61, 62,
            63, 64, 65, 67, 68, 71, 73, 74, 77, 80, 81, 82, 83, 85, 88, 89, 90, 91, 94, 95, 97, 98
        ]
    );

    // Coverage pinned to the exact bit pattern, not an epsilon.
    assert_eq!(
        outcome.coverage[&FpgaParam::Latency].to_bits(),
        0x3feccccccccccccd
    );
    assert_eq!(
        outcome.coverage[&FpgaParam::Power].to_bits(),
        0x3ff0000000000000
    );
    assert_eq!(
        outcome.coverage[&FpgaParam::Area].to_bits(),
        0x3ff0000000000000
    );
    assert_eq!(outcome.mean_coverage().to_bits(), 0x3feeeeeeeeeeeeef);

    assert_eq!(
        outcome.final_fronts[&FpgaParam::Latency],
        vec![0, 1, 3, 10, 16, 20, 26, 28, 61]
    );
    assert_eq!(
        outcome.final_fronts[&FpgaParam::Power],
        vec![0, 1, 7, 11, 16, 17, 22, 32, 59, 60, 61, 62, 63, 64, 65]
    );
    assert_eq!(
        outcome.final_fronts[&FpgaParam::Area],
        vec![0, 59, 60, 61, 62, 63, 64, 65]
    );

    assert_eq!(
        outcome.selected_models[&FpgaParam::Latency],
        vec![MlModelId::Ml13, MlModelId::Ml14, MlModelId::Ml4]
    );
    assert_eq!(
        outcome.selected_models[&FpgaParam::Power],
        vec![MlModelId::Ml4, MlModelId::Ml11, MlModelId::Ml13]
    );
    assert_eq!(
        outcome.selected_models[&FpgaParam::Area],
        vec![MlModelId::Ml4, MlModelId::Ml11, MlModelId::Ml13]
    );

    assert_eq!(outcome.time.flow_count, 68);

    // With finite estimates the quarantine stage is a no-op.
    assert_eq!(outcome.runtime.estimates_quarantined, 0);
    assert!(outcome.dropped_models.values().all(|v| v.is_empty()));
}

/// The 100-circuit 8-bit adder library the goldens were taken on.
fn golden_source() -> LibrarySource {
    LibrarySource::Generated(LibrarySpec::new(ArithKind::Adder, 8, 100))
}

/// Run `flow` on the golden library.
fn run(flow: &Flow) -> FlowOutcome {
    flow.run_source(&golden_source())
        .expect("generated libraries stream")
}

#[test]
fn default_flow_outputs_match_pre_migration_goldens() {
    let outcome = run(&Flow::new(golden_config()));
    assert_matches_goldens(&outcome);
}

#[test]
fn default_target_profile_reproduces_the_goldens_bit_exactly() {
    // `lut6-7series` is the registry spelling of the historical default
    // fabric: routing the same run through the profile registry must not
    // move a single golden bit.
    let mut config = golden_config();
    let profile = approxfpgas_suite::fpga::target::named(approxfpgas_suite::fpga::DEFAULT_TARGET)
        .expect("default target registered");
    config.fpga = profile.apply(&config.fpga);
    let outcome = run(&Flow::new(config));
    assert_matches_goldens(&outcome);
}

#[test]
fn tracing_enabled_flow_matches_the_same_goldens_bit_exactly() {
    // Tracing is strictly observational: an enabled recorder must not
    // move a single golden bit relative to the untraced run.
    let recorder = Recorder::enabled();
    let outcome = Flow::new(golden_config())
        .run_source_traced(&golden_source(), &recorder)
        .expect("generated libraries stream");
    assert_matches_goldens(&outcome);
    if recorder.is_enabled() {
        // Every golden model has a train stage; every *selected* model
        // additionally has an estimate stage.
        let names: Vec<String> = recorder.stages().into_iter().map(|(n, _)| n).collect();
        for id in golden_config().models {
            assert!(
                names.contains(&format!("train/{}", id.label())),
                "no train stage for {}",
                id.label()
            );
        }
        for models in outcome.selected_models.values() {
            for id in models {
                assert!(
                    names.contains(&format!("estimate/{}", id.label())),
                    "no estimate stage for selected model {}",
                    id.label()
                );
            }
        }
    }
}

#[test]
fn asic_slot_with_a_quarantine_promotion_matches_its_golden() {
    // The ASIC-regression slot and a promotion in one run: Ml4, the best
    // Area model, estimates only NaN for Area, so it is dropped there and
    // Ml14 promoted, while every parameter also fills its ML1–ML3 slot.
    // Captured before the selection maps became one list of ranked pools.
    let config = FlowConfig {
        include_asic_regression: true,
        chaos: Some(ChaosSpec {
            config: ChaosConfig::always(ChaosKind::Nan, 77),
            only: Some((MlModelId::Ml4, FpgaParam::Area)),
        }),
        ..golden_config()
    };
    let outcome = run(&Flow::new(config));
    use MlModelId::{Ml11, Ml13, Ml14, Ml2, Ml4};
    assert_eq!(
        outcome.selected_models,
        [
            (FpgaParam::Latency, vec![Ml13, Ml14, Ml4, Ml2]),
            (FpgaParam::Power, vec![Ml4, Ml11, Ml13, Ml2]),
            (FpgaParam::Area, vec![Ml11, Ml13, Ml14, Ml2]),
        ]
        .into_iter()
        .collect()
    );
    assert_eq!(
        outcome.dropped_models,
        [
            (FpgaParam::Latency, vec![]),
            (FpgaParam::Power, vec![]),
            (FpgaParam::Area, vec![Ml4]),
        ]
        .into_iter()
        .collect()
    );
    // Every parameter shares this candidate core; Power and Area add a
    // few of their own.
    let core = [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 15, 16, 17, 18, 20, 21, 23, 25, 26, 27, 28, 30,
        31, 32, 33, 35, 36, 37, 38, 39, 40, 41, 42, 44, 46, 49, 59, 60, 61, 62, 63, 64, 65, 67, 71,
        72, 73, 74, 75, 77, 85, 88, 89, 90, 91, 94, 95, 97,
    ];
    let with = |extra: &[usize]| {
        let mut v: Vec<usize> = core.iter().chain(extra).copied().collect();
        v.sort_unstable();
        v
    };
    assert_eq!(outcome.candidates[&FpgaParam::Latency], with(&[]));
    assert_eq!(
        outcome.candidates[&FpgaParam::Power],
        with(&[22, 24, 82, 83])
    );
    assert_eq!(
        outcome.candidates[&FpgaParam::Area],
        with(&[19, 22, 24, 82, 83])
    );
    assert_eq!(
        outcome.synthesized.iter().copied().collect::<Vec<_>>(),
        with(&[19, 22, 24, 34, 58, 68, 80, 81, 82, 83, 98])
    );
    assert_eq!(outcome.time.flow_count, 72);
    assert_eq!(outcome.time.subset_s.to_bits(), 0x40a449c36929cf90);
    assert_eq!(outcome.time.candidates_s.to_bits(), 0x40b3857d604a2d15);
}
