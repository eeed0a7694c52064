//! End-to-end invariants of the ApproxFPGAs flow across the crate stack.

use approxfpgas_suite::circuits::{ArithKind, LibrarySource, LibrarySpec};
use approxfpgas_suite::flow::record::FpgaParam;
use approxfpgas_suite::flow::{Flow, FlowConfig};
use approxfpgas_suite::ml::MlModelId;

fn fast_models() -> Vec<MlModelId> {
    vec![
        MlModelId::Ml1,
        MlModelId::Ml2,
        MlModelId::Ml3,
        MlModelId::Ml11,
        MlModelId::Ml13,
        MlModelId::Ml14,
        MlModelId::Ml18,
    ]
}

fn run(kind: ArithKind, width: usize, size: usize) -> approxfpgas_suite::flow::FlowOutcome {
    let library = LibrarySpec::new(kind, width, size);
    Flow::new(FlowConfig {
        models: fast_models(),
        min_subset: 24,
        ..FlowConfig::default()
    })
    .run_source(&LibrarySource::Generated(library))
    .expect("generated libraries stream")
}

#[test]
fn flow_fronts_are_truly_nondominated_and_synthesized() {
    let outcome = run(ArithKind::Adder, 8, 90);
    for (&param, front) in &outcome.final_fronts {
        let pts = outcome.points(param);
        for &a in front {
            assert!(
                outcome.synthesized.contains(&a),
                "front member not paid for"
            );
            for &b in front {
                if a != b {
                    assert!(
                        !approxfpgas_suite::flow::pareto::dominates(pts[a], pts[b]),
                        "{param:?}: front member dominated"
                    );
                }
            }
        }
    }
}

#[test]
fn found_fronts_are_subsets_of_candidate_plus_subset() {
    let outcome = run(ArithKind::Adder, 8, 90);
    let mut allowed: std::collections::BTreeSet<usize> = outcome.subset.iter().copied().collect();
    for list in outcome.candidates.values() {
        allowed.extend(list.iter().copied());
    }
    assert_eq!(
        allowed,
        outcome.synthesized.iter().copied().collect(),
        "synthesized set must be exactly subset + candidates"
    );
}

#[test]
fn coverage_against_ground_truth_is_computed_correctly() {
    let outcome = run(ArithKind::Adder, 8, 90);
    for (&param, &cov) in &outcome.coverage {
        let truth = &outcome.true_fronts[&param];
        let found = &outcome.final_fronts[&param];
        let pts = outcome.points(param);
        let recomputed = approxfpgas_suite::flow::pareto::coverage(truth, found, &pts);
        assert_eq!(cov, recomputed);
    }
}

#[test]
fn multiplier_flow_reduces_synthesis_meaningfully() {
    let outcome = run(ArithKind::Multiplier, 8, 200);
    let reduction = outcome.time.synth_reduction().expect("flow synthesized");
    assert!(reduction > 1.3, "only {reduction:.2}x reduction");
    assert!(outcome.mean_coverage() > 0.5);
    // Exhaustive time must equal the sum over all records.
    let total: f64 = outcome.records.iter().map(|r| r.fpga.synth_time_s).sum();
    assert!((outcome.time.exhaustive_s - total).abs() < 1e-6);
}

#[test]
fn error_metrics_anchor_the_fronts_at_zero() {
    // Every library contains exact circuits, so every true front must
    // include a MED=0 point.
    let outcome = run(ArithKind::Adder, 8, 90);
    for (&param, truth) in &outcome.true_fronts {
        let has_exact = truth.iter().any(|&i| outcome.records[i].error.med == 0.0);
        assert!(has_exact, "{param:?} front lost its exact anchor");
    }
}

#[test]
fn records_expose_consistent_views() {
    let outcome = run(ArithKind::Adder, 8, 60);
    for r in &outcome.records {
        assert_eq!(r.fpga_param(FpgaParam::Area), r.fpga.luts as f64);
        assert!(r.stats.gates > 0 || r.error.med > 0.0);
        assert!(r.fpga.synth_time_s > 0.0);
        assert!(r.asic.delay_ns >= 0.0);
    }
}

/// The experiment binaries read their records, split and zoo from
/// `Flow::run_source` instead of chaining the stages by hand. This pins
/// that the two are the same computation, bit for bit, with the flow's
/// own configuration values.
#[test]
fn flow_front_end_equals_the_hand_built_chain() {
    use approxfpgas_suite::flow::dataset::{
        characterize_library, sample_subset, train_validate_split,
    };
    use approxfpgas_suite::flow::fidelity::{train_zoo, TrainedZoo};
    use approxfpgas_suite::flow::FidelityRecord;

    let library = LibrarySpec::new(ArithKind::Multiplier, 8, 150);
    let config = FlowConfig {
        models: fast_models(),
        ..FlowConfig::default()
    };
    let outcome = Flow::new(config.clone())
        .run_source(&LibrarySource::Generated(library.clone()))
        .expect("generated libraries stream");

    let records = characterize_library(
        &approxfpgas_suite::circuits::build_library(&library),
        &config.asic,
        &config.fpga,
        &config.error,
    );
    let subset = sample_subset(
        records.len(),
        config.subset_fraction,
        config.min_subset,
        config.seed,
    );
    let (train, validate) = train_validate_split(&subset, config.train_fraction, config.seed);
    let zoo = train_zoo(
        &records,
        &train,
        &validate,
        &config.models,
        config.fidelity_tolerance,
    );

    // `Debug` prints every field, floats as their shortest round-trip
    // form, so equal text means equal bits.
    assert_eq!(outcome.records.len(), records.len());
    for (a, b) in outcome.records.iter().zip(&records) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
    assert_eq!(outcome.subset, subset);
    assert_eq!(outcome.train, train);
    assert_eq!(outcome.validate, validate);
    assert_eq!(outcome.zoo.fidelities.len(), zoo.fidelities.len());
    for (a, b) in outcome.zoo.fidelities.iter().zip(&zoo.fidelities) {
        assert_eq!((a.model, a.param), (b.model, b.param));
        let bits = |f: &FidelityRecord| [f.fidelity, f.r2, f.mae, f.pearson].map(f64::to_bits);
        assert_eq!(bits(a), bits(b), "{} {:?}", a.model, a.param);
    }
    // Every estimate agrees too: the two zoos are the same models.
    let estimate_bits = |z: &TrainedZoo, f: &FidelityRecord| {
        let est = z.estimate_all(f.model, f.param, &records);
        est.into_iter().map(f64::to_bits).collect::<Vec<u64>>()
    };
    for f in &zoo.fidelities {
        assert_eq!(
            estimate_bits(&outcome.zoo, f),
            estimate_bits(&zoo, f),
            "{} {:?}",
            f.model,
            f.param
        );
    }
}
