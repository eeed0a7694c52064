//! Device-profile registry invariants and per-target goldens.
//!
//! Three layers of pinning keep retargeting honest:
//!
//! * per-target `FpgaReport` goldens (exact floats) for a fixed adder and
//!   multiplier — the synthesis model must not drift on any fabric,
//! * per-target pinned pareto fronts from a small flow — the methodology
//!   must produce a stable front per fabric, and the fronts must be
//!   distinguishable as *cost surfaces* (the K=6 fabrics share LUT
//!   structure, so index sets may coincide while every delay differs),
//! * characterization-cache keys must differ across profiles — two
//!   targets may never serve each other's cached ground truth.

use proptest::prelude::*;

use approxfpgas_suite::asic::AsicConfig;
use approxfpgas_suite::circuits::{
    adders, multipliers, mutate, ArithKind, LibrarySource, LibrarySpec,
};
use approxfpgas_suite::error::ErrorConfig;
use approxfpgas_suite::flow::record::FpgaParam;
use approxfpgas_suite::flow::{CharacterizationCache, Flow, FlowConfig, FlowOutcome};
use approxfpgas_suite::fpga::target::{named, registry, DEFAULT_TARGET};
use approxfpgas_suite::fpga::{synthesize_fpga, FpgaConfig, FpgaReport};
use approxfpgas_suite::ml::MlModelId;

/// Golden per-target reports captured at registry introduction. Exact
/// float comparison (`FpgaReport: PartialEq`), no tolerance: a profile's
/// cost model may only move together with a re-capture and an explanation
/// in the commit message.
#[test]
fn per_target_reports_are_bit_identical_goldens() {
    let goldens: [(&str, &str, FpgaReport); 8] = [
        (
            "lut4-ice40",
            "add8_rca",
            FpgaReport {
                luts: 15,
                slices: 2,
                depth_levels: 7,
                delay_ns: 9.744678006976402,
                power_mw: 0.3412704098188034,
                synth_time_s: 151.98212176699474,
            },
        ),
        (
            "lut4-ice40",
            "mul8_wallace",
            FpgaReport {
                luts: 172,
                slices: 22,
                depth_levels: 14,
                delay_ns: 18.321152834177774,
                power_mw: 3.034565093626262,
                synth_time_s: 806.1042023346304,
            },
        ),
        (
            "lut6-7series",
            "add8_rca",
            FpgaReport {
                luts: 14,
                slices: 4,
                depth_levels: 4,
                delay_ns: 2.5989397121226507,
                power_mw: 2.024010220483699,
                synth_time_s: 136.8916983291371,
            },
        ),
        (
            "lut6-7series",
            "mul8_wallace",
            FpgaReport {
                luts: 117,
                slices: 30,
                depth_levels: 8,
                delay_ns: 5.199270497321918,
                power_mw: 15.201056165777832,
                synth_time_s: 654.8185397116046,
            },
        ),
        (
            "lut6-ultrascale",
            "add8_rca",
            FpgaReport {
                luts: 14,
                slices: 2,
                depth_levels: 4,
                delay_ns: 1.9101586473184473,
                power_mw: 3.098201874755757,
                synth_time_s: 136.8916983291371,
            },
        ),
        (
            "lut6-ultrascale",
            "mul8_wallace",
            FpgaReport {
                luts: 117,
                slices: 15,
                depth_levels: 8,
                delay_ns: 3.8994313054225183,
                power_mw: 23.592293399194492,
                synth_time_s: 654.8185397116046,
            },
        ),
        (
            "alm-stratix",
            "add8_rca",
            FpgaReport {
                luts: 14,
                slices: 2,
                depth_levels: 4,
                delay_ns: 2.2667393619121112,
                power_mw: 3.5767773500961977,
                synth_time_s: 136.8916983291371,
            },
        ),
        (
            "alm-stratix",
            "mul8_wallace",
            FpgaReport {
                luts: 117,
                slices: 12,
                depth_levels: 8,
                delay_ns: 4.578133630086651,
                power_mw: 26.733926408522194,
                synth_time_s: 654.8185397116046,
            },
        ),
    ];
    for (target, circuit, want) in &goldens {
        let cfg = named(target).expect("registry target").config();
        let nl = match *circuit {
            "add8_rca" => adders::ripple_carry(8).into_netlist(),
            _ => multipliers::wallace_multiplier(8).into_netlist(),
        };
        let got = synthesize_fpga(&nl, &cfg);
        assert_eq!(&got, want, "{target}/{circuit}: report drifted");
    }
    // The golden table covers every registered profile.
    let covered: std::collections::BTreeSet<&str> = goldens.iter().map(|(t, _, _)| *t).collect();
    assert_eq!(covered.len(), registry().len());
}

fn tiny_flow(target: &str) -> FlowOutcome {
    let profile = named(target).expect("registry target");
    let mut config = FlowConfig {
        min_subset: 24,
        models: vec![
            MlModelId::Ml4,
            MlModelId::Ml11,
            MlModelId::Ml13,
            MlModelId::Ml18,
        ],
        ..FlowConfig::default()
    };
    config.fpga = profile.apply(&config.fpga);
    let source = LibrarySource::Generated(LibrarySpec::new(ArithKind::Adder, 8, 70));
    Flow::new(config)
        .run_source(&source)
        .expect("generated libraries stream")
}

/// Pinned per-target pareto fronts from a small flow, plus pairwise
/// distinguishability of the measured cost surfaces. The front *indices*
/// legitimately coincide for the K=6 fabrics (identical LUT structure and
/// near-proportional delay scalings on a 70-circuit library); the delay
/// bit patterns along the latency front never do.
#[test]
fn per_target_flow_fronts_are_pinned() {
    let goldens: [(&str, [Vec<usize>; 3]); 4] = [
        (
            "lut4-ice40",
            [
                vec![0, 1, 3, 10, 11, 16, 20, 21, 26, 28, 31, 39, 42, 60, 61, 62],
                vec![0, 1, 3, 7, 11, 16, 17, 22, 32, 60, 61, 62, 63, 64, 65],
                vec![0, 59, 60, 61, 62, 63, 64, 65],
            ],
        ),
        (
            "lut6-7series",
            [
                vec![0, 1, 3, 10, 16, 20, 26, 28, 61],
                vec![0, 1, 7, 11, 16, 17, 22, 32, 59, 60, 61, 62, 63, 64, 65],
                vec![0, 59, 60, 61, 62, 63, 64, 65],
            ],
        ),
        (
            "lut6-ultrascale",
            [
                vec![0, 1, 3, 10, 16, 20, 26, 28, 61],
                vec![0, 1, 7, 11, 16, 17, 22, 32, 59, 60, 61, 62, 63, 64, 65],
                vec![0, 59, 60, 61, 62, 63, 64, 65],
            ],
        ),
        (
            "alm-stratix",
            [
                vec![0, 1, 3, 10, 16, 20, 26, 28, 61],
                vec![0, 1, 7, 11, 16, 17, 22, 32, 59, 60, 61, 62, 63, 64, 65],
                vec![0, 59, 60, 61, 62, 63, 64, 65],
            ],
        ),
    ];
    let mut latency_surfaces: Vec<Vec<u64>> = Vec::new();
    for (target, [latency, power, area]) in &goldens {
        let outcome = tiny_flow(target);
        assert_eq!(
            &outcome.final_fronts[&FpgaParam::Latency],
            latency,
            "{target}: latency front"
        );
        assert_eq!(
            &outcome.final_fronts[&FpgaParam::Power],
            power,
            "{target}: power front"
        );
        assert_eq!(
            &outcome.final_fronts[&FpgaParam::Area],
            area,
            "{target}: area front"
        );
        // Every record carries the fabric it was synthesized for.
        assert!(outcome.records.iter().all(|r| &r.target == target));
        latency_surfaces.push(
            outcome.final_fronts[&FpgaParam::Latency]
                .iter()
                .map(|&i| outcome.records[i].fpga.delay_ns.to_bits())
                .collect(),
        );
    }
    // Distinct fabrics, distinct measured fronts: no two targets agree on
    // a single delay bit pattern along their latency fronts.
    for i in 0..latency_surfaces.len() {
        for j in i + 1..latency_surfaces.len() {
            assert!(
                latency_surfaces[i]
                    .iter()
                    .all(|bits| !latency_surfaces[j].contains(bits)),
                "{} and {} share latency-front cost points",
                goldens[i].0,
                goldens[j].0
            );
        }
    }
}

/// Regression for the fingerprint bug class: every cost-relevant
/// `FpgaConfig` field — including the target name — must reach the
/// characterization-cache key, so distinct registry profiles can never
/// collide (and never share disk-cache rows).
#[test]
fn distinct_profiles_produce_distinct_cache_keys() {
    let circuit = adders::ripple_carry(8);
    let asic = AsicConfig::default();
    let error = ErrorConfig::default();
    let keys: Vec<_> = registry()
        .iter()
        .map(|p| CharacterizationCache::key(&circuit, &asic, &p.config(), &error))
        .collect();
    for i in 0..keys.len() {
        for j in i + 1..keys.len() {
            assert_ne!(
                keys[i],
                keys[j],
                "{} and {} collide in the characterization cache",
                registry()[i].name,
                registry()[j].name
            );
        }
    }
    // The default profile keys identically to the default config: adopting
    // the registry did not orphan historical cache entries.
    let default_key = CharacterizationCache::key(&circuit, &asic, &FpgaConfig::default(), &error);
    let profile_key = CharacterizationCache::key(
        &circuit,
        &asic,
        &named(DEFAULT_TARGET).unwrap().config(),
        &error,
    );
    assert_eq!(default_key, profile_key);
    // But two configs differing *only* in the target name still key apart
    // (the name itself is cost-relevant: it routes records and reports).
    let renamed = FpgaConfig {
        target: "lut6-7series-rev2".to_string(),
        ..FpgaConfig::default()
    };
    assert_ne!(
        default_key,
        CharacterizationCache::key(&circuit, &asic, &renamed, &error)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A wider LUT can absorb every cover a narrower one can express, so
    /// the mapper's LUT count is monotone non-increasing in K across the
    /// supported range (3..=6; gates have up to three operands, so K=2
    /// cannot cover the netlist at all).
    #[test]
    fn lut_count_is_monotone_nonincreasing_in_k(seed in 0u64..10_000, muts in 0usize..6) {
        let base = multipliers::wallace_multiplier(6);
        let nl = mutate::mutate(
            &base,
            &mutate::MutationConfig { mutations: muts, seed, ..Default::default() },
        )
        .into_netlist();
        let mut prev = usize::MAX;
        for k in 3..=6usize {
            let mut cfg = FpgaConfig::default();
            cfg.arch.lut_inputs = k;
            let luts = synthesize_fpga(&nl, &cfg).luts;
            prop_assert!(
                luts <= prev,
                "LUT count rose from {} to {} going K={} -> K={}",
                prev, luts, k - 1, k
            );
            prev = luts;
        }
    }
}
