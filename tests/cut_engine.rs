//! Cut-engine invariants and bit-identity goldens.
//!
//! The arena cut engine (signatures, bounded keep-window, reusable
//! [`Mapper`]) must keep FPGA reports **bit-identical** to the historical
//! per-node `Vec<Vec<Cut>>` mapper in its default configuration. The
//! golden test below pins exact `FpgaReport` values captured from the
//! pre-rewrite implementation; any float drifting by one ULP fails it.
//!
//! [`Mapper`]: approxfpgas_suite::fpga::Mapper

use proptest::prelude::*;

use approxfpgas_suite::circuits::{adders, multipliers, mutate};
use approxfpgas_suite::fpga::cuts::{enumerate, Cut, CutSets};
use approxfpgas_suite::fpga::{synthesize_fpga, FpgaConfig, FpgaReport, Mapper};
use approxfpgas_suite::netlist::Netlist;

/// Exact leaf bitset of a cut, recomputed from scratch (bit = leaf % 64).
fn leaf_bitset(cut: &Cut) -> u64 {
    cut.leaves()
        .iter()
        .fold(0u64, |s, &l| s | (1u64 << (l % 64)))
}

fn check_cut_invariants(cs: &CutSets, netlist: &Netlist) {
    assert_eq!(cs.num_nodes(), netlist.len());
    for node in 0..cs.num_nodes() {
        let cuts = cs.cuts(node);
        assert!(!cuts.is_empty(), "node {node} has no cuts");
        // The trivial cut {node} is always last.
        let last = &cuts[cuts.len() - 1];
        assert_eq!(last.leaves(), &[node as u32], "trivial cut missing");
        for cut in cuts {
            // Leaves strictly ascending (sorted + unique).
            assert!(
                cut.leaves().windows(2).all(|w| w[0] < w[1]),
                "node {node}: leaves {:?} not strictly ascending",
                cut.leaves()
            );
            // Signature is exactly the leaf bitset.
            assert_eq!(
                cut.signature(),
                leaf_bitset(cut),
                "node {node}: signature does not match leaves {:?}",
                cut.leaves()
            );
            // Every leaf is a real, earlier-or-equal node index.
            assert!(cut.leaves().iter().all(|&l| (l as usize) <= node));
        }
        // Best depth/area-flow agree with the head of the kept window.
        assert_eq!(cs.best_depth[node], cuts[0].depth);
        assert_eq!(cs.best_area_flow[node], cuts[0].area_flow);
    }
}

fn mutant(seed: u64, muts: usize) -> Netlist {
    let base = multipliers::wallace_multiplier(6);
    mutate::mutate(
        &base,
        &mutate::MutationConfig {
            mutations: muts,
            seed,
            ..Default::default()
        },
    )
    .into_netlist()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn kept_cuts_are_sorted_unique_and_signed(seed in 0u64..10_000, muts in 1usize..6) {
        let nl = mutant(seed, muts);
        let cs = enumerate(&nl, 6, 8);
        check_cut_invariants(&cs, &nl);
    }

    #[test]
    fn mapper_enumerate_matches_free_function(seed in 0u64..10_000) {
        let nl = mutant(seed, 3);
        let free = enumerate(&nl, 6, 8);
        let mut mapper = Mapper::new();
        // Warm the mapper on a different netlist first: reuse must not leak.
        let _ = mapper.enumerate(&adders::ripple_carry(4).into_netlist(), 6, 8);
        let reused = mapper.enumerate(&nl, 6, 8);
        prop_assert_eq!(free.num_nodes(), reused.num_nodes());
        prop_assert_eq!(free.best_depth, reused.best_depth);
        prop_assert_eq!(free.best_area_flow, reused.best_area_flow);
        for node in 0..free.num_nodes() {
            prop_assert_eq!(free.cuts(node).len(), reused.cuts(node).len());
            for (a, b) in free.cuts(node).iter().zip(reused.cuts(node)) {
                prop_assert_eq!(a.leaves(), b.leaves());
                prop_assert_eq!(a.signature(), b.signature());
                prop_assert_eq!(a.depth, b.depth);
                prop_assert_eq!(a.area_flow, b.area_flow);
            }
        }
    }

    #[test]
    fn mapper_reuse_is_bit_identical_to_fresh_synthesis(seed in 0u64..10_000) {
        let cfg = FpgaConfig::default();
        let nls = [mutant(seed, 2), mutant(seed ^ 0xABCD, 4)];
        let mut mapper = Mapper::new();
        for nl in &nls {
            let fresh = synthesize_fpga(nl, &cfg);
            let reused = mapper.synthesize(nl, &cfg);
            prop_assert_eq!(fresh, reused);
        }
        // The first synthesis primes the scratch; the second reuses it.
        prop_assert_eq!(mapper.take_stats().mapper_reuses, 1);
    }
}

/// Golden FPGA reports captured from the pre-rewrite mapper
/// (`Vec<Vec<Cut>>`, per-call allocation). The engine rewrite is only
/// legal because these stay *exactly* equal — exact float comparison,
/// no tolerance.
#[test]
fn golden_reports_are_bit_identical_to_pre_rewrite_mapper() {
    let cfg = FpgaConfig::default();
    let cases: [(&str, Netlist, FpgaReport); 3] = [
        (
            "rca8",
            adders::ripple_carry(8).into_netlist(),
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
            "cla16",
            adders::carry_lookahead(16).into_netlist(),
            FpgaReport {
                luts: 58,
                slices: 15,
                depth_levels: 4,
                delay_ns: 2.9614907109766473,
                power_mw: 7.695598131600788,
                synth_time_s: 410.34314488441294,
            },
        ),
        (
            "wallace8",
            multipliers::wallace_multiplier(8).into_netlist(),
            FpgaReport {
                luts: 117,
                slices: 30,
                depth_levels: 8,
                delay_ns: 5.199270497321918,
                power_mw: 15.201056165777832,
                synth_time_s: 654.8185397116046,
            },
        ),
    ];
    let mut mapper = Mapper::new();
    for (name, nl, want) in &cases {
        let free = synthesize_fpga(nl, &cfg);
        assert_eq!(&free, want, "{name}: free-function report drifted");
        let reused = mapper.synthesize(nl, &cfg);
        assert_eq!(&reused, want, "{name}: reused-mapper report drifted");
    }
}
