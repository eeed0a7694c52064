//! `analyze::stats` computes levels, fanout and kind counts in one pass.
//! The three-pass version it replaced is kept here as its oracle, and
//! both must give equal `NetlistStats` — `mean_fanout` to the bit — on
//! random netlists (unread nets, constants, outputs wired straight to
//! inputs) and on every circuit of a down-scaled paper-full corpus.

use proptest::prelude::*;

use approxfpgas_suite::circuits::{build_library, paper_full_specs};
use approxfpgas_suite::netlist::analyze::{depth, fanout, stats, NetlistStats};
use approxfpgas_suite::netlist::{GateKind, NetId, Netlist};

/// The three-pass `stats`: fanout, then the kind histogram, then the
/// levels behind `depth`.
fn oracle_stats(netlist: &Netlist) -> NetlistStats {
    let fo = fanout(netlist);
    let read: Vec<u32> = fo.iter().copied().filter(|&f| f > 0).collect();
    let mean_fanout = if read.is_empty() {
        0.0
    } else {
        read.iter().map(|&f| f as f64).sum::<f64>() / read.len() as f64
    };
    let mut kind_counts = netlist.kind_histogram();
    kind_counts.remove(&GateKind::Input);
    kind_counts.remove(&GateKind::Const);
    NetlistStats {
        inputs: netlist.num_inputs(),
        outputs: netlist.num_outputs(),
        gates: netlist.num_logic_gates(),
        kind_counts,
        depth: depth(netlist),
        mean_fanout,
        max_fanout: fo.iter().copied().max().unwrap_or(0),
    }
}

fn assert_same(netlist: &Netlist) {
    let (got, want) = (stats(netlist), oracle_stats(netlist));
    assert_eq!(got, want, "{}", netlist.name());
    assert_eq!(
        got.mean_fanout.to_bits(),
        want.mean_fanout.to_bits(),
        "{}",
        netlist.name()
    );
}

/// A random netlist over every gate kind. Each gate is `(kind, a, b, c)`
/// with operand draws reduced modulo the nets created so far; each output
/// draw picks any net, so outputs may be wired straight to inputs or
/// constants and many nets stay unread.
fn build_netlist(n_inputs: usize, gates: &[(u8, usize, usize, usize)], outs: &[usize]) -> Netlist {
    let mut n = Netlist::new("random");
    let mut nets: Vec<NetId> = (0..n_inputs).map(|_| n.add_input()).collect();
    for &(kind, a, b, c) in gates {
        if nets.is_empty() {
            nets.push(n.constant(kind % 2 == 0));
            continue;
        }
        let pick = |raw: usize| nets[raw % nets.len()];
        let (x, y, z) = (pick(a), pick(b), pick(c));
        let id = match kind % 12 {
            0 => n.constant(false),
            1 => n.constant(true),
            2 => n.buf(x),
            3 => n.not(x),
            4 => n.and(x, y),
            5 => n.or(x, y),
            6 => n.xor(x, y),
            7 => n.nand(x, y),
            8 => n.nor(x, y),
            9 => n.xnor(x, y),
            10 => n.mux(x, y, z),
            _ => n.maj(x, y, z),
        };
        nets.push(id);
    }
    let outputs = if nets.is_empty() {
        Vec::new()
    } else {
        outs.iter().map(|&o| nets[o % nets.len()]).collect()
    };
    n.set_outputs(outputs);
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_stats_match_the_three_pass_oracle(
        n_inputs in 0usize..6,
        gates in prop::collection::vec(
            (0u8..12, 0usize..1 << 30, 0usize..1 << 30, 0usize..1 << 30),
            0..60,
        ),
        outs in prop::collection::vec(0usize..1 << 30, 0..8),
    ) {
        assert_same(&build_netlist(n_inputs, &gates, &outs));
    }
}

#[test]
fn wire_only_netlists_have_depth_zero_in_both() {
    let mut n = Netlist::new("wires");
    let a = n.add_input();
    let b = n.add_input();
    n.set_outputs(vec![b, a, a]);
    assert_same(&n);
    assert_eq!(stats(&n).depth, 0);
    assert_same(&Netlist::new("empty"));
}

#[test]
fn one_pass_stats_match_the_oracle_on_a_paper_full_corpus() {
    let mut circuits = 0;
    for spec in paper_full_specs(0.01) {
        for circuit in build_library(&spec) {
            assert_same(circuit.netlist());
            circuits += 1;
        }
    }
    assert!(circuits > 500, "only {circuits} circuits");
}
