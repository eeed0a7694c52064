//! Structural analysis: logic levels, depth, fanout and summary statistics.

use std::collections::BTreeMap;

use crate::gate::GateKind;
use crate::netlist::{NetId, Netlist};

/// Logic level of every node: inputs and constants are level 0; a gate is
/// one more than its deepest operand.
pub fn levels(netlist: &Netlist) -> Vec<u32> {
    let mut lv = vec![0u32; netlist.len()];
    for (i, gate) in netlist.gates().iter().enumerate() {
        if gate.is_logic() {
            lv[i] = gate.operands().map(|op| lv[op.index()]).max().unwrap_or(0) + 1;
        }
    }
    lv
}

/// Depth of the netlist: the maximum logic level over the primary outputs.
///
/// A netlist whose outputs are wired straight to inputs has depth 0.
pub fn depth(netlist: &Netlist) -> u32 {
    let lv = levels(netlist);
    netlist
        .outputs()
        .iter()
        .map(|o| lv[o.index()])
        .max()
        .unwrap_or(0)
}

/// Fanout (number of gate operands referencing each net, plus one per use as
/// a primary output).
pub fn fanout(netlist: &Netlist) -> Vec<u32> {
    let mut fo = vec![0u32; netlist.len()];
    for gate in netlist.gates() {
        for op in gate.operands() {
            fo[op.index()] += 1;
        }
    }
    for out in netlist.outputs() {
        fo[out.index()] += 1;
    }
    fo
}

/// Summary statistics of a netlist, used as ML features and in reports.
#[derive(Clone, Debug, PartialEq)]
pub struct NetlistStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Logic gate count (excludes inputs/constants).
    pub gates: usize,
    /// Per-kind gate counts.
    pub kind_counts: BTreeMap<GateKind, usize>,
    /// Maximum logic level over the outputs.
    pub depth: u32,
    /// Mean fanout over nets with at least one reader.
    pub mean_fanout: f64,
    /// Maximum fanout.
    pub max_fanout: u32,
}

/// Gate kinds: the logic kinds plus `Input` and `Const`.
const KINDS: usize = GateKind::LOGIC.len() + 2;

/// Compute [`NetlistStats`] for a netlist in one pass over its gates —
/// levels, fanout and kind counts together — then one sweep of the fanout
/// array.
///
/// `mean_fanout` divides the integer count of fanout references. Summed
/// as `f64` in net order, every partial sum of those counts is an integer
/// below 2^53, so each addition is exact and the float sum is that count.
pub fn stats(netlist: &Netlist) -> NetlistStats {
    let gates = netlist.gates();
    let mut lv = vec![0u32; gates.len()];
    let mut fo = vec![0u32; gates.len()];
    let mut kinds = [0usize; KINDS];
    let mut refs = 0u64;
    for (i, gate) in gates.iter().enumerate() {
        kinds[gate.kind() as usize] += 1;
        let mut level = 0;
        for op in gate.operands().map(NetId::index) {
            fo[op] += 1;
            level = level.max(lv[op]);
            refs += 1;
        }
        if gate.is_logic() {
            lv[i] = level + 1;
        }
    }
    let mut depth = 0;
    for out in netlist.outputs().iter().map(|o| o.index()) {
        fo[out] += 1;
        depth = depth.max(lv[out]);
        refs += 1;
    }
    let (mut read, mut max_fanout) = (0usize, 0u32);
    for &f in &fo {
        read += usize::from(f > 0);
        max_fanout = max_fanout.max(f);
    }
    let mean_fanout = if read == 0 {
        0.0
    } else {
        refs as f64 / read as f64
    };
    let kind_counts: BTreeMap<GateKind, usize> = GateKind::LOGIC
        .iter()
        .map(|&k| (k, kinds[k as usize]))
        .filter(|&(_, count)| count > 0)
        .collect();
    NetlistStats {
        inputs: netlist.num_inputs(),
        outputs: netlist.num_outputs(),
        gates: kind_counts.values().sum(),
        kind_counts,
        depth,
        mean_fanout,
        max_fanout,
    }
}

/// Transitive fanin cone of `roots` (indices into the netlist), including
/// the roots themselves. Returned as a boolean mask over all nets.
pub fn cone(netlist: &Netlist, roots: &[NetId]) -> Vec<bool> {
    let mut mask = vec![false; netlist.len()];
    for r in roots {
        mask[r.index()] = true;
    }
    // Reverse topological sweep: a marked gate marks its operands.
    for i in (0..netlist.len()).rev() {
        if mask[i] {
            for op in netlist.gates()[i].operands() {
                mask[op.index()] = true;
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Netlist;

    fn chain(n_gates: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let a = n.add_input();
        let b = n.add_input();
        let mut cur = n.and(a, b);
        for _ in 1..n_gates {
            cur = n.xor(cur, b);
        }
        n.set_outputs(vec![cur]);
        n
    }

    #[test]
    fn depth_of_chain_is_length() {
        assert_eq!(depth(&chain(1)), 1);
        assert_eq!(depth(&chain(7)), 7);
    }

    #[test]
    fn depth_of_wire_is_zero() {
        let mut n = Netlist::new("wire");
        let a = n.add_input();
        n.set_outputs(vec![a]);
        assert_eq!(depth(&n), 0);
    }

    #[test]
    fn fanout_counts_readers_and_outputs() {
        let mut n = Netlist::new("f");
        let a = n.add_input();
        let b = n.add_input();
        let x = n.and(a, b);
        let y = n.or(x, a);
        n.set_outputs(vec![x, y]);
        let fo = fanout(&n);
        assert_eq!(fo[a.index()], 2); // read by and + or
        assert_eq!(fo[x.index()], 2); // read by or + primary output
        assert_eq!(fo[y.index()], 1); // primary output only
    }

    #[test]
    fn stats_aggregates() {
        let n = chain(5);
        let s = stats(&n);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.gates, 5);
        assert_eq!(s.depth, 5);
        assert_eq!(s.kind_counts[&GateKind::Xor], 4);
        assert!(s.mean_fanout >= 1.0);
    }

    #[test]
    fn cone_marks_transitive_fanin_only() {
        let mut n = Netlist::new("c");
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let x = n.and(a, b);
        let y = n.or(b, c); // not in the cone of x
        n.set_outputs(vec![x, y]);
        let mask = cone(&n, &[x]);
        assert!(mask[a.index()] && mask[b.index()] && mask[x.index()]);
        assert!(!mask[c.index()] && !mask[y.index()]);
    }
}
