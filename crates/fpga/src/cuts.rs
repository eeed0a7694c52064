//! K-feasible cut enumeration with priority-cut pruning.
//!
//! A *cut* of node `n` is a set of nodes ("leaves") such that every path
//! from the primary inputs to `n` passes through a leaf; a K-feasible cut
//! (|leaves| ≤ K) corresponds to a K-input LUT implementing `n`. This
//! module enumerates, bottom-up, the best few cuts per node ranked by
//! mapping depth and area flow — the standard priority-cuts scheme.
//!
//! The enumeration itself lives in [`crate::mapper::Mapper`], which owns
//! all scratch state so a whole circuit library can be mapped with zero
//! steady-state allocation; [`enumerate`] is the one-shot convenience
//! entry point. Two classic accelerations keep the merge cross products
//! cheap (see DESIGN.md "Cut engine"):
//!
//! * every cut carries a 64-bit **leaf signature** (bit `leaf % 64`), so
//!   an infeasible merge (`popcount(sigA | sigB) > K`) is rejected in
//!   O(1) before any leaf array is touched;
//! * **duplicate pruning** drops any candidate whose leaf set equals a
//!   kept cut's, with the signature as an O(1) prefilter.

use afp_netlist::Netlist;

/// Maximum LUT input count supported by the enumeration.
pub const MAX_K: usize = 8;

/// One cut: a sorted leaf set plus its ranking metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct Cut {
    pub(crate) leaves: [u32; MAX_K],
    pub(crate) len: u8,
    pub(crate) sig: u64,
    /// LUT levels needed to produce this node when using the cut.
    pub depth: u32,
    /// Area-flow heuristic (shared-logic-aware area estimate).
    pub area_flow: f64,
}

impl Cut {
    /// The trivial cut `{node}` (the node used as a leaf by its readers).
    pub fn trivial(node: u32, depth: u32, area_flow: f64) -> Cut {
        let mut leaves = [0u32; MAX_K];
        leaves[0] = node;
        Cut {
            leaves,
            len: 1,
            sig: sig_bit(node),
            depth,
            area_flow,
        }
    }

    /// Leaf nodes of this cut (sorted).
    pub fn leaves(&self) -> &[u32] {
        &self.leaves[..self.len as usize]
    }

    /// 64-bit leaf signature: the OR of `1 << (leaf % 64)` over all
    /// leaves. A superset of leaves always has a superset of signature
    /// bits, so `sigA & !sigB != 0` proves "A ⊄ B" without touching the
    /// leaf arrays, and `popcount(sigA | sigB) > k` proves a merge is
    /// infeasible (the true union is at least as large).
    pub fn signature(&self) -> u64 {
        self.sig
    }

    /// Merge two sorted leaf sets; `None` if the union exceeds `k`.
    ///
    /// Callers are expected to have applied the signature pre-filter
    /// already; the exact length bound is still enforced here because
    /// distinct leaves can collide modulo 64.
    pub(crate) fn merge(a: &Cut, b: &Cut, k: usize) -> Option<Cut> {
        let (mut i, mut j, mut out_len) = (0usize, 0usize, 0usize);
        let mut out = [u32::MAX; MAX_K];
        let (la, lb) = (a.leaves(), b.leaves());
        while i < la.len() || j < lb.len() {
            let v = match (la.get(i), lb.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(_), Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!(),
            };
            if out_len == k {
                return None;
            }
            out[out_len] = v;
            out_len += 1;
        }
        Some(Cut {
            leaves: out,
            len: out_len as u8,
            sig: a.sig | b.sig,
            depth: 0,
            area_flow: 0.0,
        })
    }
}

/// The signature bit of one leaf.
#[inline]
pub(crate) fn sig_bit(leaf: u32) -> u64 {
    1u64 << (leaf % 64)
}

/// Per-node cut sets for a whole netlist.
///
/// Cuts are stored in one flat arena with per-node `(offset, len)` ranges
/// instead of a `Vec<Vec<Cut>>`, so enumeration performs O(1) allocations
/// regardless of netlist size and node ranges stay contiguous in memory.
#[derive(Debug)]
pub struct CutSets {
    /// All kept cuts, node ranges back to back in node-index order.
    pub(crate) arena: Vec<Cut>,
    /// `ranges[n]` — `(offset, len)` of node `n`'s cuts in the arena.
    pub(crate) ranges: Vec<(u32, u32)>,
    /// Best achievable LUT depth per node.
    pub best_depth: Vec<u32>,
    /// Area flow of the best cut per node.
    pub best_area_flow: Vec<f64>,
}

impl CutSets {
    /// The kept cuts of node `node`, best first, ending with the trivial
    /// cut. For inputs and constants this is just the trivial cut.
    pub fn cuts(&self, node: usize) -> &[Cut] {
        let (off, len) = self.ranges[node];
        &self.arena[off as usize..(off + len) as usize]
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.ranges.len()
    }

    /// Total number of cuts kept across all nodes.
    pub fn total_cuts(&self) -> usize {
        self.arena.len()
    }
}

/// Enumerate priority cuts for every node.
///
/// `k` is the LUT input count (≤ [`MAX_K`]), `keep` the number of cuts
/// retained per node. One-shot wrapper around
/// [`crate::mapper::Mapper::enumerate`]; callers mapping many netlists
/// should hold a [`crate::Mapper`] instead to reuse its scratch arena.
///
/// # Panics
///
/// Panics if `k < 2` (two-input gates need two leaves) or `k` exceeds
/// [`MAX_K`].
pub fn enumerate(netlist: &Netlist, k: usize, keep: usize) -> CutSets {
    crate::mapper::Mapper::new().enumerate(netlist, k, keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuits::adders;
    use afp_netlist::Netlist;

    #[test]
    fn trivial_cut_for_inputs() {
        let mut n = Netlist::new("i");
        let a = n.add_input();
        n.set_outputs(vec![a]);
        let cs = enumerate(&n, 6, 8);
        assert_eq!(cs.cuts(0).len(), 1);
        assert_eq!(cs.cuts(0)[0].leaves(), &[0]);
        assert_eq!(cs.best_depth[0], 0);
    }

    #[test]
    fn chain_of_gates_collapses_into_one_cut() {
        // x = ((a&b)^c)|d : 4 inputs, depth-1 with K=6.
        let mut n = Netlist::new("c");
        let ins = n.add_inputs(4);
        let x1 = n.and(ins[0], ins[1]);
        let x2 = n.xor(x1, ins[2]);
        let x3 = n.or(x2, ins[3]);
        n.set_outputs(vec![x3]);
        let cs = enumerate(&n, 6, 8);
        assert_eq!(cs.best_depth[x3.index()], 1);
        let best = &cs.cuts(x3.index())[0];
        assert_eq!(best.leaves(), &[0, 1, 2, 3]);
    }

    #[test]
    fn k_limits_cut_width() {
        // A 3-level XOR tree over 8 inputs cannot be one LUT-6.
        let mut n = Netlist::new("x8");
        let ins = n.add_inputs(8);
        let l1: Vec<_> = (0..4).map(|i| n.xor(ins[2 * i], ins[2 * i + 1])).collect();
        let l2a = n.xor(l1[0], l1[1]);
        let l2b = n.xor(l1[2], l1[3]);
        let root = n.xor(l2a, l2b);
        n.set_outputs(vec![root]);
        let cs = enumerate(&n, 6, 8);
        assert_eq!(cs.best_depth[root.index()], 2);
        let cs4 = enumerate(&n, 8, 12);
        assert_eq!(cs4.best_depth[root.index()], 1);
    }

    #[test]
    #[should_panic(expected = "k must be 2..=")]
    fn k1_is_rejected() {
        let mut n = Netlist::new("k1");
        let a = n.add_input();
        let b = n.add_input();
        let y = n.and(a, b);
        n.set_outputs(vec![y]);
        let _ = enumerate(&n, 1, 4);
    }

    #[test]
    fn k2_maps_every_gate_individually() {
        let mut n = Netlist::new("k2");
        let ins = n.add_inputs(3);
        let x = n.and(ins[0], ins[1]);
        let y = n.or(x, ins[2]);
        n.set_outputs(vec![y]);
        let cs = enumerate(&n, 2, 4);
        // With K=2 a LUT can absorb at most one 2-input gate.
        assert_eq!(cs.best_depth[y.index()], 2);
    }

    #[test]
    fn merge_respects_k() {
        let a = Cut::trivial(1, 0, 0.0);
        let b = Cut::trivial(2, 0, 0.0);
        let m = Cut::merge(&a, &b, 6).unwrap();
        assert_eq!(m.leaves(), &[1, 2]);
        assert!(Cut::merge(&m, &Cut::trivial(3, 0, 0.0), 2).is_none());
    }

    #[test]
    fn duplicate_leaves_merge_once() {
        let a = Cut::merge(&Cut::trivial(1, 0, 0.0), &Cut::trivial(5, 0, 0.0), 6).unwrap();
        let b = Cut::merge(&Cut::trivial(5, 0, 0.0), &Cut::trivial(9, 0, 0.0), 6).unwrap();
        let m = Cut::merge(&a, &b, 6).unwrap();
        assert_eq!(m.leaves(), &[1, 5, 9]);
    }

    #[test]
    fn signature_is_union_of_leaf_bits() {
        let a = Cut::merge(&Cut::trivial(3, 0, 0.0), &Cut::trivial(67, 0, 0.0), 6).unwrap();
        // 3 and 67 collide modulo 64: two leaves, one signature bit.
        assert_eq!(a.leaves(), &[3, 67]);
        assert_eq!(a.signature(), sig_bit(3));
        let b = Cut::merge(&a, &Cut::trivial(10, 0, 0.0), 6).unwrap();
        assert_eq!(b.signature(), sig_bit(3) | sig_bit(10));
    }

    #[test]
    fn depth_monotone_along_netlist() {
        let add = adders::ripple_carry(8);
        let cs = enumerate(add.netlist(), 6, 8);
        for out in add.netlist().outputs() {
            // Every output is coverable.
            assert!(!cs.cuts(out.index()).is_empty());
        }
        // MSB carry needs more levels than the LSB sum.
        let lsb = add.netlist().outputs()[0].index();
        let msb = add.netlist().outputs()[8].index();
        assert!(cs.best_depth[msb] >= cs.best_depth[lsb]);
    }

    #[test]
    fn arena_ranges_are_contiguous_and_complete() {
        let add = adders::ripple_carry(8);
        let nl = add.netlist();
        let cs = enumerate(nl, 6, 8);
        assert_eq!(cs.num_nodes(), nl.len());
        let mut expect_off = 0u32;
        for node in 0..nl.len() {
            let (off, len) = cs.ranges[node];
            assert_eq!(off, expect_off, "node {node} range not contiguous");
            assert!(len >= 1, "node {node} has no cuts");
            expect_off += len;
            // Last cut of every node is the trivial one.
            let cuts = cs.cuts(node);
            assert_eq!(cuts[cuts.len() - 1].leaves(), &[node as u32]);
        }
        assert_eq!(expect_off as usize, cs.total_cuts());
    }
}
