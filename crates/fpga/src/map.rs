//! LUT covering, slice packing and the timing/power models evaluated on
//! the mapped network.
//!
//! The algorithms live in the reusable [`crate::Mapper`] engine; the free
//! functions here are one-shot conveniences that build (and drop) a
//! mapper per call. Callers sweeping many netlists — the characterization
//! flow, benches — should hold a [`crate::Mapper`] instead.

use afp_netlist::Netlist;

use crate::mapper::Mapper;
use crate::{FpgaConfig, FpgaReport};

/// One mapped LUT: the node it produces and the nodes feeding it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lut {
    /// Netlist node whose value this LUT computes.
    pub root: usize,
    /// LUT input nets (netlist node indices).
    pub leaves: Vec<usize>,
}

/// Result of technology mapping.
#[derive(Clone, Debug, Default)]
pub struct LutMapping {
    /// Selected LUTs (roots are unique).
    pub luts: Vec<Lut>,
    /// LUT levels on the critical path.
    pub depth: u32,
}

/// Map `netlist` onto K-input LUTs: depth-optimal covering over priority
/// cuts, followed by one area-recovery re-selection pass on non-critical
/// nodes.
pub fn map_luts(netlist: &Netlist, config: &FpgaConfig) -> LutMapping {
    Mapper::new().map_luts(netlist, config)
}

/// Evaluate packing, timing, power and synthesis-time models on a mapped
/// network, producing the final [`FpgaReport`].
pub fn evaluate(netlist: &Netlist, mapping: &LutMapping, config: &FpgaConfig) -> FpgaReport {
    Mapper::new().evaluate(netlist, mapping, config)
}

/// FNV-1a hash of the netlist structure; seeds the P&R jitter and the
/// synthesis-time noise so they are deterministic per circuit yet
/// uncorrelated with its size.
pub fn structural_hash(netlist: &Netlist) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for gate in netlist.gates() {
        mix(gate.kind() as u64);
        for op in gate.operands() {
            mix(op.index() as u64);
        }
    }
    for out in netlist.outputs() {
        mix(out.index() as u64);
    }
    h
}

/// Delay and power jitter factors of a netlist whose [`structural_hash`]
/// is `h`.
pub(crate) fn pnr_jitter(h: u64, magnitude: f64) -> (f64, f64) {
    if magnitude == 0.0 {
        return (1.0, 1.0);
    }
    let u1 = ((h >> 8) & 0xFFFF) as f64 / 65535.0; // [0,1]
    let u2 = ((h >> 32) & 0xFFFF) as f64 / 65535.0;
    (
        1.0 + magnitude * (2.0 * u1 - 1.0),
        1.0 + magnitude * (2.0 * u2 - 1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts;
    use afp_circuits::{adders, multipliers};

    fn cfg() -> FpgaConfig {
        FpgaConfig::default()
    }

    #[test]
    fn mapping_covers_all_outputs() {
        let m = multipliers::wallace_multiplier(8);
        let mapping = map_luts(m.netlist(), &cfg());
        let roots: std::collections::HashSet<usize> = mapping.luts.iter().map(|l| l.root).collect();
        for out in m.netlist().outputs() {
            let g = m.netlist().gates()[out.index()];
            if g.is_logic() {
                assert!(roots.contains(&out.index()), "uncovered output");
            }
        }
    }

    #[test]
    fn mapping_is_a_closed_cover() {
        // Every LUT leaf is either an input, a constant, or another LUT root.
        let m = adders::carry_select(16);
        let mapping = map_luts(m.netlist(), &cfg());
        let roots: std::collections::HashSet<usize> = mapping.luts.iter().map(|l| l.root).collect();
        for lut in &mapping.luts {
            for &leaf in &lut.leaves {
                let g = m.netlist().gates()[leaf];
                assert!(
                    !g.is_logic() || roots.contains(&leaf),
                    "leaf {leaf} is unmapped logic"
                );
            }
        }
    }

    #[test]
    fn mapped_depth_not_worse_than_target() {
        let m = adders::carry_lookahead(16);
        let mapping = map_luts(m.netlist(), &cfg());
        let sets = cuts::enumerate(m.netlist(), 6, 8);
        let target: u32 = m
            .netlist()
            .outputs()
            .iter()
            .map(|o| sets.best_depth[o.index()])
            .max()
            .unwrap();
        assert_eq!(mapping.depth, target, "area recovery broke depth");
    }

    #[test]
    fn area_recovery_does_not_exceed_pure_depth_mapping_size() {
        // With recovery the LUT count should be <= a naive "always best
        // depth cut" cover. We approximate the check by ensuring LUT count
        // is well under gate count.
        let m = multipliers::array_multiplier(8);
        let mapping = map_luts(m.netlist(), &cfg());
        assert!(mapping.luts.len() < m.netlist().num_logic_gates());
    }

    #[test]
    fn structural_hash_distinguishes_netlists() {
        let a = adders::ripple_carry(8);
        let b = adders::carry_skip(8);
        assert_ne!(structural_hash(a.netlist()), structural_hash(b.netlist()));
        assert_eq!(structural_hash(a.netlist()), structural_hash(a.netlist()));
    }

    #[test]
    fn jitter_magnitude_zero_is_identity() {
        let m = adders::ripple_carry(8);
        assert_eq!(pnr_jitter(structural_hash(m.netlist()), 0.0), (1.0, 1.0));
        let (d, p) = pnr_jitter(structural_hash(m.netlist()), 0.1);
        assert!((0.9..=1.1).contains(&d));
        assert!((0.9..=1.1).contains(&p));
    }
}
