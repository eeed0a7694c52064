//! FPGA synthesis model: LUT technology mapping, slice packing, timing,
//! power and synthesis-time estimation.
//!
//! This crate plays the role Vivado plays in the ApproxFPGAs paper: it
//! turns a gate-level netlist into FPGA cost numbers — `#LUTs`, `#slices`,
//! delay and power — for a LUT-6 fabric with DSP blocks disabled (the
//! paper's setup). The core is a cut-based technology mapper
//! ([`cuts`]/[`map`]): K-feasible cuts are enumerated per node with
//! priority-cut pruning, a depth-optimal cover with area-flow tie-breaking
//! selects the LUT network, and packing/timing/power models are evaluated
//! on the mapped network.
//!
//! Because a LUT absorbs *any* function of up to K inputs, the relative
//! cost of circuits here differs systematically from their standard-cell
//! cost (an XOR tree is as cheap as an AND tree, inverters are free, ...).
//! That asymmetry is exactly the phenomenon the paper is built on.
//!
//! The [`synth_time`] module models the *wall-clock synthesis time* a real
//! tool-flow would spend on each circuit; the methodology accounts with it
//! when comparing exhaustive exploration to ML-driven exploration (Fig. 3).
//!
//! # Example
//!
//! ```
//! use afp_circuits::multipliers::wallace_multiplier;
//! use afp_fpga::{synthesize_fpga, FpgaConfig};
//!
//! let m = wallace_multiplier(8);
//! let report = synthesize_fpga(m.netlist(), &FpgaConfig::default());
//! assert!(report.luts > 0);
//! assert!(report.luts < m.netlist().num_logic_gates()); // LUTs absorb gates
//! assert!(report.delay_ns > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cuts;
pub mod luts;
pub mod map;
pub mod mapper;
pub mod synth_time;
pub mod target;

pub use mapper::{Mapper, MapperStats};
pub use target::{TargetProfile, DEFAULT_TARGET};

use afp_netlist::Netlist;

/// Target-architecture description (LUT-6 fabric defaults).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FpgaArch {
    /// LUT input count K.
    pub lut_inputs: usize,
    /// LUTs per slice (used by the packer).
    pub luts_per_slice: usize,
    /// LUT intrinsic delay in ns.
    pub lut_delay_ns: f64,
    /// Routing delay base per net hop in ns.
    pub route_base_ns: f64,
    /// Additional routing delay per `ln(1+fanout)` in ns.
    pub route_fanout_ns: f64,
    /// Dynamic energy per LUT output toggle in pJ.
    pub lut_energy_pj: f64,
    /// Dynamic routing energy per toggle per fanout in pJ.
    pub route_energy_pj: f64,
    /// Static power per used LUT in µW.
    pub lut_static_uw: f64,
}

impl Default for FpgaArch {
    fn default() -> FpgaArch {
        // Roughly 7-series-like relative numbers.
        FpgaArch {
            lut_inputs: 6,
            luts_per_slice: 4,
            lut_delay_ns: 0.124,
            route_base_ns: 0.35,
            route_fanout_ns: 0.18,
            lut_energy_pj: 0.9,
            route_energy_pj: 0.35,
            lut_static_uw: 3.5,
        }
    }
}

/// Configuration for [`synthesize_fpga`].
#[derive(Clone, Debug)]
pub struct FpgaConfig {
    /// Target architecture.
    pub arch: FpgaArch,
    /// Cuts kept per node during enumeration (priority cuts).
    pub cuts_per_node: usize,
    /// Operating clock in MHz (scales dynamic power).
    pub clock_mhz: f64,
    /// Random-stimulus passes for activity estimation.
    pub activity_passes: usize,
    /// Stimulus seed.
    pub seed: u64,
    /// Magnitude of the deterministic per-circuit place&route jitter
    /// applied to delay and power (0.0 disables; default 0.08 = ±8%).
    ///
    /// Real P&R outcomes vary with netlist hash-like details; the jitter
    /// makes the ML estimation task realistically noisy.
    pub pnr_jitter: f64,
    /// Identity of the device profile this configuration targets (a
    /// [`target::REGISTRY`] name for registry profiles, or any caller
    /// label for hand-built configurations).
    ///
    /// The identity travels with every characterization-cache key,
    /// circuit record and run report, so results from different fabrics
    /// can never be conflated even when two profiles happen to share
    /// cost constants.
    pub target: String,
}

impl Default for FpgaConfig {
    fn default() -> FpgaConfig {
        FpgaConfig {
            arch: FpgaArch::default(),
            cuts_per_node: 8,
            clock_mhz: 200.0,
            activity_passes: 32,
            seed: 0xF96A,
            pnr_jitter: 0.08,
            target: target::DEFAULT_TARGET.to_string(),
        }
    }
}

/// FPGA implementation report for one netlist.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FpgaReport {
    /// Number of LUTs in the mapped network.
    pub luts: usize,
    /// Number of occupied slices after packing.
    pub slices: usize,
    /// LUT levels on the critical path.
    pub depth_levels: u32,
    /// Critical-path delay in ns (LUT + routing, with P&R jitter).
    pub delay_ns: f64,
    /// Total power in mW at the configured clock (dynamic + static).
    pub power_mw: f64,
    /// Modeled synthesis + implementation wall-clock time in seconds.
    pub synth_time_s: f64,
}

/// Synthesize `netlist` for the configured FPGA fabric.
///
/// Runs cut enumeration, depth-optimal covering with area recovery, slice
/// packing, timing and power models, and the synthesis-time model. The
/// result is deterministic for a given netlist and configuration.
///
/// One-shot wrapper around [`Mapper::synthesize`]; callers sweeping many
/// netlists should hold a [`Mapper`] to reuse its scratch buffers.
pub fn synthesize_fpga(netlist: &Netlist, config: &FpgaConfig) -> FpgaReport {
    Mapper::new().synthesize(netlist, config)
}

impl afp_runtime::Fingerprint for FpgaConfig {
    fn fingerprint(&self, h: &mut afp_runtime::StableHasher) {
        h.write_str("fpga-config");
        h.write_usize(self.arch.lut_inputs);
        h.write_usize(self.arch.luts_per_slice);
        h.write_f64(self.arch.lut_delay_ns);
        h.write_f64(self.arch.route_base_ns);
        h.write_f64(self.arch.route_fanout_ns);
        h.write_f64(self.arch.lut_energy_pj);
        h.write_f64(self.arch.route_energy_pj);
        h.write_f64(self.arch.lut_static_uw);
        h.write_usize(self.cuts_per_node);
        h.write_f64(self.clock_mhz);
        h.write_usize(self.activity_passes);
        h.write_u64(self.seed);
        h.write_f64(self.pnr_jitter);
        // Retired dominance-pruning flag: always off, kept in the key so
        // every persisted characterization key stays valid.
        h.write_u64(0);
        h.write_str(&self.target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuits::{adders, multipliers};

    fn report(netlist: &Netlist) -> FpgaReport {
        synthesize_fpga(netlist, &FpgaConfig::default())
    }

    #[test]
    fn wire_costs_nothing() {
        let mut n = Netlist::new("wire");
        let a = n.add_input();
        n.set_outputs(vec![a]);
        let r = report(&n);
        assert_eq!(r.luts, 0);
        assert_eq!(r.slices, 0);
        assert_eq!(r.depth_levels, 0);
    }

    #[test]
    fn small_function_fits_one_lut() {
        // A 6-input function must map to exactly one LUT-6.
        let mut n = Netlist::new("f6");
        let ins = n.add_inputs(6);
        let x1 = n.and(ins[0], ins[1]);
        let x2 = n.xor(ins[2], ins[3]);
        let x3 = n.or(ins[4], ins[5]);
        let x4 = n.maj(x1, x2, x3);
        n.set_outputs(vec![x4]);
        let r = report(&n);
        assert_eq!(r.luts, 1);
        assert_eq!(r.slices, 1);
        assert_eq!(r.depth_levels, 1);
    }

    #[test]
    fn luts_fewer_than_gates() {
        for nl in [
            adders::ripple_carry(8).into_netlist(),
            multipliers::wallace_multiplier(8).into_netlist(),
        ] {
            let r = report(&nl);
            assert!(r.luts > 0);
            assert!(
                r.luts < nl.num_logic_gates(),
                "mapper should absorb gates: {} LUTs for {} gates",
                r.luts,
                nl.num_logic_gates()
            );
        }
    }

    #[test]
    fn ripple_adder_cost_is_about_two_luts_per_bit() {
        // Without a dedicated carry chain a 16-bit RCA maps to roughly one
        // sum LUT and one carry LUT per position, minus what the mapper
        // absorbs. Accept a generous envelope: 8..=40 LUTs.
        let r = report(adders::ripple_carry(16).netlist());
        assert!(r.luts >= 8 && r.luts <= 40, "got {} LUTs", r.luts);
    }

    #[test]
    fn fpga_cost_ranking_differs_from_gate_count() {
        // XOR-heavy and NAND-heavy structures of similar gate count should
        // land differently in LUTs than in gates — the paper's asymmetry.
        let cla = adders::carry_lookahead(16);
        let rca = adders::ripple_carry(16);
        let r_cla = report(cla.netlist());
        let r_rca = report(rca.netlist());
        let gate_ratio =
            cla.netlist().num_logic_gates() as f64 / rca.netlist().num_logic_gates() as f64;
        let lut_ratio = r_cla.luts as f64 / r_rca.luts.max(1) as f64;
        assert!(
            (gate_ratio - lut_ratio).abs() > 0.25,
            "gate ratio {gate_ratio:.2} vs lut ratio {lut_ratio:.2} too similar"
        );
    }

    #[test]
    fn packing_matches_lut_count() {
        let r = report(multipliers::array_multiplier(8).netlist());
        let per = FpgaArch::default().luts_per_slice;
        assert_eq!(r.slices, r.luts.div_ceil(per));
    }

    #[test]
    fn delay_grows_with_depth() {
        let shallow = report(adders::carry_lookahead(16).netlist());
        let deep = report(adders::ripple_carry(16).netlist());
        assert!(deep.depth_levels > shallow.depth_levels);
        assert!(deep.delay_ns > shallow.delay_ns);
    }

    #[test]
    fn reports_are_deterministic() {
        let m = multipliers::wallace_multiplier(8);
        assert_eq!(report(m.netlist()), report(m.netlist()));
    }

    #[test]
    fn jitter_is_bounded_and_seeded_by_structure() {
        let m = multipliers::wallace_multiplier(8);
        let no_jitter_cfg = FpgaConfig {
            pnr_jitter: 0.0,
            ..FpgaConfig::default()
        };
        let clean = synthesize_fpga(m.netlist(), &no_jitter_cfg);
        let noisy = report(m.netlist());
        let rel = (noisy.delay_ns - clean.delay_ns).abs() / clean.delay_ns;
        assert!(rel <= 0.085, "jitter out of bounds: {rel}");
    }

    #[test]
    fn synth_time_grows_with_circuit_size() {
        let small = report(adders::ripple_carry(8).netlist());
        let large = report(multipliers::wallace_multiplier(16).netlist());
        assert!(large.synth_time_s > small.synth_time_s);
        assert!(small.synth_time_s > 0.0);
    }

    #[test]
    fn truncated_multiplier_uses_fewer_luts() {
        let exact = report(multipliers::wallace_multiplier(8).netlist());
        let mut t = multipliers::truncated(8, 8);
        t.simplify();
        let approx = report(t.netlist());
        assert!(approx.luts < exact.luts);
        assert!(approx.power_mw < exact.power_mw);
    }
}
