//! Named device profiles: curated [`FpgaArch`] + clocking defaults for
//! the fabrics the flow can retarget.
//!
//! The paper's central observation is that cost *rankings* shift when the
//! implementation fabric changes (ASIC standard cells vs a LUT-6 FPGA);
//! its follow-up Xel-FPGAs generalizes the methodology across FPGA
//! platforms, where the same shift happens again between LUT-4, LUT-6 and
//! ALM-based devices. This module gives those fabrics stable names so the
//! rest of the workspace — the characterization cache, circuit records,
//! run reports and the CLI — can ask the retargeting question explicitly:
//! *does the pareto front survive a move from target A to target B?*
//!
//! Every profile is a curated [`FpgaArch`] plus clock and P&R-jitter
//! defaults. The relative numbers are calibrated against public device
//! characteristics, not measured silicon; what matters for the
//! methodology is that the *ratios* between LUT delay, routing delay and
//! energy differ across profiles the way they do across real device
//! families.
//!
//! [`DEFAULT_TARGET`] (`lut6-7series`) reproduces [`FpgaConfig::default`]
//! byte-for-byte: retargeting is strictly additive, and the historical
//! goldens stay pinned to the default profile.

use crate::{FpgaArch, FpgaConfig};

/// A named device profile: architecture plus clocking defaults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TargetProfile {
    /// Stable registry name (kebab-case, e.g. `lut6-7series`).
    pub name: &'static str,
    /// One-line description of what the profile models.
    pub description: &'static str,
    /// Architecture constants (LUT size, packing, delay/energy model).
    pub arch: FpgaArch,
    /// Default operating clock in MHz.
    pub clock_mhz: f64,
    /// Default P&R jitter magnitude (see [`FpgaConfig::pnr_jitter`]).
    pub pnr_jitter: f64,
}

/// Name of the default profile — the 7-series-like LUT-6 fabric every
/// historical golden was captured on.
pub const DEFAULT_TARGET: &str = "lut6-7series";

/// The built-in device-profile registry, in stable presentation order.
///
/// `lut6-7series` is byte-for-byte the workspace default; the other
/// profiles change the LUT size, packing density, delay/energy ratios and
/// clocking the way the corresponding real device families do relative to
/// 7-series.
pub const REGISTRY: [TargetProfile; 4] = [
    TargetProfile {
        name: "lut4-ice40",
        description: "iCE40-like low-power LUT-4 fabric: small logic cells, \
                      slow routing, very low static power",
        arch: FpgaArch {
            lut_inputs: 4,
            luts_per_slice: 8,
            lut_delay_ns: 0.44,
            route_base_ns: 0.65,
            route_fanout_ns: 0.30,
            lut_energy_pj: 0.5,
            route_energy_pj: 0.25,
            lut_static_uw: 1.1,
        },
        clock_mhz: 48.0,
        pnr_jitter: 0.10,
    },
    TargetProfile {
        name: DEFAULT_TARGET,
        description: "7-series-like LUT-6 fabric (the workspace default; \
                      all historical goldens are pinned to it)",
        arch: FpgaArch {
            lut_inputs: 6,
            luts_per_slice: 4,
            lut_delay_ns: 0.124,
            route_base_ns: 0.35,
            route_fanout_ns: 0.18,
            lut_energy_pj: 0.9,
            route_energy_pj: 0.35,
            lut_static_uw: 3.5,
        },
        clock_mhz: 200.0,
        pnr_jitter: 0.08,
    },
    TargetProfile {
        name: "lut6-ultrascale",
        description: "UltraScale+-like LUT-6 fabric: denser CLB packing, \
                      faster LUTs and routing, higher default clock",
        arch: FpgaArch {
            lut_inputs: 6,
            luts_per_slice: 8,
            lut_delay_ns: 0.09,
            route_base_ns: 0.25,
            route_fanout_ns: 0.14,
            lut_energy_pj: 0.7,
            route_energy_pj: 0.28,
            lut_static_uw: 2.8,
        },
        clock_mhz: 400.0,
        pnr_jitter: 0.06,
    },
    TargetProfile {
        name: "alm-stratix",
        description: "Stratix-like ALM fabric: adaptive 6-input logic \
                      modules, wide LABs, higher per-toggle energy",
        arch: FpgaArch {
            lut_inputs: 6,
            luts_per_slice: 10,
            lut_delay_ns: 0.11,
            route_base_ns: 0.30,
            route_fanout_ns: 0.16,
            lut_energy_pj: 1.1,
            route_energy_pj: 0.40,
            lut_static_uw: 4.2,
        },
        clock_mhz: 300.0,
        pnr_jitter: 0.07,
    },
];

/// The built-in registry in presentation order.
pub fn registry() -> &'static [TargetProfile] {
    &REGISTRY
}

/// Look up a profile by its registry name.
pub fn named(name: &str) -> Option<&'static TargetProfile> {
    REGISTRY.iter().find(|p| p.name == name)
}

/// A named target could not be resolved against the registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownTargetError {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownTargetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let known: Vec<&str> = REGISTRY.iter().map(|p| p.name).collect();
        write!(
            f,
            "unknown target `{}` (known targets: {})",
            self.name,
            known.join(", ")
        )
    }
}

impl std::error::Error for UnknownTargetError {}

/// [`named`] for user-supplied names: an unknown name is an
/// [`UnknownTargetError`], which lists the known targets.
pub fn resolve(name: &str) -> Result<&'static TargetProfile, UnknownTargetError> {
    named(name).ok_or_else(|| UnknownTargetError { name: name.into() })
}

impl TargetProfile {
    /// A fresh [`FpgaConfig`] for this target: profile architecture and
    /// clocking on top of the workspace defaults for everything else
    /// (cut budget, activity passes, seed).
    pub fn config(&self) -> FpgaConfig {
        self.apply(&FpgaConfig::default())
    }

    /// Retarget an existing configuration: replace the architecture,
    /// clock, jitter and target identity, keep every other knob
    /// (`cuts_per_node`, `activity_passes`, `seed`) from `base`.
    pub fn apply(&self, base: &FpgaConfig) -> FpgaConfig {
        FpgaConfig {
            arch: self.arch,
            clock_mhz: self.clock_mhz,
            pnr_jitter: self.pnr_jitter,
            target: self.name.to_string(),
            ..base.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
        assert!(REGISTRY.len() >= 4);
        for p in registry() {
            assert!(!p.description.is_empty(), "{} lacks a description", p.name);
            assert!(named(p.name).is_some());
        }
        assert!(named("no-such-fabric").is_none());
    }

    #[test]
    fn default_profile_is_byte_identical_to_default_config() {
        let d = FpgaConfig::default();
        let p = resolve(DEFAULT_TARGET).unwrap().config();
        assert_eq!(p.target, DEFAULT_TARGET);
        assert_eq!(p.arch.lut_inputs, d.arch.lut_inputs);
        assert_eq!(p.arch.luts_per_slice, d.arch.luts_per_slice);
        assert_eq!(p.arch.lut_delay_ns.to_bits(), d.arch.lut_delay_ns.to_bits());
        assert_eq!(
            p.arch.route_base_ns.to_bits(),
            d.arch.route_base_ns.to_bits()
        );
        assert_eq!(
            p.arch.route_fanout_ns.to_bits(),
            d.arch.route_fanout_ns.to_bits()
        );
        assert_eq!(
            p.arch.lut_energy_pj.to_bits(),
            d.arch.lut_energy_pj.to_bits()
        );
        assert_eq!(
            p.arch.route_energy_pj.to_bits(),
            d.arch.route_energy_pj.to_bits()
        );
        assert_eq!(
            p.arch.lut_static_uw.to_bits(),
            d.arch.lut_static_uw.to_bits()
        );
        assert_eq!(p.clock_mhz.to_bits(), d.clock_mhz.to_bits());
        assert_eq!(p.pnr_jitter.to_bits(), d.pnr_jitter.to_bits());
        assert_eq!(p.cuts_per_node, d.cuts_per_node);
        assert_eq!(p.activity_passes, d.activity_passes);
        assert_eq!(p.seed, d.seed);
    }

    #[test]
    fn apply_preserves_non_target_knobs() {
        let base = FpgaConfig {
            cuts_per_node: 12,
            activity_passes: 7,
            seed: 42,
            ..FpgaConfig::default()
        };
        let retargeted = named("lut4-ice40").unwrap().apply(&base);
        assert_eq!(retargeted.target, "lut4-ice40");
        assert_eq!(retargeted.arch.lut_inputs, 4);
        assert_eq!(retargeted.cuts_per_node, 12);
        assert_eq!(retargeted.activity_passes, 7);
        assert_eq!(retargeted.seed, 42);
    }

    #[test]
    fn all_luts_fit_init_masks() {
        // `luts::program_luts` stores truth tables in single u64 INIT
        // masks, so no registered profile may exceed LUT-6; gates have up
        // to three operands, so cut enumeration needs at least K=3.
        for p in registry() {
            assert!(
                (3..=6).contains(&p.arch.lut_inputs),
                "{}: K={} outside the supported 3..=6",
                p.name,
                p.arch.lut_inputs
            );
            assert!(p.arch.luts_per_slice >= 1);
            assert!(p.clock_mhz > 0.0);
            assert!((0.0..0.5).contains(&p.pnr_jitter));
        }
    }
}
