//! ASIC synthesis model: standard-cell mapping, static timing analysis and
//! switching-activity power estimation.
//!
//! The ApproxFPGAs methodology needs, for every circuit in a library, the
//! "ASIC parameters" (area, delay, power) that (a) define the ASIC pareto
//! front of Fig. 1 and (b) serve as regression features for the ML models
//! ML1–ML3. This crate provides those numbers from a 45 nm-flavoured
//! generic standard-cell library: each netlist gate maps 1:1 onto a cell
//! with calibrated area/delay/energy/leakage, timing is a topological STA
//! with fanout-dependent cell delay, and dynamic power uses zero-delay
//! switching activities estimated by simulation.
//!
//! Absolute values are representative, not foundry-accurate; the paper's
//! claims only require that ASIC cost *ranks* circuits differently than
//! FPGA cost does (gates vs LUTs), which this model preserves structurally.
//!
//! # Example
//!
//! ```
//! use afp_asic::{synthesize_asic, AsicConfig};
//! use afp_circuits::multipliers::wallace_multiplier;
//!
//! let m = wallace_multiplier(8);
//! let report = synthesize_asic(m.netlist(), &AsicConfig::default());
//! assert!(report.area_um2 > 0.0);
//! assert!(report.delay_ns > 0.0);
//! assert!(report.power_mw > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fusion;

use afp_netlist::{analyze, GateKind, Netlist, SimScratch};

use fusion::FusedCell;

/// Per-cell characterization data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    /// Cell area in µm².
    pub area_um2: f64,
    /// Intrinsic propagation delay in ps.
    pub delay_ps: f64,
    /// Additional delay per fanout load, in ps.
    pub load_ps_per_fanout: f64,
    /// Leakage power in nW.
    pub leakage_nw: f64,
    /// Switching energy per output toggle in fJ.
    pub energy_fj: f64,
}

/// A standard-cell library: one [`Cell`] per logic [`GateKind`], plus
/// compound full-adder / half-adder cells used when fusion is enabled.
#[derive(Clone, Debug)]
pub struct CellLibrary {
    name: String,
    cells: [Cell; GateKind::LOGIC.len()],
    full_adder: CompoundCell,
    half_adder: CompoundCell,
}

/// A two-output compound arithmetic cell (FA or HA).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompoundCell {
    /// Cell area in µm².
    pub area_um2: f64,
    /// Input→sum propagation delay in ps (plus per-fanout load).
    pub sum_delay_ps: f64,
    /// Input→carry propagation delay in ps (plus per-fanout load).
    pub carry_delay_ps: f64,
    /// Additional delay per fanout load, in ps.
    pub load_ps_per_fanout: f64,
    /// Leakage power in nW.
    pub leakage_nw: f64,
    /// Switching energy per sum-output toggle in fJ.
    pub sum_energy_fj: f64,
    /// Switching energy per carry-output toggle in fJ.
    pub carry_energy_fj: f64,
}

impl CellLibrary {
    /// The default 45 nm-flavoured generic library.
    ///
    /// Relative cell costs follow standard-cell intuition: inverting gates
    /// (NAND/NOR) are the cheapest two-input functions, XOR/XNOR and MUX
    /// are roughly twice as large and slow, and the majority (carry) cell
    /// sits between them.
    pub fn generic_45nm() -> CellLibrary {
        let c = |area, delay, load, leak, energy| Cell {
            area_um2: area,
            delay_ps: delay,
            load_ps_per_fanout: load,
            leakage_nw: leak,
            energy_fj: energy,
        };
        // Order must match GateKind::LOGIC:
        // Buf, Not, And, Or, Xor, Nand, Nor, Xnor, Mux, Maj
        let cells = [
            c(1.06, 28.0, 5.0, 12.0, 0.8), // Buf
            c(0.53, 12.0, 4.0, 8.0, 0.5),  // Not
            c(1.33, 34.0, 6.0, 18.0, 1.2), // And
            c(1.33, 36.0, 6.0, 18.0, 1.2), // Or
            c(2.13, 55.0, 7.0, 30.0, 2.6), // Xor
            c(1.06, 22.0, 6.0, 14.0, 0.9), // Nand
            c(1.06, 24.0, 6.0, 14.0, 0.9), // Nor
            c(2.13, 57.0, 7.0, 30.0, 2.6), // Xnor
            c(2.39, 48.0, 7.0, 26.0, 2.2), // Mux
            c(2.39, 50.0, 7.0, 28.0, 2.5), // Maj
        ];
        CellLibrary {
            name: "generic45".to_string(),
            cells,
            // Compound cells: markedly cheaper than their discrete
            // decomposition (FA ~ 2xXOR+MAJ = 6.7 um2 / 5.7 fJ discrete).
            full_adder: CompoundCell {
                area_um2: 4.52,
                sum_delay_ps: 76.0,
                carry_delay_ps: 48.0,
                load_ps_per_fanout: 7.0,
                leakage_nw: 46.0,
                sum_energy_fj: 2.1,
                carry_energy_fj: 1.7,
            },
            half_adder: CompoundCell {
                area_um2: 2.66,
                sum_delay_ps: 52.0,
                carry_delay_ps: 32.0,
                load_ps_per_fanout: 6.5,
                leakage_nw: 26.0,
                sum_energy_fj: 1.6,
                carry_energy_fj: 0.9,
            },
        }
    }

    /// The compound full-adder cell.
    pub fn full_adder(&self) -> CompoundCell {
        self.full_adder
    }

    /// The compound half-adder cell.
    pub fn half_adder(&self) -> CompoundCell {
        self.half_adder
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell implementing `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is `Input` or `Const` (not cells).
    pub fn cell(&self, kind: GateKind) -> Cell {
        let idx = GateKind::LOGIC
            .iter()
            .position(|&k| k == kind)
            .expect("inputs/constants are not cells");
        self.cells[idx]
    }
}

impl Default for CellLibrary {
    fn default() -> CellLibrary {
        CellLibrary::generic_45nm()
    }
}

/// Configuration for [`synthesize_asic`].
#[derive(Clone, Debug)]
pub struct AsicConfig {
    /// Standard-cell library to map onto.
    pub library: CellLibrary,
    /// Operating clock in GHz (scales dynamic power).
    pub clock_ghz: f64,
    /// Random-stimulus passes for activity estimation (64 vectors each).
    pub activity_passes: usize,
    /// Stimulus seed.
    pub seed: u64,
    /// Fuse full-adder/half-adder patterns into compound cells
    /// (see [`fusion`]); affects cost accounting only.
    pub fuse_adders: bool,
}

impl Default for AsicConfig {
    fn default() -> AsicConfig {
        AsicConfig {
            library: CellLibrary::generic_45nm(),
            clock_ghz: 1.0,
            activity_passes: 32,
            seed: 0xA51C,
            fuse_adders: true,
        }
    }
}

/// ASIC synthesis report for one netlist.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AsicReport {
    /// Total standard-cell area in µm².
    pub area_um2: f64,
    /// Critical-path delay in ns.
    pub delay_ns: f64,
    /// Total power (dynamic + leakage) in mW at the configured clock.
    pub power_mw: f64,
    /// Dynamic component of `power_mw`.
    pub dynamic_mw: f64,
    /// Leakage component of `power_mw`.
    pub leakage_mw: f64,
    /// Number of mapped cells.
    pub cells: usize,
}

/// Per-node role in a fused compound cell (FA/HA pattern fusion).
#[derive(Clone, Copy, Debug)]
enum Role {
    FaSum,
    FaCarry,
    Absorbed,
    HaSum,
    HaCarry,
}

/// Reusable buffers for repeated [`synthesize_asic_with`] calls.
///
/// Activity estimation is the dominant allocation in ASIC synthesis (a
/// simulator value buffer plus a probability vector per call); workers
/// that synthesize a whole library keep one `AsicScratch` alive so the
/// steady state is allocation-free. Results are bit-identical to
/// [`synthesize_asic`].
#[derive(Debug, Default)]
pub struct AsicScratch {
    sim: SimScratch,
    probs: Vec<f64>,
    role: Vec<Option<Role>>,
    arrival_ps: Vec<f64>,
}

impl AsicScratch {
    /// An empty scratch; buffers grow to the largest netlist seen.
    pub fn new() -> AsicScratch {
        AsicScratch::default()
    }
}

/// Map `netlist` onto the configured cell library and report area, timing
/// and power.
///
/// * **Area** — sum of mapped cell areas (inputs/constants are free).
/// * **Delay** — topological STA; a cell's delay is its intrinsic delay
///   plus a per-fanout load term.
/// * **Power** — zero-delay switching activity `2·p·(1−p)` per net from
///   seeded random simulation; dynamic power is `Σ activity · E_cell · f`,
///   plus cell leakage.
///
/// Convenience wrapper over [`synthesize_asic_with`] with a fresh
/// [`AsicScratch`] per call.
pub fn synthesize_asic(netlist: &Netlist, config: &AsicConfig) -> AsicReport {
    synthesize_asic_with(netlist, config, &mut AsicScratch::new())
}

/// [`synthesize_asic`] with caller-owned scratch buffers — allocation-free
/// in steady state when sweeping a library.
pub fn synthesize_asic_with(
    netlist: &Netlist,
    config: &AsicConfig,
    scratch: &mut AsicScratch,
) -> AsicReport {
    let mut probs = std::mem::take(&mut scratch.probs);
    scratch
        .sim
        .signal_probabilities(netlist, config.activity_passes, config.seed, &mut probs);
    let report = synthesize_asic_from_probs(netlist, config, scratch, &probs);
    scratch.probs = probs;
    report
}

/// [`synthesize_asic_with`] on given signal probabilities: `probs[i]` is
/// net `i`'s estimate from [`SimScratch::signal_probabilities`] at
/// `config.activity_passes` and `config.seed`. A simulation batch
/// estimates them once on its hash-consed DAG and gathers each member's.
///
/// # Panics
///
/// Panics if `probs` has fewer entries than `netlist` has nets.
pub fn synthesize_asic_from_probs(
    netlist: &Netlist,
    config: &AsicConfig,
    scratch: &mut AsicScratch,
    probs: &[f64],
) -> AsicReport {
    assert!(probs.len() >= netlist.len(), "one probability per net");
    let lib = &config.library;
    let fanout = analyze::fanout(netlist);

    // Optional FA/HA pattern fusion: per-node role in a compound cell.
    let role = &mut scratch.role;
    role.clear();
    role.resize(netlist.len(), None);
    let mut compound_cells = 0usize;
    let mut compound_area = 0.0f64;
    let mut compound_leak = 0.0f64;
    if config.fuse_adders {
        let fused = fusion::match_arith_cells(netlist);
        for cell in &fused.cells {
            match cell {
                FusedCell::FullAdder { sum, inner, carry } => {
                    role[*sum] = Some(Role::FaSum);
                    role[*carry] = Some(Role::FaCarry);
                    if let Some(i) = inner {
                        role[*i] = Some(Role::Absorbed);
                    }
                    compound_area += lib.full_adder.area_um2;
                    compound_leak += lib.full_adder.leakage_nw;
                    compound_cells += 1;
                }
                FusedCell::HalfAdder { sum, carry } => {
                    role[*sum] = Some(Role::HaSum);
                    role[*carry] = Some(Role::HaCarry);
                    compound_area += lib.half_adder.area_um2;
                    compound_leak += lib.half_adder.leakage_nw;
                    compound_cells += 1;
                }
            }
        }
    }

    let mut area = compound_area;
    let mut leak_nw = compound_leak;
    let mut cells = compound_cells;
    let arrival_ps = &mut scratch.arrival_ps;
    arrival_ps.clear();
    arrival_ps.resize(netlist.len(), 0.0);
    for (i, gate) in netlist.gates().iter().enumerate() {
        if !gate.is_logic() {
            continue;
        }
        let input_arrival = gate
            .operands()
            .map(|op| arrival_ps[op.index()])
            .fold(0.0f64, f64::max);
        let fo = fanout[i].max(1) as f64;
        arrival_ps[i] = match role[i] {
            None => {
                let cell = lib.cell(gate.kind());
                area += cell.area_um2;
                leak_nw += cell.leakage_nw;
                cells += 1;
                input_arrival + cell.delay_ps + cell.load_ps_per_fanout * fo
            }
            // The absorbed inner XOR is internal wiring of the compound
            // cell: its "arrival" is just the input arrival so the sum
            // node sees the true cell inputs.
            Some(Role::Absorbed) => input_arrival,
            Some(Role::FaSum) => {
                input_arrival + lib.full_adder.sum_delay_ps + lib.full_adder.load_ps_per_fanout * fo
            }
            Some(Role::FaCarry) => {
                input_arrival
                    + lib.full_adder.carry_delay_ps
                    + lib.full_adder.load_ps_per_fanout * fo
            }
            Some(Role::HaSum) => {
                input_arrival + lib.half_adder.sum_delay_ps + lib.half_adder.load_ps_per_fanout * fo
            }
            Some(Role::HaCarry) => {
                input_arrival
                    + lib.half_adder.carry_delay_ps
                    + lib.half_adder.load_ps_per_fanout * fo
            }
        };
    }
    let delay_ps = netlist
        .outputs()
        .iter()
        .map(|o| arrival_ps[o.index()])
        .fold(0.0f64, f64::max);

    // Switching activity from zero-delay signal probabilities.
    let mut dynamic_fj_per_cycle = 0.0f64;
    for (i, gate) in netlist.gates().iter().enumerate() {
        if !gate.is_logic() {
            continue;
        }
        let p = probs[i];
        let activity = 2.0 * p * (1.0 - p);
        let energy = match role[i] {
            None => lib.cell(gate.kind()).energy_fj,
            Some(Role::Absorbed) => 0.0, // internal node of the compound cell
            Some(Role::FaSum) => lib.full_adder.sum_energy_fj,
            Some(Role::FaCarry) => lib.full_adder.carry_energy_fj,
            Some(Role::HaSum) => lib.half_adder.sum_energy_fj,
            Some(Role::HaCarry) => lib.half_adder.carry_energy_fj,
        };
        dynamic_fj_per_cycle += activity * energy;
    }
    // fJ/cycle * cycles/ns(GHz) = µW; report mW.
    let dynamic_mw = dynamic_fj_per_cycle * config.clock_ghz * 1e-3;
    let leakage_mw = leak_nw * 1e-6;

    AsicReport {
        area_um2: area,
        delay_ns: delay_ps * 1e-3,
        power_mw: dynamic_mw + leakage_mw,
        dynamic_mw,
        leakage_mw,
        cells,
    }
}

impl afp_runtime::Fingerprint for AsicConfig {
    fn fingerprint(&self, h: &mut afp_runtime::StableHasher) {
        h.write_str("asic-config");
        h.write_str(&self.library.name);
        for cell in &self.library.cells {
            h.write_f64(cell.area_um2);
            h.write_f64(cell.delay_ps);
            h.write_f64(cell.load_ps_per_fanout);
            h.write_f64(cell.leakage_nw);
            h.write_f64(cell.energy_fj);
        }
        for compound in [&self.library.full_adder, &self.library.half_adder] {
            h.write_f64(compound.area_um2);
            h.write_f64(compound.sum_delay_ps);
            h.write_f64(compound.carry_delay_ps);
            h.write_f64(compound.load_ps_per_fanout);
            h.write_f64(compound.leakage_nw);
            h.write_f64(compound.sum_energy_fj);
            h.write_f64(compound.carry_energy_fj);
        }
        h.write_f64(self.clock_ghz);
        h.write_usize(self.activity_passes);
        h.write_u64(self.seed);
        h.write_bool(self.fuse_adders);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuits::{adders, multipliers};

    fn report(netlist: &Netlist) -> AsicReport {
        synthesize_asic(netlist, &AsicConfig::default())
    }

    #[test]
    fn empty_netlist_costs_nothing() {
        let mut n = Netlist::new("wire");
        let a = n.add_input();
        n.set_outputs(vec![a]);
        let r = report(&n);
        assert_eq!(r.cells, 0);
        assert_eq!(r.area_um2, 0.0);
        assert_eq!(r.delay_ns, 0.0);
        assert_eq!(r.power_mw, 0.0);
    }

    #[test]
    fn single_gate_timing_includes_load() {
        let mut n = Netlist::new("g");
        let a = n.add_input();
        let b = n.add_input();
        let y = n.nand(a, b);
        n.set_outputs(vec![y]);
        let r = report(&n);
        let cell = CellLibrary::generic_45nm().cell(GateKind::Nand);
        let expected_ps = cell.delay_ps + cell.load_ps_per_fanout; // fanout 1
        assert!((r.delay_ns - expected_ps * 1e-3).abs() < 1e-9);
        assert_eq!(r.cells, 1);
    }

    #[test]
    fn bigger_circuits_cost_more() {
        let a8 = report(adders::ripple_carry(8).netlist());
        let a16 = report(adders::ripple_carry(16).netlist());
        assert!(a16.area_um2 > a8.area_um2);
        assert!(a16.delay_ns > a8.delay_ns);
        assert!(a16.power_mw > a8.power_mw);
    }

    #[test]
    fn cla_trades_area_for_speed() {
        let rca = report(adders::ripple_carry(16).netlist());
        let cla = report(adders::carry_lookahead(16).netlist());
        assert!(cla.delay_ns < rca.delay_ns, "CLA should be faster");
        assert!(cla.area_um2 > rca.area_um2, "CLA should be bigger");
    }

    #[test]
    fn wallace_faster_than_array() {
        let arr = report(multipliers::array_multiplier(8).netlist());
        let wal = report(multipliers::wallace_multiplier(8).netlist());
        assert!(wal.delay_ns < arr.delay_ns);
    }

    #[test]
    fn truncation_saves_everything() {
        let exact = report(multipliers::wallace_multiplier(8).netlist());
        let mut t = multipliers::truncated(8, 8);
        t.simplify();
        let approx = report(t.netlist());
        assert!(approx.area_um2 < exact.area_um2);
        assert!(approx.power_mw < exact.power_mw);
    }

    #[test]
    fn reports_are_deterministic() {
        let m = multipliers::wallace_multiplier(8);
        let r1 = report(m.netlist());
        let r2 = report(m.netlist());
        assert_eq!(r1, r2);
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_fresh() {
        // One warm scratch across dissimilar netlists (shrinking and
        // growing buffers) must reproduce fresh-scratch reports exactly.
        let mut scratch = AsicScratch::new();
        let cfg = AsicConfig::default();
        for nl in [
            multipliers::wallace_multiplier(8).into_netlist(),
            adders::ripple_carry(4).into_netlist(),
            adders::carry_lookahead(16).into_netlist(),
        ] {
            let fresh = synthesize_asic(&nl, &cfg);
            let reused = synthesize_asic_with(&nl, &cfg, &mut scratch);
            assert_eq!(fresh, reused, "{}", nl.name());
        }
    }

    #[test]
    fn power_splits_into_components() {
        let r = report(adders::carry_select(16).netlist());
        assert!(r.dynamic_mw > 0.0);
        assert!(r.leakage_mw > 0.0);
        assert!((r.power_mw - (r.dynamic_mw + r.leakage_mw)).abs() < 1e-12);
    }

    #[test]
    fn clock_scales_dynamic_power_linearly() {
        let n = adders::ripple_carry(8);
        let base = AsicConfig::default();
        let fast = AsicConfig {
            clock_ghz: 2.0,
            ..AsicConfig::default()
        };
        let r1 = synthesize_asic(n.netlist(), &base);
        let r2 = synthesize_asic(n.netlist(), &fast);
        assert!((r2.dynamic_mw - 2.0 * r1.dynamic_mw).abs() < 1e-12);
        assert!((r2.leakage_mw - r1.leakage_mw).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not cells")]
    fn input_is_not_a_cell() {
        let _ = CellLibrary::generic_45nm().cell(GateKind::Input);
    }

    #[test]
    fn fusion_cuts_ripple_adder_cost() {
        let nl = adders::ripple_carry(16).into_netlist();
        let fused = synthesize_asic(&nl, &AsicConfig::default());
        let discrete = synthesize_asic(
            &nl,
            &AsicConfig {
                fuse_adders: false,
                ..AsicConfig::default()
            },
        );
        assert!(
            fused.area_um2 < discrete.area_um2 * 0.85,
            "area {} vs {}",
            fused.area_um2,
            discrete.area_um2
        );
        assert!(fused.power_mw < discrete.power_mw);
        assert!(fused.cells < discrete.cells);
        assert!(fused.delay_ns <= discrete.delay_ns + 1e-9);
    }

    #[test]
    fn fusion_barely_affects_lookahead_adders() {
        // CLA has (almost) no FA patterns: fusion must be a near-no-op.
        let nl = adders::carry_lookahead(16).into_netlist();
        let fused = synthesize_asic(&nl, &AsicConfig::default());
        let discrete = synthesize_asic(
            &nl,
            &AsicConfig {
                fuse_adders: false,
                ..AsicConfig::default()
            },
        );
        let rel = (discrete.area_um2 - fused.area_um2) / discrete.area_um2;
        assert!(rel < 0.12, "CLA area changed by {:.1}%", 100.0 * rel);
    }

    #[test]
    fn fusion_widens_the_rca_vs_cla_contrast() {
        // With FA cells, RCA gets cheaper while CLA stays put — the
        // architectural spread the ASIC pareto front is built from.
        let rca = adders::ripple_carry(16).into_netlist();
        let cla = adders::carry_lookahead(16).into_netlist();
        let cfg = AsicConfig::default();
        let r = synthesize_asic(&rca, &cfg);
        let c = synthesize_asic(&cla, &cfg);
        assert!(
            c.area_um2 / r.area_um2 > 2.0,
            "ratio {}",
            c.area_um2 / r.area_um2
        );
    }
}
