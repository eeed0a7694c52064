//! Per-circuit records and the feature extraction feeding the ML models.

use std::sync::Mutex;

use afp_asic::AsicReport;
use afp_circuits::{ArithCircuit, ArithKind};
use afp_error::{BlockPlan, BlockSums, ErrorMetrics};
use afp_fpga::FpgaReport;
use afp_netlist::analyze::NetlistStats;
use afp_netlist::{GateKind, NetlistBatch, SimScratch};
use afp_runtime::{Counters, Runtime};

use crate::cache::CachedCharacterization;

/// The FPGA parameter a model estimates (the paper's three targets).
// Safe total order (`Eq + Ord`, no float keys): the clippy.toml
// `partial_cmp` ban fires inside the derive expansion, not here.
#[allow(clippy::disallowed_methods)]
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FpgaParam {
    /// Critical-path delay in ns.
    Latency,
    /// Total power in mW.
    Power,
    /// Area as #LUTs.
    Area,
}

impl FpgaParam {
    /// All targets in paper order.
    pub const ALL: [FpgaParam; 3] = [FpgaParam::Latency, FpgaParam::Power, FpgaParam::Area];

    /// Extract this parameter from an FPGA report.
    pub fn of(&self, report: &FpgaReport) -> f64 {
        match self {
            FpgaParam::Latency => report.delay_ns,
            FpgaParam::Power => report.power_mw,
            FpgaParam::Area => report.luts as f64,
        }
    }

    /// Human-readable label with unit.
    pub fn label(&self) -> &'static str {
        match self {
            FpgaParam::Latency => "latency [ns]",
            FpgaParam::Power => "power [mW]",
            FpgaParam::Area => "area [#LUTs]",
        }
    }
}

impl std::fmt::Display for FpgaParam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything the flow knows about one circuit in the library.
///
/// `F` is the FPGA half. Characterization fills it with the ground-truth
/// [`FpgaReport`]; the exploration method sees `CircuitRecord<()>`, so it
/// can only learn an FPGA cost by synthesizing through the flow's oracle.
#[derive(Clone, Debug)]
pub struct CircuitRecord<F = FpgaReport> {
    /// Dense index within the library.
    pub id: usize,
    /// Circuit name.
    pub name: String,
    /// Adder or multiplier.
    pub kind: ArithKind,
    /// Operand width.
    pub width: usize,
    /// Device-profile identity the FPGA report was synthesized for (see
    /// [`afp_fpga::target`]). Records from different fabrics carry
    /// different names, so cross-target experiments can never mix up
    /// whose ground truth is whose.
    pub target: String,
    /// Structural statistics of the (simplified) netlist.
    pub stats: NetlistStats,
    /// ASIC synthesis report (cheap; known for every circuit).
    pub asic: AsicReport,
    /// Behavioural error metrics (cheap; known for every circuit).
    pub error: ErrorMetrics,
    /// FPGA report — in the real flow this is only known once the circuit
    /// has been synthesized. The reproduction stores the ground truth here;
    /// the flow hands it to its method only through the oracle, which
    /// accounts which entries were "paid" for.
    pub fpga: F,
}

impl<F> CircuitRecord<F> {
    /// This record with its FPGA half replaced by `fpga`, and the old half.
    pub(crate) fn replace_fpga<G>(self, fpga: G) -> (CircuitRecord<G>, F) {
        let record = CircuitRecord {
            id: self.id,
            name: self.name,
            kind: self.kind,
            width: self.width,
            target: self.target,
            stats: self.stats,
            asic: self.asic,
            error: self.error,
            fpga,
        };
        (record, self.fpga)
    }
}

impl CircuitRecord {
    /// The value of `param` from the (ground-truth) FPGA report.
    pub fn fpga_param(&self, param: FpgaParam) -> f64 {
        param.of(&self.fpga)
    }
}

/// Describes the feature vector layout produced by [`extract_features`].
#[derive(Clone, Debug)]
pub struct FeatureLayout {
    names: Vec<&'static str>,
    asic_power: usize,
    asic_latency: usize,
    asic_area: usize,
}

impl FeatureLayout {
    /// The fixed layout used by this reproduction.
    pub fn standard() -> FeatureLayout {
        let mut names: Vec<&'static str> = vec![
            "width",
            "inputs",
            "outputs",
            "gates",
            "depth",
            "mean_fanout",
            "max_fanout",
        ];
        // One count per logic gate kind, fixed order.
        for kind in GateKind::LOGIC {
            names.push(kind_feature_name(kind));
        }
        let asic_area = names.len();
        names.push("asic_area_um2");
        let asic_latency = names.len();
        names.push("asic_delay_ns");
        let asic_power = names.len();
        names.push("asic_power_mw");
        FeatureLayout {
            names,
            asic_power,
            asic_latency,
            asic_area,
        }
    }

    /// Feature names, in column order.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Number of feature columns.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the layout is empty (never true for [`standard`]).
    ///
    /// [`standard`]: FeatureLayout::standard
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Column indices of the ASIC parameters, for ML1–ML3.
    pub fn asic_columns(&self) -> afp_ml::zoo::AsicColumns {
        afp_ml::zoo::AsicColumns {
            power: self.asic_power,
            latency: self.asic_latency,
            area: self.asic_area,
        }
    }
}

fn kind_feature_name(kind: GateKind) -> &'static str {
    match kind {
        GateKind::Buf => "n_buf",
        GateKind::Not => "n_not",
        GateKind::And => "n_and",
        GateKind::Or => "n_or",
        GateKind::Xor => "n_xor",
        GateKind::Nand => "n_nand",
        GateKind::Nor => "n_nor",
        GateKind::Xnor => "n_xnor",
        GateKind::Mux => "n_mux",
        GateKind::Maj => "n_maj",
        GateKind::Input | GateKind::Const => "n_other",
    }
}

/// Extract the feature vector of one record under `layout`.
pub fn extract_features<F>(record: &CircuitRecord<F>, layout: &FeatureLayout) -> Vec<f64> {
    features_from_parts(record.width, &record.stats, &record.asic, layout)
}

/// Build the feature vector directly from its ingredients — operand
/// width, netlist statistics and the ASIC report. [`extract_features`]
/// is this on a full [`CircuitRecord`]; serving's estimate fast path
/// calls it without ever assembling one (no FPGA synthesis, no error
/// analysis).
pub fn features_from_parts(
    width: usize,
    s: &NetlistStats,
    asic: &AsicReport,
    layout: &FeatureLayout,
) -> Vec<f64> {
    let mut f = Vec::with_capacity(layout.len());
    f.push(width as f64);
    f.push(s.inputs as f64);
    f.push(s.outputs as f64);
    f.push(s.gates as f64);
    f.push(s.depth as f64);
    f.push(s.mean_fanout);
    f.push(s.max_fanout as f64);
    for kind in GateKind::LOGIC {
        f.push(*s.kind_counts.get(&kind).unwrap_or(&0) as f64);
    }
    f.push(asic.area_um2);
    f.push(asic.delay_ns);
    f.push(asic.power_mw);
    debug_assert_eq!(f.len(), layout.len());
    f
}

/// Feature vector for the model-estimate fast path: netlist statistics
/// plus a direct ASIC synthesis, *without* touching any runtime counters
/// or the characterization cache. The ASIC report here is bit-identical
/// to what [`characterize`] would produce — same netlist, same config —
/// so estimates from a persisted zoo match estimates computed in the
/// training process exactly.
pub fn estimate_features(
    circuit: &ArithCircuit,
    asic_config: &afp_asic::AsicConfig,
    layout: &FeatureLayout,
) -> Vec<f64> {
    let netlist = circuit.netlist();
    let stats = afp_netlist::analyze::stats(netlist);
    let asic =
        afp_asic::synthesize_asic_with(netlist, asic_config, &mut afp_asic::AsicScratch::new());
    features_from_parts(circuit.width(), &stats, &asic, layout)
}

/// Characterize one circuit: simplify, gather stats, ASIC report, error
/// metrics and the (ground-truth) FPGA report.
pub fn characterize(
    id: usize,
    circuit: &ArithCircuit,
    asic_config: &afp_asic::AsicConfig,
    fpga_config: &afp_fpga::FpgaConfig,
    error_config: &afp_error::ErrorConfig,
) -> CircuitRecord {
    let config = crate::RequestConfig {
        asic: asic_config.clone(),
        fpga: fpga_config.clone(),
        error: error_config.clone(),
    };
    let record = crate::characterize_request(
        circuit,
        &config,
        &afp_runtime::Runtime::serial(),
        None,
        &mut CharacterizeScratch::default(),
    );
    CircuitRecord { id, ..record }
}

/// Per-worker scratch state for sweeping a library through
/// [`crate::characterize_request`] or simulation batches: a warm FPGA mapper
/// (cut arenas, simulator buffers), ASIC buffers and signal-probability
/// buffers. One of these per worker thread makes the whole
/// characterization loop allocation-free in steady state; results are
/// bit-identical to fresh-state calls.
#[derive(Debug, Default)]
pub struct CharacterizeScratch {
    mapper: afp_fpga::Mapper,
    asic: afp_asic::AsicScratch,
    /// The simulator both power models' sweeps run on, one at a time.
    sim: SimScratch,
    asic_probs: Probs,
    fpga_probs: Probs,
}

/// One power model's signal-probability buffers.
#[derive(Debug, Default)]
struct Probs {
    /// The model's signal probabilities on the current batch's DAG.
    dag: Vec<f64>,
    /// One member's signal probabilities, gathered from the DAG's.
    member: Vec<f64>,
}

impl Probs {
    /// Estimate the probabilities on `batch`'s DAG for one model's
    /// stimulus on `sim`, then hand each member's share to `synth` in
    /// member order.
    fn per_member<R>(
        &mut self,
        sim: &Mutex<&mut SimScratch>,
        batch: &NetlistBatch,
        members: &[&ArithCircuit],
        (passes, seed): (usize, u64),
        mut synth: impl FnMut(&ArithCircuit, &[f64]) -> R,
    ) -> Vec<R> {
        sim.lock()
            .expect("simulator poisoned")
            .signal_probabilities(batch.dag(), passes, seed, &mut self.dag);
        members
            .iter()
            .enumerate()
            .map(|(m, circuit)| synth(circuit, batch.gather(m, &self.dag, &mut self.member)))
            .collect()
    }
}

/// A circuit's record from its statistics and reports.
pub(crate) fn assemble_record(
    id: usize,
    circuit: &ArithCircuit,
    fpga_config: &afp_fpga::FpgaConfig,
    stats: NetlistStats,
    reports: CachedCharacterization,
) -> CircuitRecord {
    CircuitRecord {
        id,
        name: circuit.name().to_string(),
        kind: circuit.kind(),
        width: circuit.width(),
        target: fpga_config.target.clone(),
        stats,
        asic: reports.asic,
        error: reports.error,
        fpga: reports.fpga,
    }
}

/// Compute the reports of the circuits of one simulation batch (see
/// [`afp_circuits::plan_batches`]), in order, each bit-identical to
/// characterizing that circuit alone, and count the work on the
/// runtime's counters.
///
/// The batch is one job list for [`Runtime::par_map_init`]: the FPGA
/// half (the FPGA power model's probability sweep on the batch's DAG,
/// then each member's LUT mapping on its gathered share), the ASIC half
/// (likewise) and the error analysis's lane blocks. Called outside a
/// pool worker on a runtime of several threads, the jobs run on those
/// threads and stealing keeps each busy until both halves and every
/// block are done; on one thread or inside a worker they run inline, in
/// list order. The blocks' sums merge in block order, so the reports do
/// not depend on where or when a job ran.
pub(crate) fn characterize_batch(
    members: &[&ArithCircuit],
    asic_config: &afp_asic::AsicConfig,
    fpga_config: &afp_fpga::FpgaConfig,
    error_config: &afp_error::ErrorConfig,
    rt: &Runtime,
    scratch: &mut CharacterizeScratch,
) -> Vec<CachedCharacterization> {
    let batch = afp_circuits::simulation_batch(members);
    let counters = rt.counters();
    let n = members.len() as u64;
    Counters::add(&counters.asic_synths, n);
    Counters::add(&counters.fpga_synths, n);
    Counters::add(&counters.error_analyses, n);
    Counters::add(&counters.sim_nodes_shared, batch.shared_nodes());
    let plan = BlockPlan::new(members[0].kind(), members[0].width(), &batch, error_config);

    // Each half takes its share of the caller's scratch, which only its
    // own job locks. The halves share the simulator, held for a sweep.
    let CharacterizeScratch {
        mapper,
        asic,
        sim,
        asic_probs,
        fpga_probs,
    } = scratch;
    let sim = Mutex::new(sim);
    let fpga_half = Mutex::new((mapper, fpga_probs));
    let asic_half = Mutex::new((asic, asic_probs));
    let jobs: Vec<Job> = [Job::Fpga, Job::Asic]
        .into_iter()
        .chain((0..plan.blocks()).map(Job::Block))
        .collect();
    let done = rt.par_map_init(
        &jobs,
        || None,
        |block_scratch, _, job| match *job {
            Job::Fpga => {
                let mut half = fpga_half.lock().expect("FPGA scratch poisoned");
                let (mapper, probs) = &mut *half;
                let model = (fpga_config.activity_passes, fpga_config.seed);
                Done::Fpga(
                    probs.per_member(&sim, &batch, members, model, |circuit, probs| {
                        let fpga =
                            mapper.synthesize_from_probs(circuit.netlist(), fpga_config, probs);
                        let st = mapper.take_stats();
                        Counters::add(&counters.cuts_merged, st.cuts_merged);
                        Counters::add(&counters.cuts_sig_rejected, st.cuts_sig_rejected);
                        Counters::add(&counters.cuts_dominance_pruned, st.cuts_dominance_pruned);
                        Counters::add(&counters.mapper_reuses, st.mapper_reuses);
                        fpga
                    }),
                )
            }
            Job::Asic => {
                let mut half = asic_half.lock().expect("ASIC scratch poisoned");
                let (asic, probs) = &mut *half;
                let model = (asic_config.activity_passes, asic_config.seed);
                Done::Asic(
                    probs.per_member(&sim, &batch, members, model, |circuit, probs| {
                        afp_asic::synthesize_asic_from_probs(
                            circuit.netlist(),
                            asic_config,
                            asic,
                            probs,
                        )
                    }),
                )
            }
            Job::Block(block) => {
                let block_scratch = block_scratch.get_or_insert_with(|| plan.scratch());
                Done::Block(plan.block(block_scratch, block, counters))
            }
        },
    );

    let mut done = done.into_iter();
    let (Some(Done::Fpga(fpga)), Some(Done::Asic(asic))) = (done.next(), done.next()) else {
        unreachable!("the synthesis jobs lead the list");
    };
    let errors = plan.merge(done.map(|block| match block {
        Done::Block(sums) => sums,
        _ => unreachable!("only blocks follow the synthesis jobs"),
    }));
    asic.into_iter()
        .zip(errors)
        .zip(fpga)
        .map(|((asic, error), fpga)| CachedCharacterization { asic, error, fpga })
        .collect()
}

/// One job of [`characterize_batch`].
enum Job {
    Fpga,
    Asic,
    Block(usize),
}

/// What a [`Job`] produced.
enum Done {
    Fpga(Vec<FpgaReport>),
    Asic(Vec<AsicReport>),
    Block(BlockSums),
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuits::adders;

    fn sample_record() -> CircuitRecord {
        let c = adders::loa(8, 3);
        characterize(
            0,
            &c,
            &afp_asic::AsicConfig::default(),
            &afp_fpga::FpgaConfig::default(),
            &afp_error::ErrorConfig::default(),
        )
    }

    #[test]
    fn layout_is_consistent_with_extraction() {
        let layout = FeatureLayout::standard();
        let rec = sample_record();
        let f = extract_features(&rec, &layout);
        assert_eq!(f.len(), layout.len());
        assert!(!layout.is_empty());
        // Spot-check designated ASIC columns.
        let cols = layout.asic_columns();
        assert_eq!(f[cols.power], rec.asic.power_mw);
        assert_eq!(f[cols.latency], rec.asic.delay_ns);
        assert_eq!(f[cols.area], rec.asic.area_um2);
        assert_eq!(layout.names()[cols.power], "asic_power_mw");
    }

    #[test]
    fn fpga_param_extraction() {
        let rec = sample_record();
        assert_eq!(rec.fpga_param(FpgaParam::Area), rec.fpga.luts as f64);
        assert_eq!(rec.fpga_param(FpgaParam::Latency), rec.fpga.delay_ns);
        assert_eq!(rec.fpga_param(FpgaParam::Power), rec.fpga.power_mw);
    }

    #[test]
    fn characterize_fills_everything() {
        let rec = sample_record();
        assert!(rec.stats.gates > 0);
        assert!(rec.asic.area_um2 > 0.0);
        assert!(rec.error.med > 0.0);
        assert!(rec.fpga.luts > 0);
        assert_eq!(rec.width, 8);
        assert_eq!(rec.target, afp_fpga::DEFAULT_TARGET);
    }

    #[test]
    fn records_carry_the_configured_target_identity() {
        let c = adders::loa(8, 3);
        let profile = afp_fpga::target::named("lut4-ice40").unwrap();
        let rec = characterize(
            0,
            &c,
            &afp_asic::AsicConfig::default(),
            &profile.config(),
            &afp_error::ErrorConfig::default(),
        );
        assert_eq!(rec.target, "lut4-ice40");
    }

    /// The store encoding of `reports`: every field's raw bits or an
    /// exact reconstruction of them, so equal bytes mean bit-equal reports.
    fn report_bytes(reports: &[CachedCharacterization]) -> Vec<u8> {
        use afp_store::BinRecord;
        let mut out = Vec::new();
        for r in reports {
            r.encode(&mut out);
        }
        out
    }

    #[test]
    fn batches_are_bit_identical_on_any_runtime_inside_or_outside_a_worker() {
        use afp_circuits::{build_library, LibrarySpec};
        let (asic, fpga) = (
            afp_asic::AsicConfig::default(),
            afp_fpga::FpgaConfig::default(),
        );
        // Three sampled blocks for the 16-bit libraries, the last one
        // partial, to keep debug runs short.
        let error = afp_error::ErrorConfig {
            samples: 10_000,
            ..afp_error::ErrorConfig::default()
        };
        let characterize = |members: &[&ArithCircuit], rt: &Runtime| {
            characterize_batch(members, &asic, &fpga, &error, rt, &mut Default::default())
        };
        for (kind, width) in [
            (ArithKind::Adder, 8),
            (ArithKind::Multiplier, 8),
            (ArithKind::Adder, 16),
            (ArithKind::Multiplier, 16),
        ] {
            let library = build_library(&LibrarySpec::new(kind, width, 3));
            let alone: Vec<CachedCharacterization> = library
                .iter()
                .map(|c| characterize(&[c], &Runtime::serial())[0])
                .collect();
            for n in 1..=library.len() {
                let members: Vec<&ArithCircuit> = library[..n].iter().collect();
                let want = report_bytes(&alone[..n]);
                for threads in [1, 2, 4, 8] {
                    let rt = Runtime::new(threads);
                    let outside = characterize(&members, &rt);
                    assert_eq!(
                        report_bytes(&outside),
                        want,
                        "{kind:?}{width} n={n} t={threads}"
                    );
                    // Two items, so each runs on a pool worker when the
                    // runtime has more than one thread.
                    for inside in rt.par_map(&[0, 1], |_, _| characterize(&members, &rt)) {
                        assert_eq!(
                            report_bytes(&inside),
                            want,
                            "{kind:?}{width} n={n} t={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn param_labels() {
        assert_eq!(FpgaParam::Area.label(), "area [#LUTs]");
        assert_eq!(FpgaParam::ALL.len(), 3);
        assert_eq!(format!("{}", FpgaParam::Power), "power [mW]");
    }
}
