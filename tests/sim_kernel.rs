//! Simulation-kernel and error-analysis equivalence suite.
//!
//! The compiled-tape / wide-lane kernel replaced the per-gate interpreter
//! as the simulation hot path, and the error analysis accumulates whole
//! slices of results instead of one pair at a time. These tests pin both
//! swaps: property tests proving the tape (scalar and wide) is
//! bit-identical to the per-gate reference interpreter defined here on
//! random netlists over every gate kind; golden `ErrorMetrics` that must
//! not move by a single bit; a differential oracle — the reference
//! interpreter feeding the original per-pair accumulator — checked on
//! library circuits of every paper kind/width; and the signal-probability
//! estimate pinned the same way. If a deliberate kernel change moves the
//! goldens, re-capture them and say why in the commit message.
//!
//! Shard-batched simulation analyzes many circuits on one hash-consed
//! DAG. The per-circuit analysis it replaced is kept below as its
//! oracle, and random batches must match it bit for bit, along with each
//! member's own signal probabilities.

use approxfpgas_suite::circuits::{
    adders, build_library, multipliers, paper_full_specs, plan_batches, simulation_batch,
    ArithCircuit, ArithKind, BatchEvaluator, LibrarySpec,
};
use approxfpgas_suite::error::{
    analyze, analyze_batch, analyze_with, stratified_pairs, ErrorConfig, ErrorMetrics,
};
use approxfpgas_suite::netlist::{
    pack_operand, unpack_result, Gate, NetId, Netlist, SimScratch, SimTape, Simulator, LANES,
    LANE_WORDS, SIM_BATCH_NODES,
};
use approxfpgas_suite::runtime::Runtime;
use proptest::prelude::*;

/// The per-gate reference interpreter: one 64-lane pass evaluated by
/// matching on [`Gate`] directly, with no tape compilation. Every
/// production path runs [`SimTape`]; this is the differential baseline.
fn eval_pass_reference(netlist: &Netlist, input_words: &[u64], values: &mut Vec<u64>) {
    assert_eq!(input_words.len(), netlist.num_inputs());
    values.clear();
    values.resize(netlist.len(), 0);
    for (i, gate) in netlist.gates().iter().enumerate() {
        let v = match *gate {
            Gate::Input(ord) => input_words[ord as usize],
            Gate::Const(c) => {
                if c {
                    u64::MAX
                } else {
                    0
                }
            }
            Gate::Buf(a) => values[a.index()],
            Gate::Not(a) => !values[a.index()],
            Gate::And(a, b) => values[a.index()] & values[b.index()],
            Gate::Or(a, b) => values[a.index()] | values[b.index()],
            Gate::Xor(a, b) => values[a.index()] ^ values[b.index()],
            Gate::Nand(a, b) => !(values[a.index()] & values[b.index()]),
            Gate::Nor(a, b) => !(values[a.index()] | values[b.index()]),
            Gate::Xnor(a, b) => !(values[a.index()] ^ values[b.index()]),
            Gate::Mux(s, a, b) => {
                let sv = values[s.index()];
                (values[a.index()] & !sv) | (values[b.index()] & sv)
            }
            Gate::Maj(a, b, c) => {
                let (av, bv, cv) = (values[a.index()], values[b.index()], values[c.index()]);
                (av & bv) | (av & cv) | (bv & cv)
            }
        };
        values[i] = v;
    }
}

/// Bit patterns of one circuit's `ErrorMetrics` (`wce_rel` follows from
/// `wce`). The first three were captured with the pre-tape interpreter
/// kernel, the other three with the per-pair accumulator before the
/// slice-at-a-time error analysis.
struct ErrorGolden {
    samples: u64,
    exhaustive: bool,
    med: u64,
    mae: u64,
    wce: u64,
    mre: u64,
    error_prob: u64,
    mse: u64,
    bias: u64,
}

fn assert_matches_golden(m: &ErrorMetrics, g: &ErrorGolden, who: &str) {
    assert_eq!(m.samples, g.samples, "{who}: samples");
    assert_eq!(m.exhaustive, g.exhaustive, "{who}: exhaustive");
    assert_eq!(m.med.to_bits(), g.med, "{who}: med");
    assert_eq!(m.mae.to_bits(), g.mae, "{who}: mae");
    assert_eq!(m.wce, g.wce, "{who}: wce");
    assert_eq!(m.mre.to_bits(), g.mre, "{who}: mre");
    assert_eq!(m.error_prob.to_bits(), g.error_prob, "{who}: error_prob");
    assert_eq!(m.mse.to_bits(), g.mse, "{who}: mse");
    assert_eq!(m.bias.to_bits(), g.bias, "{who}: bias");
}

fn golden_cases() -> Vec<(ArithCircuit, ErrorGolden)> {
    vec![
        // Exhaustive adder path.
        (
            adders::loa(8, 4),
            ErrorGolden {
                samples: 65536,
                exhaustive: true,
                med: 0x3f770b85c2e170b8,
                mae: 0x4007000000000000,
                wce: 8,
                mre: 0x3f8e7caa01111ce3,
                error_prob: 0x3fe5e00000000000,
                mse: 0x4030000000000000,
                bias: 0x3fd0000000000000,
            },
        ),
        // Exhaustive multiplier path (16 output bits, widest unpack).
        (
            multipliers::broken_array(8, 6, 2),
            ErrorGolden {
                samples: 65536,
                exhaustive: true,
                med: 0x3f66081608160816,
                mae: 0x4066080000000000,
                wce: 705,
                mre: 0x3fa64761d16ad860,
                error_prob: 0x3fee600000000000,
                mse: 0x40e755c800000000,
                bias: 0xc066080000000000,
            },
        ),
        // Sampled (stratified) path for wide operands.
        (
            adders::loa(16, 8),
            ErrorGolden {
                samples: 65540,
                exhaustive: false,
                med: 0x3f38056bed364c9a,
                mae: 0x4048055fea8055ff,
                wce: 128,
                mre: 0x3f5ea174112559b2,
                error_prob: 0x3fecd16cba4d16cc,
                mse: 0x40b00e15afa9415b,
                bias: 0x3fceb8851deb8852,
            },
        ),
        // Sampled multiplier, 24 output bits (F = 32 unpack, u128 sums).
        (
            multipliers::truncated(12, 8),
            ErrorGolden {
                samples: 65540,
                exhaustive: false,
                med: 0x3efdcd24a93af6f2,
                mae: 0x407dcd248b6dd249,
                wce: 1793,
                mre: 0x3f836fbc92ad68a3,
                error_prob: 0x3fef65626a765627,
                mse: 0x4112618473fe3007,
                bias: 0xc07dcd248b6dd249,
            },
        ),
        // Sampled multiplier, 32 output bits: F = 32 pack and unpack,
        // squared errors beyond 2^32.
        (
            multipliers::broken_array(16, 12, 3),
            ErrorGolden {
                samples: 65540,
                exhaustive: false,
                med: 0x3ee095623207cd85,
                mae: 0x40e0956231f73823,
                wce: 131073,
                mre: 0x3f7101b1c61781fd,
                error_prob: 0x3fefec404efec405,
                mse: 0x41de4286d940bbfd,
                bias: 0xc0e0956231f73823,
            },
        ),
        // Exhaustive adder with an error on nearly every pair: the
        // relative-error chain adds a term for almost every pair.
        (
            adders::truncated(8, 8),
            ErrorGolden {
                samples: 65536,
                exhaustive: true,
                med: 0x3fdfeff7fbfdfeff,
                mae: 0x406fe00000000000,
                wce: 510,
                mre: 0x3ff0000000000000,
                error_prob: 0x3fefffe000000000,
                mse: 0x40f28ab800000000,
                bias: 0xc06fe00000000000,
            },
        ),
    ]
}

#[test]
fn error_metrics_match_pre_tape_goldens_bit_exactly() {
    let cfg = ErrorConfig::default();
    for (circuit, golden) in &golden_cases() {
        let m = analyze(circuit, &cfg);
        assert_matches_golden(&m, golden, circuit.name());
    }
}

#[test]
fn error_metrics_goldens_hold_on_eight_threads() {
    let cfg = ErrorConfig::default();
    for (circuit, golden) in &golden_cases() {
        let m = analyze_with(circuit, &cfg, &Runtime::new(8));
        assert_matches_golden(&m, golden, circuit.name());
    }
}

/// Pairs per block of `afp_error`'s partition; the relative-error sum is
/// a float chain, so the oracle must partition exactly the same way.
const BLOCK_PAIRS: usize = 4096;

/// The original per-pair accumulator, kept verbatim as the oracle.
struct Accumulator {
    max_out: f64,
    n: u64,
    sum_abs: u128,
    sum_signed: i128,
    sum_sq: u128,
    wce: u64,
    nonzero: u64,
    sum_rel: f64,
    rel_n: u64,
}

impl Accumulator {
    fn new(max_out: f64) -> Accumulator {
        Accumulator {
            max_out,
            n: 0,
            sum_abs: 0,
            sum_signed: 0,
            sum_sq: 0,
            wce: 0,
            nonzero: 0,
            sum_rel: 0.0,
            rel_n: 0,
        }
    }

    fn push(&mut self, exact: u64, got: u64) {
        let err = got as i64 - exact as i64;
        let abs = err.unsigned_abs();
        self.n += 1;
        self.sum_abs += abs as u128;
        self.sum_signed += err as i128;
        self.sum_sq += (abs as u128) * (abs as u128);
        self.wce = self.wce.max(abs);
        if abs != 0 {
            self.nonzero += 1;
        }
        if exact != 0 {
            self.sum_rel += abs as f64 / exact as f64;
            self.rel_n += 1;
        }
    }

    fn merge(&mut self, other: &Accumulator) {
        self.n += other.n;
        self.sum_abs += other.sum_abs;
        self.sum_signed += other.sum_signed;
        self.sum_sq += other.sum_sq;
        self.wce = self.wce.max(other.wce);
        self.nonzero += other.nonzero;
        self.sum_rel += other.sum_rel;
        self.rel_n += other.rel_n;
    }

    fn finish(self, exhaustive: bool) -> ErrorMetrics {
        let n = self.n.max(1) as f64;
        ErrorMetrics {
            samples: self.n,
            exhaustive,
            med: self.sum_abs as f64 / n / self.max_out,
            mae: self.sum_abs as f64 / n,
            wce: self.wce,
            wce_rel: self.wce as f64 / self.max_out,
            mre: self.sum_rel / self.rel_n.max(1) as f64,
            error_prob: self.nonzero as f64 / n,
            mse: self.sum_sq as f64 / n,
            bias: self.sum_signed as f64 / n,
        }
    }
}

/// Error analysis as the original kernel defined it: the same block
/// partition, each 64-pair chunk packed lane by lane and evaluated by one
/// reference-interpreter pass, results extracted lane by lane and pushed
/// pair by pair, blocks merged in order.
fn oracle_analyze(circuit: &ArithCircuit, config: &ErrorConfig) -> ErrorMetrics {
    let w = circuit.width();
    let mask = (1u64 << w) - 1;
    let exhaustive = 2 * w <= config.max_exhaustive_bits;
    let blocks: Vec<Vec<(u64, u64)>> = if exhaustive {
        let pairs: Vec<(u64, u64)> = (0..=mask)
            .flat_map(|a| (0..=mask).map(move |b| (a, b)))
            .collect();
        let rows_per_block = (BLOCK_PAIRS >> w).max(1);
        pairs
            .chunks(rows_per_block << w)
            .map(|b| b.to_vec())
            .collect()
    } else {
        stratified_pairs(w, config.samples, config.seed)
            .chunks(BLOCK_PAIRS)
            .map(|b| b.to_vec())
            .collect()
    };
    let netlist = circuit.netlist();
    let outputs: Vec<usize> = netlist.outputs().iter().map(|o| o.index()).collect();
    let max_out = circuit.kind().max_output(w) as f64;
    let mut total = Accumulator::new(max_out);
    let mut words = vec![0u64; netlist.num_inputs()];
    let mut values = Vec::new();
    for block in &blocks {
        let mut acc = Accumulator::new(max_out);
        for chunk in block.chunks(64) {
            for (lane, &(a, b)) in chunk.iter().enumerate() {
                pack_operand(&mut words, 0, w, lane, a);
                pack_operand(&mut words, w, w, lane, b);
            }
            eval_pass_reference(netlist, &words, &mut values);
            let out_words: Vec<u64> = outputs.iter().map(|&o| values[o]).collect();
            for (lane, &(a, b)) in chunk.iter().enumerate() {
                acc.push(circuit.exact(a, b), unpack_result(&out_words, lane));
            }
        }
        total.merge(&acc);
    }
    total.finish(exhaustive)
}

/// All ten `ErrorMetrics` fields as exact bit patterns.
fn metric_bits(m: &ErrorMetrics) -> [u64; 10] {
    [
        m.samples,
        m.exhaustive as u64,
        m.med.to_bits(),
        m.mae.to_bits(),
        m.wce,
        m.wce_rel.to_bits(),
        m.mre.to_bits(),
        m.error_prob.to_bits(),
        m.mse.to_bits(),
        m.bias.to_bits(),
    ]
}

#[test]
fn error_analysis_matches_the_per_pair_oracle_on_every_paper_corner() {
    // Four circuits spread over a 60-circuit library of each paper
    // kind/width corner (the exact baseline plus structured approximations
    // with errors from a few units to ~2^26): add8/mul8 exhaustive,
    // add12/add16/mul12/mul16 sampled.
    let cfg = ErrorConfig::default();
    for spec in paper_full_specs(1.0) {
        let lib = build_library(&LibrarySpec::new(spec.kind, spec.width, 60));
        assert!(
            lib.len() >= 4,
            "{}{}: library too small",
            spec.kind,
            spec.width
        );
        let mut inexact = 0;
        for circuit in lib.iter().step_by(lib.len() / 4).take(4) {
            let oracle = oracle_analyze(circuit, &cfg);
            inexact += !oracle.is_exact() as usize;
            let want = metric_bits(&oracle);
            for threads in [1, 4] {
                let got = analyze_with(circuit, &cfg, &Runtime::new(threads));
                assert_eq!(
                    metric_bits(&got),
                    want,
                    "{} at {threads} threads: {got:?}",
                    circuit.name()
                );
            }
        }
        assert!(
            inexact >= 3,
            "{}{}: too few inexact circuits",
            spec.kind,
            spec.width
        );
    }
}

/// FNV-1a over f64 bit patterns.
fn fnv(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[test]
fn signal_probabilities_match_pre_tape_goldens_bit_exactly() {
    // Captured with the pre-tape kernel at the ASIC model's default
    // stimulus parameters (32 passes, seed 0xA51C).
    let m = multipliers::wallace_multiplier(8);
    let mut sim = Simulator::new(m.netlist());
    let probs = sim.signal_probabilities(32, 0xA51C);
    assert_eq!(probs.len(), 270);
    assert_eq!(probs[42].to_bits(), 0x3fd0b00000000000);
    assert_eq!(fnv(&probs), 0xbc46d058acf8cb51);

    // The reusable-scratch estimator agrees bit for bit.
    let mut scratch = SimScratch::new();
    let mut out = Vec::new();
    scratch.signal_probabilities(m.netlist(), 32, 0xA51C, &mut out);
    let a: Vec<u64> = probs.iter().map(|p| p.to_bits()).collect();
    let b: Vec<u64> = out.iter().map(|p| p.to_bits()).collect();
    assert_eq!(a, b);
}

#[test]
fn tape_matches_reference_on_const_folding_patterns() {
    // Every fold rule: gates fed by constants in each operand slot.
    let mut n = Netlist::new("folds");
    let x = n.add_input();
    let y = n.add_input();
    let one = n.constant(true);
    let zero = n.constant(false);
    let mut outs = Vec::new();
    for (a, b) in [
        (x, one),
        (x, zero),
        (one, x),
        (zero, x),
        (one, zero),
        (one, one),
    ] {
        outs.push(n.and(a, b));
        outs.push(n.or(a, b));
        outs.push(n.xor(a, b));
        outs.push(n.nand(a, b));
        outs.push(n.nor(a, b));
        outs.push(n.xnor(a, b));
    }
    for (s, a, b) in [
        (one, x, y),
        (zero, x, y),
        (x, one, y),
        (x, zero, y),
        (x, y, one),
        (x, y, zero),
        (x, one, zero),
        (x, zero, one),
        (x, one, one),
        (x, zero, zero),
        (one, zero, one),
    ] {
        outs.push(n.mux(s, a, b));
        outs.push(n.maj(s, a, b));
        outs.push(n.maj(a, s, b));
        outs.push(n.maj(a, b, s));
    }
    outs.push(n.buf(one));
    outs.push(n.not(zero));
    let b1 = n.buf(zero);
    outs.push(n.not(b1)); // fold through a folded buf
    n.set_outputs(outs);

    let inputs = [0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210];
    let mut reference = Vec::new();
    eval_pass_reference(&n, &inputs, &mut reference);
    let tape = SimTape::compile(&n);
    let mut values = Vec::new();
    tape.execute(&inputs, &mut values);
    assert_eq!(values, reference);
}

/// Build a random but well-formed netlist from flat generator choices:
/// every gate kind (including both constants, `Mux` and `Maj`), operands
/// drawn from all earlier nets so folding through constants gets
/// exercised. Each gate is `(kind, a, b, c)` with operand draws reduced
/// modulo the nets created so far.
fn build_netlist(n_inputs: usize, gates: &[(u8, usize, usize, usize)]) -> Netlist {
    let mut n = Netlist::new("random");
    let mut nets: Vec<NetId> = (0..n_inputs).map(|_| n.add_input()).collect();
    for &(kind, a, b, c) in gates {
        let pick = |raw: usize, nets: &[NetId]| nets[raw % nets.len()];
        let (x, y, z) = (pick(a, &nets), pick(b, &nets), pick(c, &nets));
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
    let outs: Vec<NetId> = nets.iter().rev().take(4).copied().collect();
    n.set_outputs(outs);
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The compiled tape — scalar and wide — is bit-identical to the
    /// per-gate reference interpreter on every net of random netlists.
    #[test]
    fn tape_kernels_match_the_reference_interpreter(
        n_inputs in 1usize..6,
        gates in prop::collection::vec(
            (0u8..12, 0usize..1 << 30, 0usize..1 << 30, 0usize..1 << 30),
            1..60,
        ),
        seed in 0u64..=u64::MAX,
    ) {
        let nl = build_netlist(n_inputs, &gates);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };

        // Scalar pass: one 64-lane word per input.
        let inputs: Vec<u64> = (0..nl.num_inputs()).map(|_| next()).collect();
        let mut reference = Vec::new();
        eval_pass_reference(&nl, &inputs, &mut reference);
        let tape = SimTape::compile(&nl);
        let mut scalar = Vec::new();
        tape.execute(&inputs, &mut scalar);
        prop_assert_eq!(&scalar, &reference, "scalar tape diverged");

        // Wide pass: every word column must equal an independent scalar
        // reference pass over that column's inputs.
        let wide_inputs: Vec<u64> =
            (0..nl.num_inputs() * LANE_WORDS).map(|_| next()).collect();
        let mut wide = Vec::new();
        tape.execute_wide(&wide_inputs, &mut wide);
        for j in 0..LANE_WORDS {
            let column: Vec<u64> = (0..nl.num_inputs())
                .map(|i| wide_inputs[i * LANE_WORDS + j])
                .collect();
            let mut column_ref = Vec::new();
            eval_pass_reference(&nl, &column, &mut column_ref);
            for net in 0..nl.len() {
                prop_assert_eq!(
                    wide[net * LANE_WORDS + j],
                    column_ref[net],
                    "wide tape diverged at net {} word {}",
                    net,
                    j
                );
            }
        }
    }
}

/// Integer type of a block's sums in the per-circuit oracle: `u64` for
/// outputs of at most 16 bits, `u128` otherwise.
trait OracleSum: Copy + Default + Send + std::ops::AddAssign + Into<u128> {
    fn of(x: u64) -> Self;
    fn square(x: u64) -> Self;
    fn float(x: u64) -> f64;
}

impl OracleSum for u64 {
    fn of(x: u64) -> u64 {
        x
    }

    fn square(x: u64) -> u64 {
        x * x
    }

    fn float(x: u64) -> f64 {
        x as i64 as f64
    }
}

impl OracleSum for u128 {
    fn of(x: u64) -> u128 {
        x as u128
    }

    fn square(x: u64) -> u128 {
        (x as u128) * (x as u128)
    }

    fn float(x: u64) -> f64 {
        x as f64
    }
}

/// One block's sums, accumulated slice by slice exactly as the
/// per-circuit analysis did before batching (the relative error only
/// summed over pairs with a non-zero error).
#[derive(Default)]
struct OracleSums<S> {
    n: u64,
    sum_abs: S,
    sum_neg: S,
    sum_sq: S,
    wce: u64,
    nonzero: u64,
    sum_rel: f64,
    rel_n: u64,
}

impl<S: OracleSum> OracleSums<S> {
    fn add(&mut self, exact: &[u64], got: &[u64]) {
        let (mut sum_abs, mut sum_neg, mut sum_sq) = (S::default(), S::default(), S::default());
        for (&e, &g) in exact.iter().zip(got) {
            let err = (g as i64).wrapping_sub(e as i64);
            let abs = err.unsigned_abs();
            sum_abs += S::of(abs);
            sum_neg += S::of(if err < 0 { abs } else { 0 });
            sum_sq += S::square(abs);
            self.wce = self.wce.max(abs);
            self.nonzero += (abs != 0) as u64;
            self.rel_n += (e != 0) as u64;
            if abs != 0 && e != 0 {
                self.sum_rel += S::float(abs) / S::float(e);
            }
        }
        self.n += got.len() as u64;
        self.sum_abs += sum_abs;
        self.sum_neg += sum_neg;
        self.sum_sq += sum_sq;
    }
}

/// The per-circuit analysis: the circuit's own tape, one block of
/// `BLOCK_PAIRS` pairs per task, results unpacked lane by lane block and
/// accumulated per slice, blocks merged in order.
fn per_circuit_analyze(circuit: &ArithCircuit, config: &ErrorConfig, rt: &Runtime) -> ErrorMetrics {
    let w = circuit.width();
    if circuit.kind().out_width(w) <= 16 {
        per_circuit_sums::<u64>(circuit, config, rt)
    } else {
        per_circuit_sums::<u128>(circuit, config, rt)
    }
}

fn per_circuit_sums<S: OracleSum>(
    circuit: &ArithCircuit,
    config: &ErrorConfig,
    rt: &Runtime,
) -> ErrorMetrics {
    let w = circuit.width();
    let mask = (1u64 << w) - 1;
    let exhaustive = 2 * w <= config.max_exhaustive_bits;
    let tape = SimTape::compile(circuit.netlist());
    let scratch = || {
        (
            BatchEvaluator::with_tape(circuit, &tape),
            Vec::with_capacity(LANES),
            Vec::with_capacity(LANES),
        )
    };
    let blocks: Vec<OracleSums<S>> = if exhaustive {
        let rows_per_block = (BLOCK_PAIRS >> w).max(1) as u64;
        let row_starts: Vec<u64> = (0..=mask).step_by(rows_per_block as usize).collect();
        rt.par_map_init(&row_starts, scratch, |(batch, got, exact), _, &a_start| {
            let mut sums = OracleSums::default();
            let end = ((a_start + rows_per_block - 1).min(mask) + 1) << w;
            let mut p = a_start << w;
            while p < end {
                let n = ((end - p) as usize).min(LANES);
                got.clear();
                exact.clear();
                batch.eval_exhaustive_block_into(p, n, got);
                exact.extend((p..p + n as u64).map(|q| circuit.exact(q >> w, q & mask)));
                sums.add(exact, got);
                p += n as u64;
            }
            sums
        })
    } else {
        let pairs = stratified_pairs(w, config.samples, config.seed);
        let blocks: Vec<&[(u64, u64)]> = pairs.chunks(BLOCK_PAIRS).collect();
        rt.par_map_init(&blocks, scratch, |(batch, got, exact), _, block| {
            let mut sums = OracleSums::default();
            for chunk in block.chunks(LANES) {
                got.clear();
                exact.clear();
                batch.eval_block_into(chunk, got);
                exact.extend(chunk.iter().map(|&(a, b)| circuit.exact(a, b)));
                sums.add(exact, got);
            }
            sums
        })
    };
    let mut total = OracleSums::<u128>::default();
    for b in &blocks {
        total.n += b.n;
        total.sum_abs += b.sum_abs.into();
        total.sum_neg += b.sum_neg.into();
        total.sum_sq += b.sum_sq.into();
        total.wce = total.wce.max(b.wce);
        total.nonzero += b.nonzero;
        total.sum_rel += b.sum_rel;
        total.rel_n += b.rel_n;
    }
    let max_out = circuit.kind().max_output(w) as f64;
    let n = total.n.max(1) as f64;
    let signed = total.sum_abs as i128 - 2 * total.sum_neg as i128;
    ErrorMetrics {
        samples: total.n,
        exhaustive,
        med: total.sum_abs as f64 / n / max_out,
        mae: total.sum_abs as f64 / n,
        wce: total.wce,
        wce_rel: total.wce as f64 / max_out,
        mre: total.sum_rel / total.rel_n.max(1) as f64,
        error_prob: total.nonzero as f64 / n,
        mse: total.sum_sq as f64 / n,
        bias: signed as f64 / n,
    }
}

/// xorshift64* draws for building batch members.
fn draws(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Append `gates` random gates of every kind (constants, `Mux` and `Maj`
/// included) over all earlier nets of `n`, and point each output at a
/// random net with probability 1/2 (the outputs stay in range for any
/// operand width, since the analysis reads only the output nets).
fn grow(n: &mut Netlist, gates: usize, next: &mut impl FnMut() -> u64) {
    for _ in 0..gates {
        let len = n.len() as u64;
        let mut pick = || NetId::from_index((next() % len) as usize);
        let (x, y, z) = (pick(), pick(), pick());
        let gate = match next() % 12 {
            0 => Gate::Const(false),
            1 => Gate::Const(true),
            2 => Gate::Buf(x),
            3 => Gate::Not(x),
            4 => Gate::And(x, y),
            5 => Gate::Or(x, y),
            6 => Gate::Xor(x, y),
            7 => Gate::Nand(x, y),
            8 => Gate::Nor(x, y),
            9 => Gate::Xnor(x, y),
            10 => Gate::Mux(x, y, z),
            _ => Gate::Maj(x, y, z),
        };
        n.add_gate(gate);
    }
    let len = n.len() as u64;
    let outputs: Vec<NetId> = n
        .outputs()
        .iter()
        .map(|&o| {
            if next().is_multiple_of(2) {
                o
            } else {
                NetId::from_index((next() % len) as usize)
            }
        })
        .collect();
    n.set_outputs(outputs);
}

/// One batch member from a recipe `(what, pick, size, seed)`: a library
/// circuit, a duplicate of an earlier member, a library circuit grown by
/// up to 60 random gates (its whole netlist is a shared subgraph), or a
/// random netlist of `size` gates over the operand inputs.
fn member(
    kind: ArithKind,
    width: usize,
    library: &[ArithCircuit],
    built: &[ArithCircuit],
    (what, pick, size, seed): (u8, usize, usize, u64),
) -> ArithCircuit {
    let mut next = draws(seed);
    let base = &library[pick % library.len()];
    match what % 4 {
        0 => base.clone(),
        1 if !built.is_empty() => built[pick % built.len()].clone(),
        2 => {
            let mut n = base.netlist().clone();
            grow(&mut n, size % 60, &mut next);
            ArithCircuit::new(kind, width, n)
        }
        _ => {
            let mut n = Netlist::new("random");
            n.add_inputs(2 * width);
            let outputs: Vec<NetId> = (0..kind.out_width(width))
                .map(|b| NetId::from_index(b % (2 * width)))
                .collect();
            n.set_outputs(outputs);
            grow(&mut n, size.max(1), &mut next);
            ArithCircuit::new(kind, width, n)
        }
    }
}

/// Check every batch of `circuits` against the per-circuit oracle at 1,
/// 2, 4 and 8 threads, and each member's gathered signal probabilities
/// against its own estimate. Returns each batch's member count.
fn check_batches(circuits: &[ArithCircuit], config: &ErrorConfig) -> Vec<usize> {
    let oracle: Vec<[u64; 10]> = circuits
        .iter()
        .map(|c| metric_bits(&per_circuit_analyze(c, config, &Runtime::serial())))
        .collect();
    let mut batches = Vec::new();
    let mut scratch = SimScratch::new();
    let (mut dag, mut own, mut buf) = (Vec::new(), Vec::new(), Vec::new());
    for members in plan_batches(circuits) {
        batches.push(members.len());
        let c0 = &circuits[members[0]];
        let batch = simulation_batch(&members.iter().map(|&m| &circuits[m]).collect::<Vec<_>>());
        if batch.len() > 1 {
            assert!(batch.dag().len() <= SIM_BATCH_NODES, "batch over budget");
        }
        for threads in [1, 2, 4, 8] {
            let got = analyze_batch(
                c0.kind(),
                c0.width(),
                &batch,
                config,
                &Runtime::new(threads),
            );
            assert_eq!(got.len(), members.len());
            for (m, metrics) in members.iter().zip(&got) {
                assert_eq!(
                    metric_bits(metrics),
                    oracle[*m],
                    "member {m} at {threads} threads: {metrics:?}"
                );
            }
        }
        for (passes, seed) in [(32, 0xA51C), (9, 0xF96A)] {
            scratch.signal_probabilities(batch.dag(), passes, seed, &mut dag);
            for (i, &m) in members.iter().enumerate() {
                scratch.signal_probabilities(circuits[m].netlist(), passes, seed, &mut own);
                let gathered = batch.gather(i, &dag, &mut buf);
                let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(gathered), bits(&own), "member {m} probabilities");
            }
        }
    }
    batches
}

/// Default analysis, with fewer stratified samples (three blocks, the
/// last one and its last lane block partial) to keep debug runs short.
fn batch_config() -> ErrorConfig {
    ErrorConfig {
        samples: 10_000,
        ..ErrorConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random batches of library circuits, duplicates, grown mutants and
    /// random netlists — exhaustive 8-bit and sampled 12/16-bit — give
    /// every member the per-circuit oracle's metrics bit for bit.
    #[test]
    fn batched_analysis_matches_the_per_circuit_oracle(
        kind in 0u8..2,
        width in 0usize..3,
        recipes in prop::collection::vec(
            (0u8..4, 0usize..1 << 20, 0usize..1200, 0u64..=u64::MAX),
            1..10,
        ),
    ) {
        let kind = if kind == 0 { ArithKind::Adder } else { ArithKind::Multiplier };
        let width = [8, 12, 16][width];
        let library = build_library(&LibrarySpec::new(kind, width, 12));
        let mut circuits: Vec<ArithCircuit> = Vec::new();
        for &recipe in &recipes {
            let c = member(kind, width, &library, &circuits, recipe);
            circuits.push(c);
        }
        check_batches(&circuits, &batch_config());
    }
}

#[test]
fn batches_split_at_the_node_budget_and_stay_exact() {
    // Random multipliers of a quarter budget each between mutants of a
    // library: several fit in one batch, but not all of them.
    let (kind, width) = (ArithKind::Multiplier, 8);
    let library = build_library(&LibrarySpec::new(kind, width, 12));
    let mut circuits: Vec<ArithCircuit> = Vec::new();
    for i in 0..16u64 {
        let recipe = if i % 2 == 0 {
            (3, 0, SIM_BATCH_NODES / 4, i)
        } else {
            (2, i as usize, 40, i)
        };
        let c = member(kind, width, &library, &circuits, recipe);
        circuits.push(c);
    }
    let batches = check_batches(&circuits, &batch_config());
    assert!(batches.len() >= 2, "one batch: {batches:?}");
    assert!(
        batches.iter().any(|&m| m > 2),
        "no shared batch: {batches:?}"
    );
}
