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

use approxfpgas_suite::circuits::{
    adders, build_library, multipliers, paper_full_specs, ArithCircuit, LibrarySpec,
};
use approxfpgas_suite::error::{
    analyze, analyze_with, stratified_pairs, ErrorConfig, ErrorMetrics,
};
use approxfpgas_suite::netlist::{
    pack_operand, unpack_result, Gate, NetId, Netlist, SimScratch, SimTape, Simulator, LANE_WORDS,
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
        let m = Runtime::install(8, |rt| analyze_with(circuit, &cfg, rt));
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
                let got = Runtime::install(threads, |rt| analyze_with(circuit, &cfg, rt));
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
