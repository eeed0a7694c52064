//! Behavioural error analysis of approximate arithmetic circuits.
//!
//! Computes the error metrics used throughout the ApproxFPGAs reproduction,
//! most importantly the paper's **MED** — the mean absolute error distance
//! normalized by the maximum output value — plus worst-case error, mean
//! relative error, error probability, MSE and signed bias.
//!
//! Evaluation is exhaustive for small operand widths (all `2^(2w)` input
//! pairs) and switches to a deterministic stratified sample for wide
//! operands, mirroring how behavioural models of 12/16-bit circuits are
//! evaluated in practice.
//!
//! # Example
//!
//! ```
//! use afp_circuits::adders::{loa, ripple_carry};
//! use afp_error::{analyze, ErrorConfig};
//!
//! let cfg = ErrorConfig::default();
//! let exact = analyze(&ripple_carry(8), &cfg);
//! assert_eq!(exact.wce, 0);
//! assert_eq!(exact.med, 0.0);
//!
//! let approx = analyze(&loa(8, 4), &cfg);
//! assert!(approx.med > 0.0);
//! assert!(approx.wce > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use afp_circuits::{ArithCircuit, ArithKind, BatchEvaluator};
use afp_netlist::{SimTape, LANES};
use afp_runtime::{Counters, Runtime};

/// Configuration for [`analyze`].
#[derive(Clone, Debug)]
pub struct ErrorConfig {
    /// Evaluate exhaustively when the total input width `2w` does not
    /// exceed this many bits (default 16, i.e. 8-bit operands).
    pub max_exhaustive_bits: usize,
    /// Sample size for the stratified evaluation of wider circuits.
    pub samples: usize,
    /// Seed for the sampled strata.
    pub seed: u64,
}

impl Default for ErrorConfig {
    fn default() -> ErrorConfig {
        ErrorConfig {
            max_exhaustive_bits: 16,
            samples: 1 << 16,
            seed: 0xE44_0001,
        }
    }
}

impl afp_runtime::Fingerprint for ErrorConfig {
    fn fingerprint(&self, h: &mut afp_runtime::StableHasher) {
        h.write_str("error-config");
        h.write_usize(self.max_exhaustive_bits);
        h.write_usize(self.samples);
        h.write_u64(self.seed);
    }
}

/// Error metrics of one circuit against its golden function.
///
/// All means are over the evaluated input set (exhaustive or sampled, see
/// [`ErrorMetrics::samples`] and [`ErrorMetrics::exhaustive`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorMetrics {
    /// Number of input pairs evaluated.
    pub samples: u64,
    /// Whether the evaluation covered every input pair.
    pub exhaustive: bool,
    /// The paper's MED: mean absolute error / maximum output value.
    pub med: f64,
    /// Mean absolute error (unnormalized).
    pub mae: f64,
    /// Worst-case absolute error observed.
    pub wce: u64,
    /// Worst-case error / maximum output value.
    pub wce_rel: f64,
    /// Mean relative error `|err| / exact`, over pairs with `exact != 0`.
    pub mre: f64,
    /// Fraction of input pairs with a non-zero error.
    pub error_prob: f64,
    /// Mean squared error.
    pub mse: f64,
    /// Mean signed error (negative = the circuit under-estimates).
    pub bias: f64,
}

impl ErrorMetrics {
    /// Metrics of a perfectly exact circuit over `samples` pairs.
    pub fn zero(samples: u64, exhaustive: bool) -> ErrorMetrics {
        ErrorMetrics {
            samples,
            exhaustive,
            med: 0.0,
            mae: 0.0,
            wce: 0,
            wce_rel: 0.0,
            mre: 0.0,
            error_prob: 0.0,
            mse: 0.0,
            bias: 0.0,
        }
    }

    /// True if no error was observed on any evaluated pair.
    pub fn is_exact(&self) -> bool {
        self.wce == 0
    }
}

/// Analyze `circuit` against its golden function under `config`.
///
/// Exhaustive when `2 * width <= config.max_exhaustive_bits`, otherwise a
/// deterministic stratified sample of `config.samples` pairs: one third
/// uniform, one third with a short operand (exercising low-magnitude
/// behaviour), one third near the operand maximum (exercising long carry
/// chains), plus the four corner pairs.
pub fn analyze(circuit: &ArithCircuit, config: &ErrorConfig) -> ErrorMetrics {
    analyze_with(circuit, config, &Runtime::serial())
}

/// Pairs per parallel block. Fixed (never derived from the thread count),
/// so the partition — and with it every reduction order — is a pure
/// function of the input and the result is identical for any parallelism.
const BLOCK_PAIRS: usize = 4096;

/// [`analyze`] on an explicit [`Runtime`].
///
/// The input space is split into fixed-size blocks evaluated in parallel;
/// per-block partial sums use exact integer arithmetic and are merged in
/// block order, so the metrics are bit-identical for any thread count.
pub fn analyze_with(circuit: &ArithCircuit, config: &ErrorConfig, rt: &Runtime) -> ErrorMetrics {
    let w = circuit.width();
    assert!(w <= 32, "operand width limited to 32 bits");
    let exhaustive = 2 * w <= config.max_exhaustive_bits;
    let kind = circuit.kind();
    let mut total = Sums::<u128>::default();
    // A block's squared error fits 64 bits while outputs are at most 16
    // bits wide (2^15 pairs · 2^32 < 2^64); wider outputs sum in u128.
    if kind.out_width(w) <= 16 {
        for block in block_sums::<u64>(circuit, config, exhaustive, rt) {
            block.merge_into(&mut total);
        }
    } else {
        for block in block_sums::<u128>(circuit, config, exhaustive, rt) {
            block.merge_into(&mut total);
        }
    }
    total.finish(exhaustive, kind.max_output(w) as f64)
}

/// Evaluate every block of the input space (exhaustive or sampled) and
/// return the per-block sums in block order.
fn block_sums<S: BlockSum>(
    circuit: &ArithCircuit,
    config: &ErrorConfig,
    exhaustive: bool,
    rt: &Runtime,
) -> Vec<Sums<S>> {
    let w = circuit.width();
    let kind = circuit.kind();
    let mask = (1u64 << w) - 1;
    // Lower the netlist once; every block worker shares the same tape.
    let tape = SimTape::compile(circuit.netlist());
    let finish_block = |sums: Sums<S>| {
        Counters::add(&rt.counters().sim_tape_reuses, 1);
        // 16 bytes of operand data per evaluated pair.
        Counters::add(&rt.counters().bytes_simulated, sums.n * 16);
        sums
    };
    // Per-worker buffers, reused across every block the worker evaluates.
    let scratch = || {
        (
            BatchEvaluator::with_tape(circuit, &tape),
            Vec::with_capacity(LANES),
            Vec::with_capacity(LANES),
        )
    };
    if exhaustive {
        // Blocks are ranges of `a` rows; each row is `mask + 1` pairs.
        let rows_per_block = (BLOCK_PAIRS >> w).max(1) as u64;
        let row_starts: Vec<u64> = (0..=mask).step_by(rows_per_block as usize).collect();
        rt.par_map_init(&row_starts, scratch, |(batch, got, exact), _, &a_start| {
            let a_end = (a_start + rows_per_block - 1).min(mask);
            let mut sums = Sums::default();
            // The block's pairs are the consecutive pair indices
            // `a_start·2^w .. (a_end+1)·2^w` in the row-major order
            // `p = (a << w) | b`.
            let end = (a_end + 1) << w;
            let mut p = a_start << w;
            while p < end {
                let n = ((end - p) as usize).min(LANES);
                got.clear();
                exact.clear();
                batch.eval_exhaustive_block_into(p, n, got);
                exact_into(kind, (p..p + n as u64).map(|q| (q >> w, q & mask)), exact);
                sums.add(exact, got);
                p += n as u64;
            }
            finish_block(sums)
        })
    } else {
        let pairs = stratified_pairs(w, config.samples, config.seed);
        let blocks: Vec<&[(u64, u64)]> = pairs.chunks(BLOCK_PAIRS).collect();
        rt.par_map_init(&blocks, scratch, |(batch, got, exact), _, block| {
            let mut sums = Sums::default();
            for chunk in block.chunks(LANES) {
                got.clear();
                exact.clear();
                batch.eval_block_into(chunk, got);
                exact_into(kind, chunk.iter().copied(), exact);
                sums.add(exact, got);
            }
            finish_block(sums)
        })
    }
}

/// Append the golden result of every in-range operand pair to `out`, with
/// the kind dispatched once per slice rather than once per pair.
fn exact_into(kind: ArithKind, pairs: impl Iterator<Item = (u64, u64)>, out: &mut Vec<u64>) {
    match kind {
        ArithKind::Adder => out.extend(pairs.map(|(a, b)| a + b)),
        ArithKind::Multiplier => out.extend(pairs.map(|(a, b)| a * b)),
    }
}

/// The deterministic stratified sample used for wide circuits.
pub fn stratified_pairs(width: usize, samples: usize, seed: u64) -> Vec<(u64, u64)> {
    let mask = (1u64 << width) - 1;
    let mut pairs = Vec::with_capacity(samples + 4);
    pairs.extend_from_slice(&[(0, 0), (mask, mask), (0, mask), (mask, 0)]);
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let third = samples / 3;
    for _ in 0..third {
        let v = next();
        pairs.push((v & mask, (v >> 32) & mask));
    }
    // Low-magnitude stratum: one operand confined to the low half bits.
    let low_mask = (1u64 << (width / 2)) - 1;
    for _ in 0..third {
        let v = next();
        pairs.push((v & low_mask, (v >> 32) & mask));
    }
    // Long-carry stratum: operands near the maximum.
    for _ in 0..(samples - 2 * third) {
        let v = next();
        pairs.push((mask - (v & low_mask), mask - ((v >> 32) & low_mask)));
    }
    pairs
}

/// Integer type of a block's error sums: `u64` when the circuit's
/// outputs are at most 16 bits wide, `u128` otherwise (and for the
/// cross-block totals).
trait BlockSum: Copy + Default + Send + std::ops::AddAssign + Into<u128> {
    fn of(x: u64) -> Self;
    /// `x²` for an absolute error `x` of the circuit being analyzed.
    fn square(x: u64) -> Self;
    /// `x as f64` for an error or exact value `x` of that circuit.
    fn float(x: u64) -> f64;
}

// Only chosen for outputs of at most 16 bits, so every value is below
// 2^16: squares fit, and the signed conversion (one instruction, where
// the unsigned one takes a branch-free sequence) is the same number.
impl BlockSum for u64 {
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

impl BlockSum for u128 {
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

/// Error sums over one block of input pairs, or over all blocks.
///
/// The absolute and squared error sums are exact integers, and so is the
/// signed sum, kept as the magnitude `sum_neg` of the negative errors
/// (signed = `sum_abs − 2·sum_neg`). Merging is therefore associative and
/// those metrics do not depend on how the input space was partitioned.
/// Only `sum_rel` is inherently fractional; it is merged in fixed block
/// order, which keeps it deterministic for any thread count.
#[derive(Default)]
struct Sums<S> {
    n: u64,
    sum_abs: S,
    sum_neg: S,
    sum_sq: S,
    wce: u64,
    nonzero: u64,
    sum_rel: f64,
    rel_n: u64,
}

impl<S: BlockSum> Sums<S> {
    /// Accumulate one slice of pairs: `got[i]` against `exact[i]`.
    ///
    /// `sum_rel` only adds the terms with a non-zero error. That is
    /// bit-exact against adding every `exact != 0` term: the sum starts at
    /// `+0.0` and every term is `>= +0.0`, so adding a `+0.0` term never
    /// changes its bits.
    fn add(&mut self, exact: &[u64], got: &[u64]) {
        let (mut sum_abs, mut sum_neg, mut sum_sq) = (S::default(), S::default(), S::default());
        let (mut wce, mut nonzero, mut rel_n) = (self.wce, 0u64, 0u64);
        let mut sum_rel = self.sum_rel;
        for (&e, &g) in exact.iter().zip(got) {
            let err = (g as i64).wrapping_sub(e as i64);
            let abs = err.unsigned_abs();
            sum_abs += S::of(abs);
            sum_neg += S::of(if err < 0 { abs } else { 0 });
            sum_sq += S::square(abs);
            wce = wce.max(abs);
            nonzero += (abs != 0) as u64;
            rel_n += (e != 0) as u64;
            if abs != 0 && e != 0 {
                sum_rel += S::float(abs) / S::float(e);
            }
        }
        self.n += got.len() as u64;
        self.sum_abs += sum_abs;
        self.sum_neg += sum_neg;
        self.sum_sq += sum_sq;
        self.wce = wce;
        self.nonzero += nonzero;
        self.rel_n += rel_n;
        self.sum_rel = sum_rel;
    }

    fn merge_into(&self, total: &mut Sums<u128>) {
        total.n += self.n;
        total.sum_abs += self.sum_abs.into();
        total.sum_neg += self.sum_neg.into();
        total.sum_sq += self.sum_sq.into();
        total.wce = total.wce.max(self.wce);
        total.nonzero += self.nonzero;
        total.sum_rel += self.sum_rel;
        total.rel_n += self.rel_n;
    }
}

impl Sums<u128> {
    fn finish(self, exhaustive: bool, max_out: f64) -> ErrorMetrics {
        let n = self.n.max(1) as f64;
        let sum_signed = self.sum_abs as i128 - 2 * self.sum_neg as i128;
        ErrorMetrics {
            samples: self.n,
            exhaustive,
            med: self.sum_abs as f64 / n / max_out,
            mae: self.sum_abs as f64 / n,
            wce: self.wce,
            wce_rel: self.wce as f64 / max_out,
            mre: self.sum_rel / self.rel_n.max(1) as f64,
            error_prob: self.nonzero as f64 / n,
            mse: self.sum_sq as f64 / n,
            bias: sum_signed as f64 / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuits::adders;
    use afp_circuits::multipliers;

    fn cfg() -> ErrorConfig {
        ErrorConfig::default()
    }

    #[test]
    fn exact_adder_has_zero_metrics() {
        for c in [
            adders::ripple_carry(8),
            adders::carry_lookahead(8),
            adders::carry_select(8),
        ] {
            let m = analyze(&c, &cfg());
            assert!(m.is_exact(), "{}", c.name());
            assert_eq!(m.samples, 65536);
            assert!(m.exhaustive);
            assert_eq!(m, ErrorMetrics::zero(65536, true));
        }
    }

    #[test]
    fn truncated_adder_med_matches_closed_form() {
        // Truncated adder k=1: both the LSB sum and its carry are lost, so
        // the error on a pair is a0 + b0: mean (0+1+1+2)/4 = 1.0, worst 2.
        let c = adders::truncated(8, 1);
        let m = analyze(&c, &cfg());
        let expected_mae = 1.0;
        assert!((m.mae - expected_mae).abs() < 1e-9, "mae {}", m.mae);
        assert!((m.med - expected_mae / 511.0).abs() < 1e-12);
        assert_eq!(m.wce, 2);
        assert!(m.bias < 0.0, "truncation under-estimates");
    }

    #[test]
    fn loa_error_probability_is_positive_but_partial() {
        let m = analyze(&adders::loa(8, 4), &cfg());
        assert!(m.error_prob > 0.0 && m.error_prob < 1.0);
        assert!(m.wce < 32, "LOA(4) wce bounded: {}", m.wce);
    }

    #[test]
    fn med_increases_with_truncation_level() {
        let mut last = -1.0;
        for k in [0usize, 2, 4, 6] {
            let m = analyze(&adders::truncated(8, k), &cfg());
            assert!(m.med > last, "k={k}: {} <= {last}", m.med);
            last = m.med;
        }
    }

    #[test]
    fn multiplier_truncation_med_grows() {
        let small = analyze(&multipliers::truncated(8, 2), &cfg());
        let large = analyze(&multipliers::truncated(8, 8), &cfg());
        assert!(large.med > small.med);
        assert!(
            large.bias < small.bias,
            "more truncation, more negative bias"
        );
    }

    #[test]
    fn sampled_evaluation_close_to_exhaustive_on_8bit() {
        // Force sampling on an 8-bit circuit and compare with the truth.
        let c = multipliers::broken_array(8, 6, 2);
        let exhaustive = analyze(&c, &cfg());
        let sampled = analyze(
            &c,
            &ErrorConfig {
                max_exhaustive_bits: 8,
                samples: 1 << 14,
                seed: 3,
            },
        );
        assert!(!sampled.exhaustive);
        let rel = (sampled.med - exhaustive.med).abs() / exhaustive.med.max(1e-12);
        assert!(rel < 0.35, "sampled med off by {rel}");
        assert!(sampled.wce <= exhaustive.wce);
    }

    #[test]
    fn wide_circuits_are_sampled() {
        let c = adders::loa(16, 8);
        let m = analyze(&c, &cfg());
        assert!(!m.exhaustive);
        assert_eq!(m.samples, (1 << 16) + 4);
        assert!(m.med > 0.0);
    }

    #[test]
    fn stratified_pairs_are_deterministic_and_in_range() {
        let a = stratified_pairs(12, 1000, 7);
        let b = stratified_pairs(12, 1000, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1004);
        for &(x, y) in &a {
            assert!(x < 4096 && y < 4096);
        }
    }

    #[test]
    fn error_prob_near_one_for_fully_truncated_adder() {
        let m = analyze(&adders::truncated(8, 8), &cfg());
        assert!(m.error_prob > 0.99);
    }

    #[test]
    fn metrics_are_bit_identical_for_any_thread_count() {
        let circuits = [
            multipliers::broken_array(8, 6, 2),
            adders::loa(8, 4),
            adders::loa(16, 8), // exercises the sampled path
        ];
        for c in &circuits {
            let serial = analyze_with(c, &cfg(), &Runtime::serial());
            for threads in [2, 4, 8] {
                let par = Runtime::install(threads, |rt| analyze_with(c, &cfg(), rt));
                assert_eq!(serial, par, "{} at {threads} threads", c.name());
            }
        }
    }

    #[test]
    fn bytes_simulated_counts_sixteen_per_pair() {
        let rt = Runtime::serial();
        let m = analyze_with(&adders::loa(8, 4), &cfg(), &rt);
        assert_eq!(rt.snapshot().bytes_simulated, m.samples * 16);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        #[test]
        fn metrics_are_internally_consistent(k in 0usize..8, vbl in 1usize..8) {
            let c = multipliers::broken_array(8, vbl, k % 4);
            let m = analyze(&c, &cfg());
            // MAE <= WCE, MED = MAE/max, MSE >= MAE^2 (Jensen).
            proptest::prop_assert!(m.mae <= m.wce as f64 + 1e-9);
            proptest::prop_assert!((m.med * 65535.0 - m.mae).abs() < 1e-6);
            proptest::prop_assert!(m.mse + 1e-9 >= m.mae * m.mae);
            proptest::prop_assert!(m.bias.abs() <= m.mae + 1e-9);
            proptest::prop_assert!((0.0..=1.0).contains(&m.error_prob));
        }
    }
}
