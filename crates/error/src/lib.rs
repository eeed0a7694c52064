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
use afp_netlist::{transpose, NetlistBatch, SimTape, LANES, LANE_WORDS};
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

/// [`analyze`] on an explicit [`Runtime`]: [`analyze_batch`] on a batch
/// of one (the circuit's own netlist, nothing hashed).
pub fn analyze_with(circuit: &ArithCircuit, config: &ErrorConfig, rt: &Runtime) -> ErrorMetrics {
    let batch = NetlistBatch::single(circuit.netlist());
    analyze_batch(circuit.kind(), circuit.width(), &batch, config, rt)[0]
}

/// Analyze every member of a simulation batch (see
/// [`afp_circuits::plan_batches`]) of `kind`/`width` circuits, returning
/// one [`ErrorMetrics`] per member, in member order.
///
/// This is the batch's [`BlockPlan`] run through the runtime: its blocks
/// are evaluated in parallel and their sums merged in block order, so
/// each member's metrics are bit-identical to analyzing it alone, for any
/// batch and any thread count.
pub fn analyze_batch(
    kind: ArithKind,
    width: usize,
    batch: &NetlistBatch,
    config: &ErrorConfig,
    rt: &Runtime,
) -> Vec<ErrorMetrics> {
    let plan = BlockPlan::new(kind, width, batch, config);
    let blocks: Vec<usize> = (0..plan.blocks()).collect();
    let sums = rt.par_map_init(
        &blocks,
        || plan.scratch(),
        |scratch, _, &block| plan.block(scratch, block, rt.counters()),
    );
    plan.merge(sums)
}

/// The block partition of one simulation batch's error analysis.
///
/// The input space (exhaustive or sampled) is split into fixed-size
/// blocks. [`BlockPlan::block`] simulates the batch's DAG once per lane
/// block, computes the golden results once, and accumulates every
/// member's sums from its own output nodes; [`BlockPlan::merge`] folds
/// the blocks' sums in block order into each member's [`ErrorMetrics`].
/// Per-block sums use exact integer arithmetic and the one fractional sum
/// is merged in that fixed order, so the metrics do not depend on which
/// thread evaluated which block, or when. A caller may therefore run the
/// blocks as jobs among other work, as long as it merges them in order.
pub struct BlockPlan<'b> {
    kind: ArithKind,
    width: usize,
    batch: &'b NetlistBatch<'b>,
    /// The DAG lowered once; every block's evaluator shares it.
    tape: SimTape,
    exhaustive: bool,
    /// Block sums in `u128` (outputs wider than 16 bits) rather than `u64`.
    wide: bool,
    /// The sampled pairs; empty when exhaustive.
    pairs: Vec<(u64, u64)>,
}

/// Per-worker buffers of [`BlockPlan::block`], reused across every block
/// the worker evaluates.
pub struct BlockScratch<'p> {
    eval: BatchEvaluator<'p>,
    golden: Golden,
}

/// Every batch member's error sums over one block of a [`BlockPlan`].
pub struct BlockSums(BlockSumsOf);

enum BlockSumsOf {
    Narrow(Vec<Sums<u64>>),
    Wide(Vec<Sums<u128>>),
}

impl<'b> BlockPlan<'b> {
    /// The plan of analyzing `batch`, whose members are `kind`/`width`
    /// circuits, under `config`.
    pub fn new(
        kind: ArithKind,
        width: usize,
        batch: &'b NetlistBatch<'b>,
        config: &ErrorConfig,
    ) -> BlockPlan<'b> {
        assert!(width <= 32, "operand width limited to 32 bits");
        assert!(
            (0..batch.len()).all(|m| batch.outputs(m).len() == kind.out_width(width)),
            "every member has the outputs of its kind and width"
        );
        let exhaustive = 2 * width <= config.max_exhaustive_bits;
        BlockPlan {
            kind,
            width,
            batch,
            tape: SimTape::compile(batch.dag()),
            exhaustive,
            // A block's squared error fits 64 bits while outputs are at
            // most 16 bits wide (2^15 pairs · 2^32 < 2^64); wider outputs
            // sum in u128.
            wide: kind.out_width(width) > 16,
            pairs: if exhaustive {
                Vec::new()
            } else {
                stratified_pairs(width, config.samples, config.seed)
            },
        }
    }

    /// Rows of `a` per exhaustive block; each row is `2^width` pairs.
    fn rows_per_block(&self) -> u64 {
        (BLOCK_PAIRS >> self.width).max(1) as u64
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        if self.exhaustive {
            (1u64 << self.width).div_ceil(self.rows_per_block()) as usize
        } else {
            self.pairs.len().div_ceil(BLOCK_PAIRS)
        }
    }

    /// Fresh buffers for [`BlockPlan::block`].
    pub fn scratch(&self) -> BlockScratch<'_> {
        BlockScratch {
            eval: BatchEvaluator::for_dag(&self.tape, self.width),
            golden: Golden::default(),
        }
    }

    /// Every member's sums over block `block` (`< blocks()`), counting
    /// the simulation on `counters`.
    pub fn block(
        &self,
        scratch: &mut BlockScratch,
        block: usize,
        counters: &Counters,
    ) -> BlockSums {
        let sums = if self.wide {
            BlockSumsOf::Wide(self.block_sums(scratch, block, counters))
        } else {
            BlockSumsOf::Narrow(self.block_sums(scratch, block, counters))
        };
        BlockSums(sums)
    }

    fn block_sums<S: BlockSum>(
        &self,
        scratch: &mut BlockScratch,
        block: usize,
        counters: &Counters,
    ) -> Vec<Sums<S>> {
        let (kind, w, batch) = (self.kind, self.width, self.batch);
        let out_width = kind.out_width(w);
        let BlockScratch { eval, golden } = scratch;
        let mut sums: Vec<Sums<S>> = (0..batch.len()).map(|_| Sums::default()).collect();
        // Every member's sums over the loaded lane block.
        let accumulate = |eval: &BatchEvaluator, golden: &Golden, sums: &mut [Sums<S>]| {
            for (m, sums) in sums.iter_mut().enumerate() {
                sums.add_block(eval, batch.outputs(m), golden);
            }
        };
        if self.exhaustive {
            // Block `block` is a range of `a` rows: the consecutive pair
            // indices `a_start·2^w .. (a_end+1)·2^w` in the row-major
            // order `p = (a << w) | b`.
            let mask = (1u64 << w) - 1;
            let rows = self.rows_per_block();
            let a_start = block as u64 * rows;
            let a_end = (a_start + rows - 1).min(mask);
            let end = (a_end + 1) << w;
            let mut p = a_start << w;
            while p < end {
                let n = ((end - p) as usize).min(LANES);
                eval.load_exhaustive(p, n);
                let pairs = (p..p + n as u64).map(|q| (q >> w, q & mask));
                golden.load(kind, pairs, out_width);
                accumulate(eval, golden, &mut sums);
                p += n as u64;
            }
        } else {
            let start = block * BLOCK_PAIRS;
            let end = (start + BLOCK_PAIRS).min(self.pairs.len());
            for chunk in self.pairs[start..end].chunks(LANES) {
                eval.load_pairs(chunk);
                golden.load(kind, chunk.iter().copied(), out_width);
                accumulate(eval, golden, &mut sums);
            }
        }
        // Per member: one tape reuse, 16 bytes of operand data per pair.
        Counters::add(&counters.sim_tape_reuses, batch.len() as u64);
        let pairs: u64 = sums.iter().map(|s| s.n).sum();
        Counters::add(&counters.bytes_simulated, pairs * 16);
        sums
    }

    /// Each member's metrics from the sums of every block, which `blocks`
    /// must yield in block order.
    pub fn merge(&self, blocks: impl IntoIterator<Item = BlockSums>) -> Vec<ErrorMetrics> {
        let mut totals: Vec<Sums<u128>> = (0..self.batch.len()).map(|_| Sums::default()).collect();
        let mut merged = 0;
        for BlockSums(block) in blocks {
            match block {
                BlockSumsOf::Narrow(sums) => merge_block(&sums, &mut totals),
                BlockSumsOf::Wide(sums) => merge_block(&sums, &mut totals),
            }
            merged += 1;
        }
        assert_eq!(merged, self.blocks(), "every block merged once");
        let max_out = self.kind.max_output(self.width) as f64;
        totals
            .into_iter()
            .map(|total| total.finish(self.exhaustive, max_out))
            .collect()
    }
}

fn merge_block<S: BlockSum>(block: &[Sums<S>], totals: &mut [Sums<u128>]) {
    for (sums, total) in block.iter().zip(totals) {
        sums.merge_into(total);
    }
}

/// Erroneous lanes of a 64-lane word from which [`Sums::add_lanes`]
/// accumulates the whole word in one loop instead of visiting the
/// erroneous lanes one by one. Visiting a lane costs more than a lane of
/// the whole-word loop, so the two break even at most of the word; on the
/// scale-0.1 paper corpus, characterization ran about 5% slower with the
/// whole-word loop for every word and about 15% slower with lane visits
/// only (EXPERIMENTS.md, "Shard-batched simulation").
const DENSE_LANES: u32 = 40;

/// The golden side of one loaded lane block, shared by every member.
#[derive(Default)]
struct Golden {
    /// The golden result of each lane.
    exact: Vec<u64>,
    /// The same results as bit planes: bit `l % 64` of word
    /// `b * LANE_WORDS + l / 64` is bit `b` of lane `l`'s result.
    planes: Vec<u64>,
    /// Lanes whose golden result is non-zero.
    nonzero: u64,
}

impl Golden {
    /// The golden results of `pairs` (at most [`LANES`]) for outputs of
    /// `out_width` bits, and their bit planes.
    fn load(&mut self, kind: ArithKind, pairs: impl Iterator<Item = (u64, u64)>, out_width: usize) {
        self.exact.clear();
        exact_into(kind, pairs, &mut self.exact);
        self.nonzero = self.exact.iter().filter(|&&e| e != 0).count() as u64;
        match out_width {
            0..=16 => self.transpose_planes::<16>(out_width),
            17..=32 => self.transpose_planes::<32>(out_width),
            _ => self.transpose_planes::<64>(out_width),
        }
    }

    /// Build the bit planes through `F`-bit field transposes, the inverse
    /// of the layout [`Sums::add_lanes`] reads results in: lane `l` of
    /// lane word `j` is row `(j mod 64/F)·F + l mod F`, field `l / F`.
    fn transpose_planes<const F: usize>(&mut self, out_width: usize) {
        const W: usize = LANE_WORDS;
        let words = 64 / F;
        self.planes.clear();
        self.planes.resize(out_width * W, 0);
        for (t, group) in self.exact.chunks(64 * words).enumerate() {
            let mut m = [0u64; 64];
            for (rows, lanes) in m.chunks_exact_mut(F).zip(group.chunks(64)) {
                for (f, field) in lanes.chunks(F).enumerate() {
                    for (row, &e) in rows.iter_mut().zip(field) {
                        *row |= e << (f * F);
                    }
                }
            }
            transpose::<F>(&mut m);
            for g in 0..group.len().div_ceil(64) {
                for b in 0..out_width {
                    self.planes[b * W + t * words + g] = m[g * F + b];
                }
            }
        }
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
    /// Accumulate one member's results on the loaded lane block, read
    /// from its output nets `outputs`, against `golden`.
    // Kept out of line: inlined into a block's loop (which the codegen
    // partition decides), error analysis of erroneous mul8 and add8
    // circuits ran about 6% slower.
    #[inline(never)]
    fn add_block(&mut self, eval: &BatchEvaluator, outputs: &[u32], golden: &Golden) {
        match outputs.len() {
            0..=16 => self.add_lanes::<16>(eval, outputs, golden),
            17..=32 => self.add_lanes::<32>(eval, outputs, golden),
            _ => self.add_lanes::<64>(eval, outputs, golden),
        }
    }

    /// [`Sums::add_block`] through `F`-bit field transposes
    /// (`outputs.len() <= F`).
    ///
    /// A lane whose output bits all equal the golden planes has no error:
    /// it only counts towards `n` and `rel_n`. The lanes that differ are
    /// read out of the transposed output planes and accumulated in lane
    /// order: one at a time, or, once a lane word has [`DENSE_LANES`] of
    /// them, the whole word in one loop. Either way the relative-error
    /// chain adds the terms the per-pair definition adds, in the same
    /// order, plus `+0.0` terms. The term is branch-free:
    /// `abs / exact` where `exact != 0`, else `+0.0`, and a `+0.0` term
    /// never changes the bits of a sum that starts at `+0.0` and only adds
    /// terms `>= +0.0`.
    fn add_lanes<const F: usize>(
        &mut self,
        eval: &BatchEvaluator,
        outputs: &[u32],
        golden: &Golden,
    ) {
        const W: usize = LANE_WORDS;
        let n = golden.exact.len();
        self.n += n as u64;
        self.rel_n += golden.nonzero;
        // Lanes whose result differs from the golden one; lanes past the
        // block's end hold stale values and are masked off.
        let mut diff = [0; W];
        for (b, &o) in outputs.iter().enumerate() {
            let got = eval.lane_words(o);
            for (d, (g, e)) in diff.iter_mut().zip(got.iter().zip(&golden.planes[b * W..])) {
                *d |= g ^ e;
            }
        }
        for (j, d) in diff.iter_mut().enumerate() {
            let live = n.saturating_sub(j * 64).min(64);
            *d &= u64::MAX.checked_shr(64 - live as u32).unwrap_or(0);
        }

        let words = 64 / F;
        let field = u64::MAX >> (64 - F);
        let mut acc = LaneSums {
            sum_abs: S::default(),
            sum_neg: S::default(),
            sum_sq: S::default(),
            wce: self.wce,
            nonzero: 0,
            sum_rel: self.sum_rel,
        };
        for (t, diffs) in diff.chunks(words).enumerate() {
            if diffs.iter().all(|&d| d == 0) {
                continue;
            }
            // Row `g·F + b` holds output bit `b` of lane word `t·words + g`;
            // after transposing, field `l / F` of row `g·F + l mod F` is
            // lane `l`'s result.
            let mut m = [0u64; 64];
            for g in 0..words {
                for (b, &o) in outputs.iter().enumerate() {
                    m[g * F + b] = eval.lane_words(o)[t * words + g];
                }
            }
            transpose::<F>(&mut m);
            for (g, &d) in diffs.iter().enumerate() {
                if d == 0 {
                    continue;
                }
                let base = (t * words + g) * 64;
                let rows = &m[g * F..][..F];
                let exact = &golden.exact[base..];
                if base + 64 > n || d.count_ones() < DENSE_LANES {
                    let mut lanes = d;
                    while lanes != 0 {
                        let l = lanes.trailing_zeros() as usize;
                        lanes &= lanes - 1;
                        acc.lane((rows[l % F] >> (l / F * F)) & field, exact[l]);
                    }
                } else {
                    for f in 0..words {
                        for (r, &row) in rows.iter().enumerate() {
                            acc.lane((row >> (f * F)) & field, exact[f * F + r]);
                        }
                    }
                }
            }
        }
        self.sum_abs += acc.sum_abs;
        self.sum_neg += acc.sum_neg;
        self.sum_sq += acc.sum_sq;
        self.wce = acc.wce;
        self.nonzero += acc.nonzero;
        self.sum_rel = acc.sum_rel;
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

/// Running sums over the lanes of one block, kept in registers.
struct LaneSums<S> {
    sum_abs: S,
    sum_neg: S,
    sum_sq: S,
    wce: u64,
    nonzero: u64,
    sum_rel: f64,
}

impl<S: BlockSum> LaneSums<S> {
    /// Accumulate one lane: result `got` against the golden `e`.
    #[inline(always)]
    fn lane(&mut self, got: u64, e: u64) {
        let err = (got as i64).wrapping_sub(e as i64);
        let abs = err.unsigned_abs();
        self.sum_abs += S::of(abs);
        self.sum_neg += S::of(if err < 0 { abs } else { 0 });
        self.sum_sq += S::square(abs);
        self.wce = self.wce.max(abs);
        self.nonzero += (abs != 0) as u64;
        self.sum_rel += S::float(if e != 0 { abs } else { 0 }) / S::float(e.max(1));
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
                let par = analyze_with(c, &cfg(), &Runtime::new(threads));
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
