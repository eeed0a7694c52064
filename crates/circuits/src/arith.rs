//! Word-level wrapper around gate-level netlists for two-operand arithmetic
//! circuits, plus batch evaluation helpers.

use std::borrow::Borrow;

use afp_netlist::{Netlist, NetlistBatch, SimTape, LANES, LANE_WORDS, SIM_BATCH_NODES};

/// The arithmetic function a circuit is *supposed* to compute.
// Safe total order (`Eq + Ord`, no float keys): the clippy.toml
// `partial_cmp` ban fires inside the derive expansion, not here.
#[allow(clippy::disallowed_methods)]
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArithKind {
    /// Unsigned addition: `w`-bit + `w`-bit → `w+1`-bit.
    Adder = 0,
    /// Unsigned multiplication: `w`-bit × `w`-bit → `2w`-bit.
    Multiplier = 1,
}

impl ArithKind {
    /// Short mnemonic used in circuit names (`"add"` / `"mul"`).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            ArithKind::Adder => "add",
            ArithKind::Multiplier => "mul",
        }
    }

    /// Widest supported operand: generators, spec refs, the CLI, the
    /// daemon and the circuit store accept widths `1..=max_width()` only.
    pub fn max_width(&self) -> usize {
        match self {
            ArithKind::Adder => 32,
            ArithKind::Multiplier => 16,
        }
    }

    /// [`InterfaceError::Width`] unless `width` is in `1..=self.max_width()`.
    pub fn check_width(&self, width: usize) -> Result<(), InterfaceError> {
        if (1..=self.max_width()).contains(&width) {
            Ok(())
        } else {
            Err(InterfaceError::Width(*self, width))
        }
    }

    /// [`ArithKind::check_width`] for generators, which panic instead.
    pub(crate) fn assert_width(&self, width: usize) {
        self.check_width(width).unwrap_or_else(|e| panic!("{e}"));
    }

    /// The byte that stands for this kind on disk (`.afps` circuit
    /// records, `.afpm` zoo coverage).
    pub fn code(&self) -> u8 {
        *self as u8
    }

    /// The kind `code` stands for, or `None` for an unknown byte.
    pub fn from_code(code: u8) -> Option<ArithKind> {
        [ArithKind::Adder, ArithKind::Multiplier]
            .into_iter()
            .find(|kind| kind.code() == code)
    }

    /// Output bus width for operand width `w`.
    pub fn out_width(&self, w: usize) -> usize {
        match self {
            ArithKind::Adder => w + 1,
            ArithKind::Multiplier => 2 * w,
        }
    }

    /// The exact (golden) result for operands `a`, `b` of width `w`.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `w` bits or `2w` exceeds 64.
    pub fn exact(&self, w: usize, a: u64, b: u64) -> u64 {
        assert!(w <= 32, "operand width limited to 32 bits");
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        assert!(a <= mask && b <= mask, "operand out of range");
        match self {
            ArithKind::Adder => a + b,
            ArithKind::Multiplier => a * b,
        }
    }

    /// Maximum representable output value (`2^out_width - 1`), the
    /// normalization constant in the paper's MED definition.
    pub fn max_output(&self, w: usize) -> u64 {
        let ow = self.out_width(w);
        if ow >= 64 {
            u64::MAX
        } else {
            (1u64 << ow) - 1
        }
    }
}

impl std::fmt::Display for ArithKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Why a `(kind, width, netlist)` triple is not a valid [`ArithCircuit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterfaceError {
    /// `(kind, width)`: the width is outside `1..=kind.max_width()`.
    Width(ArithKind, usize),
    /// `(width, found)`: the netlist has `found` primary inputs, not `2 * width`.
    Inputs(usize, usize),
    /// `(kind, width, found)`: the netlist has `found` primary outputs, not
    /// `kind.out_width(width)`.
    Outputs(ArithKind, usize, usize),
}

impl std::fmt::Display for InterfaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            InterfaceError::Width(kind, width) => write!(
                f,
                "width {width} out of range for {kind}: must be 1..={}",
                kind.max_width()
            ),
            InterfaceError::Inputs(width, found) => write!(
                f,
                "netlist has {found} primary inputs, expected {} for width {width}",
                2 * width
            ),
            InterfaceError::Outputs(kind, width, found) => write!(
                f,
                "netlist has {found} primary outputs, expected {} for a width-{width} {kind}",
                kind.out_width(width)
            ),
        }
    }
}

impl std::error::Error for InterfaceError {}

/// A two-operand arithmetic circuit: a gate-level netlist with a declared
/// word-level interface (`a[w]`, `b[w]` → `out[kind.out_width(w)]`, all
/// LSB-first).
///
/// # Example
///
/// ```
/// use afp_circuits::multipliers::array_multiplier;
///
/// let m = array_multiplier(8);
/// assert_eq!(m.eval(13, 11), 143);
/// assert_eq!(m.width(), 8);
/// assert_eq!(m.netlist().num_outputs(), 16);
/// ```
#[derive(Clone, Debug)]
pub struct ArithCircuit {
    kind: ArithKind,
    width: usize,
    netlist: Netlist,
}

impl ArithCircuit {
    /// Wrap a netlist as an arithmetic circuit.
    ///
    /// # Panics
    ///
    /// Panics where [`ArithCircuit::try_new`] errors; use that for
    /// netlists that come from outside the program.
    pub fn new(kind: ArithKind, width: usize, netlist: Netlist) -> ArithCircuit {
        Self::try_new(kind, width, netlist).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Wrap a netlist as an arithmetic circuit, checking the word-level
    /// interface: a width in `1..=kind.max_width()`, `2 * width` inputs
    /// and `kind.out_width(width)` outputs.
    ///
    /// # Errors
    ///
    /// The first check that fails, as an [`InterfaceError`].
    pub fn try_new(
        kind: ArithKind,
        width: usize,
        netlist: Netlist,
    ) -> Result<ArithCircuit, InterfaceError> {
        kind.check_width(width)?;
        let (inputs, outputs) = (netlist.num_inputs(), netlist.num_outputs());
        if inputs != 2 * width {
            return Err(InterfaceError::Inputs(width, inputs));
        }
        if outputs != kind.out_width(width) {
            return Err(InterfaceError::Outputs(kind, width, outputs));
        }
        Ok(ArithCircuit {
            kind,
            width,
            netlist,
        })
    }

    /// The intended arithmetic function.
    pub fn kind(&self) -> ArithKind {
        self.kind
    }

    /// Operand width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The circuit's name (delegates to the netlist).
    pub fn name(&self) -> &str {
        self.netlist.name()
    }

    /// Rename the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.netlist.set_name(name);
    }

    /// The underlying gate-level netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Consume the wrapper, returning the netlist.
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }

    /// Replace the netlist with a simplified copy (see
    /// [`afp_netlist::opt::simplify`]); interface is preserved.
    pub fn simplify(&mut self) {
        self.netlist = afp_netlist::opt::simplify(&self.netlist);
    }

    /// The exact (golden) value this circuit approximates.
    pub fn exact(&self, a: u64, b: u64) -> u64 {
        self.kind.exact(self.width, a, b)
    }

    /// Evaluate the circuit behaviourally on one operand pair.
    ///
    /// For bulk evaluation use [`BatchEvaluator`], which amortizes the
    /// tape compilation and evaluates [`LANES`] pairs per pass.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `width` bits.
    pub fn eval(&self, a: u64, b: u64) -> u64 {
        let mut batch = BatchEvaluator::new(self);
        batch.eval_pairs(&[(a, b)])[0]
    }
}

/// How a [`BatchEvaluator`] holds its compiled tape: its own copy, or a
/// borrow of a tape the caller compiled once and shares across evaluators
/// (the error-analysis workers share one tape per circuit).
#[derive(Debug)]
enum TapeRef<'c> {
    Owned(SimTape),
    Shared(&'c SimTape),
}

/// Bit-parallel batch evaluator for an [`ArithCircuit`].
///
/// The circuit's netlist is compiled once into a [`SimTape`]; every
/// evaluation then runs the wide kernel, [`LANES`] pairs per pass.
/// Operands are packed into, and results extracted from, the lane-major
/// simulation words through field-wise bit transposes
/// ([`afp_netlist::transpose`]) at the narrowest field width that holds
/// the operand bits and the output bits respectively.
///
/// # Example
///
/// ```
/// use afp_circuits::adders::ripple_carry;
/// use afp_circuits::BatchEvaluator;
///
/// let add = ripple_carry(8);
/// let mut batch = BatchEvaluator::new(&add);
/// let out = batch.eval_pairs(&[(1, 2), (255, 255), (100, 27)]);
/// assert_eq!(out, vec![3, 510, 127]);
/// ```
#[derive(Debug)]
pub struct BatchEvaluator<'c> {
    /// Operand width in bits.
    width: usize,
    tape: TapeRef<'c>,
    /// Net indices of the primary outputs, LSB-first (empty for a
    /// simulation-batch DAG, whose members' outputs are read per member).
    outputs: Vec<usize>,
    /// One `[u64; LANE_WORDS]` block per primary input.
    inputs: Vec<u64>,
    /// One `[u64; LANE_WORDS]` block per net, written by the tape.
    values: Vec<u64>,
}

/// Periodic input-word patterns for exhaustive enumeration: bit `l` of
/// `EXHAUSTIVE_PAT[q]` is bit `q` of the lane index `l` (valid for any
/// 64-aligned block of consecutive pair indices).
const EXHAUSTIVE_PAT: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

impl<'c> BatchEvaluator<'c> {
    /// Create an evaluator bound to `circuit`, compiling its own tape.
    pub fn new(circuit: &'c ArithCircuit) -> BatchEvaluator<'c> {
        Self::build(circuit, TapeRef::Owned(SimTape::compile(circuit.netlist())))
    }

    /// Create an evaluator that executes a tape the caller already
    /// compiled from this circuit's netlist — lets many evaluators (e.g.
    /// parallel error-analysis workers) share one lowering.
    ///
    /// # Panics
    ///
    /// Panics if `tape` was not compiled from a netlist with the same
    /// net and input counts as `circuit.netlist()`.
    pub fn with_tape(circuit: &'c ArithCircuit, tape: &'c SimTape) -> BatchEvaluator<'c> {
        assert_eq!(
            tape.num_nets(),
            circuit.netlist().len(),
            "tape was compiled from a different netlist (net count mismatch)"
        );
        assert_eq!(
            tape.num_inputs(),
            circuit.netlist().num_inputs(),
            "tape was compiled from a different netlist (input count mismatch)"
        );
        Self::build(circuit, TapeRef::Shared(tape))
    }

    /// Create an evaluator over the DAG of a simulation batch (see
    /// [`crate::plan_batches`]): `tape` was compiled from the DAG,
    /// whose first `2 * width` inputs carry the operands. Load a block
    /// with [`BatchEvaluator::load_pairs`] or
    /// [`BatchEvaluator::load_exhaustive`], then read each member's
    /// output nets with [`BatchEvaluator::lane_words`].
    pub fn for_dag(tape: &'c SimTape, width: usize) -> BatchEvaluator<'c> {
        BatchEvaluator {
            width,
            inputs: vec![0u64; tape.num_inputs() * LANE_WORDS],
            tape: TapeRef::Shared(tape),
            values: Vec::new(),
            outputs: Vec::new(),
        }
    }

    fn build(circuit: &'c ArithCircuit, tape: TapeRef<'c>) -> BatchEvaluator<'c> {
        let outputs: Vec<usize> = circuit
            .netlist()
            .outputs()
            .iter()
            .map(|o| o.index())
            .collect();
        assert!(
            outputs.len() <= 64,
            "batch evaluation supports at most 64 output bits"
        );
        BatchEvaluator {
            width: circuit.width(),
            tape,
            inputs: vec![0u64; circuit.netlist().num_inputs() * LANE_WORDS],
            values: Vec::new(),
            outputs,
        }
    }

    /// Evaluate a block of at most [`LANES`] operand pairs in one wide
    /// pass, appending one result per pair.
    ///
    /// # Panics
    ///
    /// Panics if `pairs.len() > LANES`.
    pub fn eval_block_into(&mut self, pairs: &[(u64, u64)], out: &mut Vec<u64>) {
        self.load_pairs(pairs);
        self.unpack_into(pairs.len(), out);
    }

    /// Pack a block of at most [`LANES`] operand pairs and run the wide
    /// kernel over it: lane `l` of every net's
    /// [`BatchEvaluator::lane_words`] then belongs to `pairs[l]`.
    ///
    /// # Panics
    ///
    /// Panics if `pairs.len() > LANES`.
    pub fn load_pairs(&mut self, pairs: &[(u64, u64)]) {
        assert!(pairs.len() <= LANES, "a block is at most LANES lanes");
        match 2 * self.width {
            0..=16 => self.pack::<16>(pairs),
            17..=32 => self.pack::<32>(pairs),
            _ => self.pack::<64>(pairs),
        }
        self.execute();
    }

    /// Pack `pairs` into the input blocks through `F`-bit field
    /// transposes (`2 * width <= F`): lane `l` of lane word `j` is row
    /// `(j mod 64/F)·F + l mod F`, field `l / F` of the lane-major matrix,
    /// and after transposing, row `(j mod 64/F)·F + o` is the simulation
    /// word of input `o` for lane word `j`.
    fn pack<const F: usize>(&mut self, pairs: &[(u64, u64)]) {
        const W: usize = LANE_WORDS;
        let words = 64 / F;
        let w = self.width;
        let mask = (1u64 << w) - 1;
        for (t, group) in pairs.chunks(64 * words).enumerate() {
            let mut m = [0u64; 64];
            for (rows, lanes) in m.chunks_exact_mut(F).zip(group.chunks(64)) {
                for (f, field) in lanes.chunks(F).enumerate() {
                    for (row, &(a, b)) in rows.iter_mut().zip(field) {
                        *row |= ((a & mask) | ((b & mask) << w)) << (f * F);
                    }
                }
            }
            afp_netlist::transpose::<F>(&mut m);
            for g in 0..group.len().div_ceil(64) {
                for o in 0..2 * w {
                    self.inputs[o * W + t * words + g] = m[g * F + o];
                }
            }
        }
    }

    /// Evaluate `n` consecutive pairs of the exhaustive enumeration
    /// starting at pair index `start`, where index `p` encodes the
    /// operands `(p >> w, p & ((1 << w) - 1))` — the row-major order the
    /// error analysis walks. When `start` is 64-aligned (always true for
    /// the analysis blocks) the operand packing collapses to writing
    /// precomputed periodic constants: zero per-pair packing work.
    ///
    /// # Panics
    ///
    /// Panics if `n > LANES`.
    pub fn eval_exhaustive_block_into(&mut self, start: u64, n: usize, out: &mut Vec<u64>) {
        self.load_exhaustive(start, n);
        self.unpack_into(n, out);
    }

    /// [`BatchEvaluator::load_pairs`] for `n` consecutive pairs of the
    /// exhaustive enumeration starting at pair index `start` (see
    /// [`BatchEvaluator::eval_exhaustive_block_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `n > LANES`.
    pub fn load_exhaustive(&mut self, start: u64, n: usize) {
        assert!(n <= LANES, "a block is at most LANES lanes");
        const W: usize = LANE_WORDS;
        let w = self.width;
        let mask = (1u64 << w) - 1;
        if start.is_multiple_of(64) {
            for o in 0..2 * w {
                // Input o carries pair-index bit q: operand a occupies
                // the high w index bits, operand b the low w.
                let q = if o < w { w + o } else { o - w };
                for j in 0..W {
                    self.inputs[o * W + j] = if q < 6 {
                        EXHAUSTIVE_PAT[q]
                    } else {
                        let base = start + (j * 64) as u64;
                        0u64.wrapping_sub((base >> q) & 1)
                    };
                }
            }
        } else {
            for l in 0..n {
                let p = start + l as u64;
                afp_netlist::pack_operand_wide(&mut self.inputs, 0, w, l, p >> w);
                afp_netlist::pack_operand_wide(&mut self.inputs, w, w, l, p & mask);
            }
        }
        self.execute();
    }

    /// Run the wide kernel over the packed input blocks.
    fn execute(&mut self) {
        let tape = match &self.tape {
            TapeRef::Owned(t) => t,
            TapeRef::Shared(t) => t,
        };
        tape.execute_wide(&self.inputs, &mut self.values);
    }

    /// The wide-kernel value block of net `net` after the last load: bit
    /// `l % 64` of word `l / 64` is the net's value on lane `l`.
    pub fn lane_words(&self, net: u32) -> &[u64; LANE_WORDS] {
        self.values[net as usize * LANE_WORDS..][..LANE_WORDS]
            .try_into()
            .expect("one block per net")
    }

    /// Append the first `n` lane results of the loaded block to `out`,
    /// extracted through the narrowest field transpose that holds the
    /// output width.
    fn unpack_into(&self, n: usize, out: &mut Vec<u64>) {
        match self.outputs.len() {
            0..=16 => self.unpack::<16>(n, out),
            17..=32 => self.unpack::<32>(n, out),
            _ => self.unpack::<64>(n, out),
        }
    }

    /// The inverse of [`BatchEvaluator::pack`] on the output nets
    /// (`outputs.len() <= F`): row `g·F + b` holds output bit `b` of lane
    /// word `j + g`; after transposing, field `l / F` of row `g·F + l mod F`
    /// is the integer result of lane `l`.
    fn unpack<const F: usize>(&self, n: usize, out: &mut Vec<u64>) {
        const W: usize = LANE_WORDS;
        let words = 64 / F;
        let field = u64::MAX >> (64 - F);
        let mut j = 0;
        let mut done = 0;
        while done < n {
            let mut m = [0u64; 64];
            for g in 0..words {
                for (b, &o) in self.outputs.iter().enumerate() {
                    m[g * F + b] = self.values[o * W + j + g];
                }
            }
            afp_netlist::transpose::<F>(&mut m);
            for rows in m.chunks_exact(F) {
                let lanes = (n - done).min(64);
                for f in 0..words {
                    let take = lanes.saturating_sub(f * F).min(F);
                    out.extend(rows[..take].iter().map(|&r| (r >> (f * F)) & field));
                }
                done += lanes;
            }
            j += words;
        }
    }

    /// Evaluate any number of operand pairs, [`LANES`] per wide pass.
    pub fn eval_pairs(&mut self, pairs: &[(u64, u64)]) -> Vec<u64> {
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(LANES) {
            self.eval_block_into(chunk, &mut out);
        }
        out
    }
}

/// A 64-bit behavioural signature of a circuit: outputs hashed over a fixed
/// deterministic stimulus (corner cases + pseudo-random pairs). Two circuits
/// with equal signatures almost surely compute the same function; used for
/// library dedup.
pub fn behavioral_signature(circuit: &ArithCircuit) -> u64 {
    let w = circuit.width();
    let mask = (1u64 << w) - 1;
    let mut pairs: Vec<(u64, u64)> = vec![
        (0, 0),
        (mask, mask),
        (0, mask),
        (mask, 0),
        (1, 1),
        (mask >> 1, (mask >> 1) + 1),
    ];
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (w as u64);
    for _ in 0..122 {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let v = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        pairs.push((v & mask, (v >> 32) & mask));
    }
    let mut batch = BatchEvaluator::new(circuit);
    let outs = batch.eval_pairs(&pairs);
    // FNV-1a over the output stream.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for o in outs {
        for byte in o.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Split `circuits` into simulation batches: each batch's indices into
/// `circuits`, in member order.
///
/// A batch holds circuits of one kind and width, in slice order, while
/// their gates and the shared primary inputs add up to at most
/// [`SIM_BATCH_NODES`] (a circuit over that is a batch alone). That
/// bounds the batch's hash-consed DAG without hashing anything, so the
/// plan is cheap and each batch can be built where it is simulated (see
/// [`simulation_batch`]).
pub fn plan_batches<C: Borrow<ArithCircuit>>(circuits: &[C]) -> Vec<Vec<usize>> {
    let mut groups: Vec<((ArithKind, usize), Vec<usize>)> = Vec::new();
    for (i, c) in circuits.iter().enumerate() {
        let c = c.borrow();
        let shape = (c.kind(), c.width());
        match groups.iter_mut().find(|(s, _)| *s == shape) {
            Some((_, group)) => group.push(i),
            None => groups.push((shape, vec![i])),
        }
    }
    let mut batches = Vec::new();
    for (_, group) in groups {
        let mut batch: Vec<usize> = Vec::new();
        let mut nodes = 0;
        for i in group {
            let netlist = circuits[i].borrow().netlist();
            let gates = netlist.len() - netlist.num_inputs();
            if !batch.is_empty() && nodes + gates > SIM_BATCH_NODES {
                batches.push(std::mem::take(&mut batch));
            }
            if batch.is_empty() {
                nodes = netlist.num_inputs();
            }
            nodes += gates;
            batch.push(i);
        }
        batches.push(batch);
    }
    batches
}

/// The simulation batch of `members` (circuits of one kind and width, as
/// planned by [`plan_batches`]): hash-consed into one DAG, or for a lone
/// circuit its own netlist, with nothing hashed.
///
/// # Panics
///
/// Panics if `members` is empty.
pub fn simulation_batch<'a>(members: &[&'a ArithCircuit]) -> NetlistBatch<'a> {
    match members {
        [] => panic!("a simulation batch has a member"),
        [one] => NetlistBatch::single(one.netlist()),
        [first, ..] => NetlistBatch::hash_cons(
            first.netlist().num_inputs(),
            members.iter().map(|c| c.netlist()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_netlist::NetId;

    fn wire_adder(width: usize) -> ArithCircuit {
        // "Adder" that just returns operand a (zero-extended): legal
        // interface, very approximate.
        let mut n = Netlist::new("wire_add");
        let a = n.add_inputs(width);
        let _b = n.add_inputs(width);
        let zero = n.constant(false);
        let mut outs = a;
        outs.push(zero);
        n.set_outputs(outs);
        ArithCircuit::new(ArithKind::Adder, width, n)
    }

    #[test]
    fn batches_group_by_shape_and_split_at_the_node_budget() {
        let add = crate::adders::ripple_carry(8);
        let mul = crate::multipliers::array_multiplier(8);
        let gates = mul.netlist().len() - mul.netlist().num_inputs();
        // One multiplier more than fit a batch, around two adders.
        let fit = (SIM_BATCH_NODES - 16) / gates;
        let mut circuits = vec![add.clone(), mul.clone(), add.clone()];
        circuits.extend((0..fit).map(|_| mul.clone()));
        let plan = plan_batches(&circuits);
        let muls: Vec<usize> = std::iter::once(1).chain(3..fit + 2).collect();
        assert_eq!(plan, [vec![0, 2], muls, vec![fit + 2]]);

        let members: Vec<&ArithCircuit> = plan[1].iter().map(|&i| &circuits[i]).collect();
        let batch = simulation_batch(&members);
        assert_eq!(batch.len(), fit);
        assert!(batch.dag().len() <= SIM_BATCH_NODES);
        // Identical members fold into the first one's nodes.
        assert_eq!(batch.dag().len(), mul.netlist().len());
        let lone = simulation_batch(&[&circuits[fit + 2]]);
        assert_eq!(lone.dag(), mul.netlist());
    }

    #[test]
    fn kind_metadata() {
        assert_eq!(ArithKind::Adder.out_width(8), 9);
        assert_eq!(ArithKind::Multiplier.out_width(8), 16);
        assert_eq!(ArithKind::Adder.max_output(8), 511);
        assert_eq!(ArithKind::Multiplier.max_output(8), 65535);
        assert_eq!(ArithKind::Adder.exact(8, 255, 255), 510);
        assert_eq!(ArithKind::Multiplier.exact(8, 255, 255), 65025);
    }

    #[test]
    #[should_panic(expected = "primary inputs")]
    fn interface_mismatch_panics() {
        let n = Netlist::new("empty");
        let _ = ArithCircuit::new(ArithKind::Adder, 4, n);
    }

    #[test]
    fn wire_adder_behaves_as_declared() {
        let c = wire_adder(4);
        assert_eq!(c.eval(9, 3), 9);
        assert_eq!(c.exact(9, 3), 12);
    }

    #[test]
    fn batch_matches_single_eval() {
        let c = wire_adder(6);
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i % 64, (i * 7) % 64)).collect();
        let mut batch = BatchEvaluator::new(&c);
        let out = batch.eval_pairs(&pairs);
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(out[i], c.eval(a, b));
        }
    }

    #[test]
    fn every_field_width_round_trips_operands_and_results() {
        // Operand bits (2w) and output bits pick the field widths: add6
        // packs and unpacks at F=16, add16 (17 outputs) and mul16 (32,
        // the F=32 limit) at F=32, add32 (64 operand bits, 33 outputs)
        // at F=64. Block sizes straddle the 64-lane word and the
        // transpose-group boundaries.
        let circuits = [
            crate::adders::ripple_carry(6),
            crate::adders::ripple_carry(16),
            crate::adders::ripple_carry(32),
            crate::multipliers::array_multiplier(16),
        ];
        for c in &circuits {
            let w = c.width();
            let mask = (1u64 << w) - 1;
            let mut batch = BatchEvaluator::new(c);
            for n in [1usize, 63, 64, 65, 200, 256, 300, LANES] {
                let pairs: Vec<(u64, u64)> = (0..n as u64)
                    .map(|i| {
                        let v = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        (v & mask, (v >> 29) & mask)
                    })
                    .collect();
                let mut got = Vec::new();
                batch.eval_block_into(&pairs, &mut got);
                assert_eq!(got.len(), n);
                for (i, &(a, b)) in pairs.iter().enumerate() {
                    assert_eq!(got[i], c.exact(a, b), "{} n={n} pair {i}", c.name());
                }
            }
        }
    }

    #[test]
    fn exhaustive_block_matches_explicit_pairs() {
        let c = crate::adders::ripple_carry(5);
        let w = 5;
        let mask = (1u64 << w) - 1;
        let mut batch = BatchEvaluator::new(&c);
        // Aligned starts take the periodic-constant fast path, unaligned
        // ones the generic wide pack; both must agree with pair-by-pair
        // evaluation.
        for start in [0u64, 512, 64, 33, 97] {
            let n = 300;
            let mut fast = Vec::new();
            batch.eval_exhaustive_block_into(start, n, &mut fast);
            let pairs: Vec<(u64, u64)> = (0..n as u64)
                .map(|l| {
                    let p = start + l;
                    ((p >> w) & mask, p & mask)
                })
                .collect();
            assert_eq!(fast, batch.eval_pairs(&pairs), "start {start}");
        }
    }

    #[test]
    fn shared_tape_matches_owned_tape() {
        let c = crate::multipliers::wallace_multiplier(4);
        let tape = SimTape::compile(c.netlist());
        let pairs: Vec<(u64, u64)> = (0..16u64)
            .flat_map(|a| (0..16u64).map(move |b| (a, b)))
            .collect();
        let mut owned = BatchEvaluator::new(&c);
        let mut shared = BatchEvaluator::with_tape(&c, &tape);
        let out = owned.eval_pairs(&pairs);
        assert_eq!(out, shared.eval_pairs(&pairs));
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(out[i], a * b, "pair {i}");
        }
    }

    #[test]
    fn signature_distinguishes_functions() {
        let a = wire_adder(4);
        let mut n = Netlist::new("other");
        let ins = n.add_inputs(8);
        let zero = n.constant(false);
        let mut outs: Vec<NetId> = ins[4..8].to_vec(); // returns b instead
        outs.push(zero);
        n.set_outputs(outs);
        let b = ArithCircuit::new(ArithKind::Adder, 4, n);
        assert_ne!(behavioral_signature(&a), behavioral_signature(&b));
        assert_eq!(behavioral_signature(&a), behavioral_signature(&a.clone()));
    }
}
