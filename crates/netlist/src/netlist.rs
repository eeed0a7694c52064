use std::fmt;

use crate::gate::{Gate, GateKind};

/// Identifier of a net (the output of one gate) inside a [`Netlist`].
///
/// `NetId`s are dense indices; they are only meaningful for the netlist that
/// produced them.
// Safe total order (`Eq + Ord`, no float keys): the clippy.toml
// `partial_cmp` ban fires inside the derive expansion, not here.
#[allow(clippy::disallowed_methods)]
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(u32);

impl NetId {
    /// Construct from a dense index.
    #[inline]
    pub fn from_index(index: usize) -> NetId {
        NetId(index as u32)
    }

    /// The dense index of this net.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Error produced by [`Netlist::validate`] and the checked constructors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate at `gate` references operand `operand` that is not an earlier
    /// node, violating topological order (or is out of bounds).
    ForwardReference {
        /// Index of the offending gate.
        gate: usize,
        /// The operand that points forward/out of bounds.
        operand: usize,
    },
    /// An `Input` gate appears after the first logic gate, or its ordinal is
    /// inconsistent with its position.
    MisplacedInput {
        /// Index of the offending gate.
        gate: usize,
    },
    /// A primary output references a net that does not exist.
    DanglingOutput {
        /// Position in the output list.
        position: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::ForwardReference { gate, operand } => {
                write!(f, "gate {gate} references non-earlier net {operand}")
            }
            NetlistError::MisplacedInput { gate } => {
                write!(f, "input gate {gate} is misplaced or misnumbered")
            }
            NetlistError::DanglingOutput { position } => {
                write!(f, "output {position} references a missing net")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A combinational gate-level netlist.
///
/// Nodes are stored in topological order: primary inputs first, then logic
/// gates, each of which may only reference earlier nodes. This invariant is
/// maintained by the builder methods ([`Netlist::and`], [`Netlist::xor`],
/// ...) and checked by [`Netlist::validate`].
///
/// # Example
///
/// ```
/// use afp_netlist::Netlist;
///
/// let mut n = Netlist::new("mux_demo");
/// let s = n.add_input();
/// let a = n.add_input();
/// let b = n.add_input();
/// let y = n.mux(s, a, b);
/// n.set_outputs(vec![y]);
/// assert_eq!(n.eval_bits(&[false, true, false]), vec![true]); // s=0 -> a
/// assert_eq!(n.eval_bits(&[true, true, false]), vec![false]); // s=1 -> b
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    num_inputs: usize,
    outputs: Vec<NetId>,
}

impl Netlist {
    /// Create an empty netlist with the given instance name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            gates: Vec::new(),
            num_inputs: 0,
            outputs: Vec::new(),
        }
    }

    /// The instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the netlist.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Primary output nets, LSB-first by convention for arithmetic circuits.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// All nodes in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total node count (inputs + constants + logic).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the netlist has no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of logic gates (excludes inputs and constants).
    pub fn num_logic_gates(&self) -> usize {
        self.gates.iter().filter(|g| g.is_logic()).count()
    }

    /// A 64-bit hash of the netlist *structure*: gate kinds, operand
    /// wiring and the output list. The instance name is deliberately
    /// excluded, so renamed copies of the same circuit hash identically.
    ///
    /// The hash is a fixed FNV-1a (not `std::hash`), stable across
    /// processes and releases — it keys the on-disk characterization
    /// cache.
    pub fn structural_hash(&self) -> u64 {
        const PRIME: u64 = 0x100_0000_01b3;
        // `PRIME_POW[k]` = PRIME^k (mod 2^64).
        const PRIME_POW: [u64; 9] = {
            let mut pow = [1u64; 9];
            let mut k = 1;
            while k < 9 {
                pow[k] = pow[k - 1].wrapping_mul(PRIME);
                k += 1;
            }
            pow
        };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        // FNV-1a over the eight little-endian bytes of `v`. Absorbing a
        // zero byte only multiplies by PRIME, so the high zero bytes of a
        // small value fold into one multiply by a power of PRIME: the
        // same bits in fewer serial steps.
        let absorb = |v: u64, h: &mut u64| {
            let len = 8 - (v.leading_zeros() / 8) as usize;
            for &byte in &v.to_le_bytes()[..len] {
                *h ^= byte as u64;
                *h = h.wrapping_mul(PRIME);
            }
            *h = h.wrapping_mul(PRIME_POW[8 - len]);
        };
        absorb(self.num_inputs as u64, &mut h);
        for gate in &self.gates {
            // Kind discriminant, then payload: input ordinal, constant
            // value, or operand indices.
            absorb(gate.kind() as u64, &mut h);
            match *gate {
                Gate::Input(ord) => absorb(ord as u64, &mut h),
                Gate::Const(v) => absorb(v as u64, &mut h),
                _ => {
                    for op in gate.operands() {
                        absorb(op.index() as u64, &mut h);
                    }
                }
            }
        }
        absorb(self.outputs.len() as u64, &mut h);
        for o in &self.outputs {
            absorb(o.index() as u64, &mut h);
        }
        h
    }

    /// The gate driving `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn gate(&self, id: NetId) -> Gate {
        self.gates[id.index()]
    }

    /// The net of the `i`-th primary input.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inputs()`.
    pub fn input(&self, i: usize) -> NetId {
        assert!(i < self.num_inputs, "input ordinal out of range");
        NetId::from_index(i)
    }

    /// Append a primary input and return its net.
    ///
    /// # Panics
    ///
    /// Panics if logic gates have already been added (inputs must be declared
    /// first so the topological prefix invariant holds).
    pub fn add_input(&mut self) -> NetId {
        assert_eq!(
            self.gates.len(),
            self.num_inputs,
            "all primary inputs must be declared before any logic gate"
        );
        let id = NetId::from_index(self.gates.len());
        self.gates.push(Gate::Input(self.num_inputs as u16));
        self.num_inputs += 1;
        id
    }

    /// Reserve room for at least `additional` more gates.
    pub fn reserve(&mut self, additional: usize) {
        self.gates.reserve(additional);
    }

    /// Append `n` primary inputs, returning their nets in order.
    pub fn add_inputs(&mut self, n: usize) -> Vec<NetId> {
        (0..n).map(|_| self.add_input()).collect()
    }

    fn push(&mut self, gate: Gate) -> NetId {
        debug_assert!(gate.operands().all(|op| op.index() < self.gates.len()));
        let id = NetId::from_index(self.gates.len());
        self.gates.push(gate);
        id
    }

    /// Append a constant node.
    pub fn constant(&mut self, value: bool) -> NetId {
        self.push(Gate::Const(value))
    }

    /// Append a buffer.
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.push(Gate::Buf(a))
    }

    /// Append an inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.push(Gate::Not(a))
    }

    /// Append a 2-input AND.
    pub fn and(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(Gate::And(a, b))
    }

    /// Append a 2-input OR.
    pub fn or(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(Gate::Or(a, b))
    }

    /// Append a 2-input XOR.
    pub fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(Gate::Xor(a, b))
    }

    /// Append a 2-input NAND.
    pub fn nand(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(Gate::Nand(a, b))
    }

    /// Append a 2-input NOR.
    pub fn nor(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(Gate::Nor(a, b))
    }

    /// Append a 2-input XNOR.
    pub fn xnor(&mut self, a: NetId, b: NetId) -> NetId {
        self.push(Gate::Xnor(a, b))
    }

    /// Append a 2:1 mux computing `s ? b : a`.
    pub fn mux(&mut self, s: NetId, a: NetId, b: NetId) -> NetId {
        self.push(Gate::Mux(s, a, b))
    }

    /// Append a 3-input majority gate.
    pub fn maj(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.push(Gate::Maj(a, b, c))
    }

    /// Append an arbitrary gate.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if an operand references a non-earlier node.
    pub fn add_gate(&mut self, gate: Gate) -> NetId {
        if let Gate::Input(_) = gate {
            return self.add_input();
        }
        self.push(gate)
    }

    /// Declare the primary outputs (LSB-first for arithmetic buses).
    pub fn set_outputs(&mut self, outputs: Vec<NetId>) {
        self.outputs = outputs;
    }

    /// Replace the gate driving `id`.
    ///
    /// The caller is responsible for keeping the netlist acyclic: the new
    /// gate's operands must all be earlier than `id`. This is the primitive
    /// the mutation-based approximation operators use.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a primary input, or (in debug builds) if the
    /// replacement would create a forward reference.
    pub fn replace_gate(&mut self, id: NetId, gate: Gate) {
        assert!(
            !matches!(self.gates[id.index()], Gate::Input(_)),
            "cannot replace a primary input"
        );
        debug_assert!(gate.operands().all(|op| op.index() < id.index()));
        self.gates[id.index()] = gate;
    }

    /// Check all structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: forward references, misplaced or
    /// misnumbered inputs, or dangling outputs.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (i, gate) in self.gates.iter().enumerate() {
            match gate {
                Gate::Input(ord) => {
                    if i >= self.num_inputs || *ord as usize != i {
                        return Err(NetlistError::MisplacedInput { gate: i });
                    }
                }
                g => {
                    for op in g.operands() {
                        if op.index() >= i {
                            return Err(NetlistError::ForwardReference {
                                gate: i,
                                operand: op.index(),
                            });
                        }
                    }
                }
            }
        }
        for (p, out) in self.outputs.iter().enumerate() {
            if out.index() >= self.gates.len() {
                return Err(NetlistError::DanglingOutput { position: p });
            }
        }
        Ok(())
    }

    /// Histogram of gate kinds.
    pub fn kind_histogram(&self) -> std::collections::BTreeMap<GateKind, usize> {
        let mut h = std::collections::BTreeMap::new();
        for g in &self.gates {
            *h.entry(g.kind()).or_insert(0) += 1;
        }
        h
    }

    /// Evaluate the netlist on a single boolean input assignment.
    ///
    /// Convenience wrapper over [`crate::Simulator`] for tests and examples;
    /// for bulk evaluation construct a `Simulator` once and reuse it.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs()`.
    pub fn eval_bits(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.num_inputs, "input arity mismatch");
        let words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
        let mut sim = crate::Simulator::new(self);
        let out = sim.run(&words);
        out.iter().map(|&w| w & 1 == 1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Netlist {
        let mut n = Netlist::new("fa");
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let axb = n.xor(a, b);
        let s = n.xor(axb, c);
        let co = n.maj(a, b, c);
        n.set_outputs(vec![s, co]);
        n
    }

    #[test]
    fn full_adder_truth_table() {
        let n = full_adder();
        for v in 0u32..8 {
            let bits = [(v & 1) != 0, (v & 2) != 0, (v & 4) != 0];
            let out = n.eval_bits(&bits);
            let expected = bits.iter().filter(|&&b| b).count() as u32;
            let got = out[0] as u32 | ((out[1] as u32) << 1);
            assert_eq!(got, expected, "input {v:03b}");
        }
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(full_adder().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let mut n = full_adder();
        // Manually corrupt: make gate 3 reference gate 5.
        n.gates[3] = Gate::And(NetId::from_index(5), NetId::from_index(0));
        assert!(matches!(
            n.validate(),
            Err(NetlistError::ForwardReference { gate: 3, .. })
        ));
    }

    #[test]
    fn validate_rejects_dangling_output() {
        let mut n = full_adder();
        n.set_outputs(vec![NetId::from_index(999)]);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::DanglingOutput { position: 0 })
        ));
    }

    #[test]
    #[should_panic(expected = "before any logic gate")]
    fn inputs_after_logic_panic() {
        let mut n = Netlist::new("bad");
        let a = n.add_input();
        let _ = n.not(a);
        let _ = n.add_input();
    }

    #[test]
    fn replace_gate_rewrites_function() {
        let mut n = Netlist::new("r");
        let a = n.add_input();
        let b = n.add_input();
        let y = n.and(a, b);
        n.set_outputs(vec![y]);
        assert_eq!(n.eval_bits(&[true, false]), vec![false]);
        n.replace_gate(y, Gate::Or(a, b));
        assert_eq!(n.eval_bits(&[true, false]), vec![true]);
    }

    #[test]
    fn histogram_counts_kinds() {
        let n = full_adder();
        let h = n.kind_histogram();
        assert_eq!(h[&GateKind::Input], 3);
        assert_eq!(h[&GateKind::Xor], 2);
        assert_eq!(h[&GateKind::Maj], 1);
    }

    #[test]
    fn num_logic_gates_excludes_inputs_and_consts() {
        let mut n = Netlist::new("c");
        let a = n.add_input();
        let k = n.constant(true);
        let y = n.and(a, k);
        n.set_outputs(vec![y]);
        assert_eq!(n.num_logic_gates(), 1);
        assert_eq!(n.len(), 3);
    }

    #[test]
    fn structural_hash_ignores_name_but_not_structure() {
        let mut a = full_adder();
        let mut b = full_adder();
        b.set_name("renamed");
        assert_eq!(a.structural_hash(), b.structural_hash());

        // Different wiring → different hash.
        let y = b.outputs()[0];
        let (i0, i1) = (b.input(0), b.input(1));
        b.replace_gate(y, Gate::Or(i0, i1));
        assert_ne!(a.structural_hash(), b.structural_hash());

        // Different output order → different hash.
        let outs: Vec<NetId> = a.outputs().iter().rev().copied().collect();
        a.set_outputs(outs);
        assert_ne!(a.structural_hash(), full_adder().structural_hash());
    }

    /// The byte-at-a-time FNV-1a that `structural_hash` folds zero bytes
    /// of: eight multiplies per absorbed value.
    fn bytewise_hash(n: &Netlist) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut absorb = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        absorb(n.num_inputs() as u64);
        for gate in n.gates() {
            absorb(gate.kind() as u64);
            match *gate {
                Gate::Input(ord) => absorb(ord as u64),
                Gate::Const(v) => absorb(v as u64),
                _ => gate.operands().for_each(|op| absorb(op.index() as u64)),
            }
        }
        absorb(n.outputs().len() as u64);
        n.outputs().iter().for_each(|o| absorb(o.index() as u64));
        h
    }

    #[test]
    fn structural_hash_matches_the_bytewise_fnv() {
        // Enough gates that operand indices take one, two and three bytes.
        let mut n = Netlist::new("wide");
        let ins = n.add_inputs(300);
        let mut cur = n.constant(true);
        for i in 0..70_000 {
            cur = match i % 3 {
                0 => n.xor(cur, ins[i % 300]),
                1 => n.mux(ins[i % 7], cur, ins[299]),
                _ => n.not(cur),
            };
        }
        n.set_outputs(vec![cur, ins[0], ins[299]]);
        for netlist in [n, full_adder(), Netlist::new("empty")] {
            assert_eq!(netlist.structural_hash(), bytewise_hash(&netlist));
        }
    }
}
