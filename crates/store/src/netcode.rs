//! Varint-packed binary netlist encoding.
//!
//! Gates are stored in topological order as a kind byte plus operand
//! *back-deltas* (`gate_index - operand_index`, always ≥ 1). Deltas are
//! small for the local wiring typical of arithmetic circuits, so most
//! operands take one varint byte, and the delta stream is highly
//! repetitive — exactly what the block-level LZ codec feeds on. Primary
//! inputs are implied by the input count and never stored per-gate.
//!
//! ```text
//! netlist := name_len uvarint | name bytes | num_inputs uvarint
//!          | num_gates uvarint | gate* | num_outputs uvarint | out_delta*
//! gate    := kind u8 | (const: value u8 | logic: delta uvarint per operand)
//! out_delta := num_gates - output_index   (uvarint, ≥ 1)
//! ```
//!
//! The kind codes below are part of the on-disk format and must never be
//! renumbered; new gate kinds get fresh codes.

use afp_netlist::{Gate, Netlist};

use crate::bytes::{put_uvarint, ByteReader};

// Stable on-disk gate kind codes (NOT the GateKind discriminant, which is
// free to be reordered in memory).
const K_CONST: u8 = 1;
const K_BUF: u8 = 2;
const K_NOT: u8 = 3;
const K_AND: u8 = 4;
const K_OR: u8 = 5;
const K_XOR: u8 = 6;
const K_NAND: u8 = 7;
const K_NOR: u8 = 8;
const K_XNOR: u8 = 9;
const K_MUX: u8 = 10;
const K_MAJ: u8 = 11;

/// Encode `netlist` into `out`.
///
/// The netlist must satisfy [`Netlist::validate`]; encodings of invalid
/// netlists (e.g. an `Input` gate after logic) are rejected by
/// [`decode_netlist`] rather than silently mangled.
pub fn encode_netlist(netlist: &Netlist, out: &mut Vec<u8>) {
    let name = netlist.name().as_bytes();
    put_uvarint(out, name.len() as u64);
    out.extend_from_slice(name);
    put_uvarint(out, netlist.num_inputs() as u64);
    put_uvarint(out, netlist.len() as u64);
    for (i, gate) in netlist
        .gates()
        .iter()
        .enumerate()
        .skip(netlist.num_inputs())
    {
        match *gate {
            // A misplaced Input is invalid; code 0 makes decode fail.
            Gate::Input(_) => out.push(0),
            Gate::Const(v) => {
                out.push(K_CONST);
                out.push(v as u8);
            }
            _ => {
                out.push(kind_code(gate));
                for op in gate.operands() {
                    put_uvarint(out, (i - op.index()) as u64);
                }
            }
        }
    }
    put_uvarint(out, netlist.num_outputs() as u64);
    for o in netlist.outputs() {
        put_uvarint(out, (netlist.len() - o.index()) as u64);
    }
}

fn kind_code(gate: &Gate) -> u8 {
    match gate {
        Gate::Input(_) => 0,
        Gate::Const(_) => K_CONST,
        Gate::Buf(_) => K_BUF,
        Gate::Not(_) => K_NOT,
        Gate::And(..) => K_AND,
        Gate::Or(..) => K_OR,
        Gate::Xor(..) => K_XOR,
        Gate::Nand(..) => K_NAND,
        Gate::Nor(..) => K_NOR,
        Gate::Xnor(..) => K_XNOR,
        Gate::Mux(..) => K_MUX,
        Gate::Maj(..) => K_MAJ,
    }
}

/// Decode a netlist previously written by [`encode_netlist`]. Returns
/// `None` on any malformed input; a successful decode is structurally
/// identical to the original (exact `PartialEq`, name included) and has
/// been re-validated.
pub fn decode_netlist(r: &mut ByteReader<'_>) -> Option<Netlist> {
    let name_len = r.uvarint()? as usize;
    let name = std::str::from_utf8(r.bytes(name_len)?).ok()?;
    let num_inputs = r.uvarint()? as usize;
    let num_gates = r.uvarint()? as usize;
    if num_inputs > num_gates || num_inputs > u16::MAX as usize {
        return None;
    }
    let mut netlist = Netlist::new(name);
    // Every stored gate takes at least two bytes, so a header cannot
    // reserve more gates than the payload left could hold.
    netlist.reserve(num_inputs + (num_gates - num_inputs).min(r.remaining() / 2));
    for _ in 0..num_inputs {
        netlist.add_input();
    }
    for i in num_inputs..num_gates {
        let kind = r.u8()?;
        if kind == K_CONST {
            let v = r.u8()?;
            if v > 1 {
                return None;
            }
            netlist.constant(v == 1);
            continue;
        }
        let arity = match kind {
            K_BUF | K_NOT => 1,
            K_AND | K_OR | K_XOR | K_NAND | K_NOR | K_XNOR => 2,
            K_MUX | K_MAJ => 3,
            _ => return None,
        };
        let mut ops = [afp_netlist::NetId::from_index(0); 3];
        for op in ops.iter_mut().take(arity) {
            let delta = r.uvarint()? as usize;
            if delta == 0 || delta > i {
                return None;
            }
            *op = afp_netlist::NetId::from_index(i - delta);
        }
        let [a, b, c] = ops;
        match kind {
            K_BUF => netlist.buf(a),
            K_NOT => netlist.not(a),
            K_AND => netlist.and(a, b),
            K_OR => netlist.or(a, b),
            K_XOR => netlist.xor(a, b),
            K_NAND => netlist.nand(a, b),
            K_NOR => netlist.nor(a, b),
            K_XNOR => netlist.xnor(a, b),
            K_MUX => netlist.mux(a, b, c),
            K_MAJ => netlist.maj(a, b, c),
            _ => return None,
        };
    }
    let num_outputs = r.uvarint()? as usize;
    // Every output takes at least one byte.
    let mut outputs = Vec::with_capacity(num_outputs.min(r.remaining()));
    for _ in 0..num_outputs {
        let delta = r.uvarint()? as usize;
        if delta == 0 || delta > num_gates {
            return None;
        }
        outputs.push(afp_netlist::NetId::from_index(num_gates - delta));
    }
    netlist.set_outputs(outputs);
    netlist.validate().ok()?;
    Some(netlist)
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

    fn round_trip(n: &Netlist) -> Netlist {
        let mut buf = Vec::new();
        encode_netlist(n, &mut buf);
        let mut r = ByteReader::new(&buf);
        let decoded = decode_netlist(&mut r).expect("decode");
        assert!(r.is_empty(), "trailing bytes after decode");
        decoded
    }

    #[test]
    fn full_adder_round_trips_exactly() {
        let n = full_adder();
        assert_eq!(round_trip(&n), n);
    }

    #[test]
    fn all_gate_kinds_round_trip() {
        let mut n = Netlist::new("zoo");
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let k0 = n.constant(false);
        let k1 = n.constant(true);
        let g1 = n.buf(a);
        let g2 = n.not(b);
        let g3 = n.and(a, b);
        let g4 = n.or(g1, g2);
        let g5 = n.xor(g3, c);
        let g6 = n.nand(g4, g5);
        let g7 = n.nor(k0, g6);
        let g8 = n.xnor(k1, g7);
        let g9 = n.mux(c, g8, g3);
        let g10 = n.maj(g9, g8, a);
        n.set_outputs(vec![g10, g9, k1]);
        assert_eq!(n.validate(), Ok(()));
        assert_eq!(round_trip(&n), n);
    }

    #[test]
    fn empty_and_wire_only_netlists_round_trip() {
        let n = Netlist::new("empty");
        assert_eq!(round_trip(&n), n);

        let mut n = Netlist::new("wires");
        let a = n.add_input();
        let b = n.add_input();
        n.set_outputs(vec![b, a]);
        assert_eq!(round_trip(&n), n);
    }

    #[test]
    fn encoding_is_compact() {
        let n = full_adder();
        let mut buf = Vec::new();
        encode_netlist(&n, &mut buf);
        // name(1+2) + inputs(1) + gates(1) + 3 gates of ≤4 bytes + outputs(3)
        assert!(buf.len() <= 20, "full adder took {} bytes", buf.len());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let n = full_adder();
        let mut buf = Vec::new();
        encode_netlist(&n, &mut buf);
        // Truncations must fail cleanly at every cut point.
        for cut in 0..buf.len() {
            assert!(
                decode_netlist(&mut ByteReader::new(&buf[..cut])).is_none(),
                "truncation at {cut} decoded"
            );
        }
        // A forward/underflowing operand delta must be rejected.
        let mut bad = buf.clone();
        // gate stream starts after name(3 bytes)+inputs(1)+gates(1): kind
        // byte then first delta — zero it out.
        bad[6] = 0;
        assert!(decode_netlist(&mut ByteReader::new(&bad)).is_none());
    }
}
