//! Structural export: Verilog netlists.
//!
//! The Verilog writer emits the same gate-level structural style the
//! EvoApprox library distributes, so circuits from this reproduction can be
//! dropped into a real FPGA/ASIC tool-flow unchanged.

use std::fmt::Write as _;

use crate::gate::Gate;
use crate::netlist::{NetId, Netlist};

/// Render a netlist as a structural Verilog module.
///
/// Inputs are emitted as a flat `pi<N>` port list and outputs as `po<N>`;
/// word-level wrappers (buses) are the concern of the circuit generators.
///
/// # Example
///
/// ```
/// use afp_netlist::{Netlist, export};
///
/// let mut n = Netlist::new("tiny");
/// let a = n.add_input();
/// let b = n.add_input();
/// let y = n.nand(a, b);
/// n.set_outputs(vec![y]);
/// let v = export::to_verilog(&n);
/// assert!(v.contains("module tiny"));
/// assert!(v.contains("~("));
/// ```
pub fn to_verilog(netlist: &Netlist) -> String {
    let mut s = String::new();
    let name = sanitize(netlist.name());
    let _ = write!(s, "module {name}(");
    let mut ports: Vec<String> = (0..netlist.num_inputs())
        .map(|i| format!("pi{i}"))
        .collect();
    ports.extend((0..netlist.num_outputs()).map(|i| format!("po{i}")));
    let _ = writeln!(s, "{});", ports.join(", "));
    for i in 0..netlist.num_inputs() {
        let _ = writeln!(s, "  input pi{i};");
    }
    for i in 0..netlist.num_outputs() {
        let _ = writeln!(s, "  output po{i};");
    }
    for (i, gate) in netlist.gates().iter().enumerate() {
        if gate.is_logic() || matches!(gate, Gate::Const(_)) {
            let _ = writeln!(s, "  wire n{i};");
        }
    }
    let net = |id: NetId| -> String {
        match netlist.gate(id) {
            Gate::Input(ord) => format!("pi{ord}"),
            _ => format!("n{}", id.index()),
        }
    };
    for (i, gate) in netlist.gates().iter().enumerate() {
        let rhs = match *gate {
            Gate::Input(_) => continue,
            Gate::Const(v) => format!("1'b{}", v as u8),
            Gate::Buf(a) => net(a),
            Gate::Not(a) => format!("~{}", net(a)),
            Gate::And(a, b) => format!("{} & {}", net(a), net(b)),
            Gate::Or(a, b) => format!("{} | {}", net(a), net(b)),
            Gate::Xor(a, b) => format!("{} ^ {}", net(a), net(b)),
            Gate::Nand(a, b) => format!("~({} & {})", net(a), net(b)),
            Gate::Nor(a, b) => format!("~({} | {})", net(a), net(b)),
            Gate::Xnor(a, b) => format!("~({} ^ {})", net(a), net(b)),
            Gate::Mux(s0, a, b) => {
                format!("{} ? {} : {}", net(s0), net(b), net(a))
            }
            Gate::Maj(a, b, c) => format!(
                "({0} & {1}) | ({0} & {2}) | ({1} & {2})",
                net(a),
                net(b),
                net(c)
            ),
        };
        let _ = writeln!(s, "  assign n{i} = {rhs};");
    }
    for (p, out) in netlist.outputs().iter().enumerate() {
        let _ = writeln!(s, "  assign po{p} = {};", net(*out));
    }
    let _ = writeln!(s, "endmodule");
    s
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Netlist;

    fn sample() -> Netlist {
        let mut n = Netlist::new("add-1b");
        let a = n.add_input();
        let b = n.add_input();
        let s0 = n.xor(a, b);
        let c = n.and(a, b);
        n.set_outputs(vec![s0, c]);
        n
    }

    #[test]
    fn verilog_declares_ports_and_assigns() {
        let v = to_verilog(&sample());
        assert!(v.starts_with("module add_1b(pi0, pi1, po0, po1);"));
        assert!(v.contains("input pi0;"));
        assert!(v.contains("output po1;"));
        assert!(v.contains("assign n2 = pi0 ^ pi1;"));
        assert!(v.contains("assign po0 = n2;"));
        assert!(v.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn verilog_renders_const_and_maj() {
        let mut n = Netlist::new("m");
        let a = n.add_input();
        let b = n.add_input();
        let k = n.constant(true);
        let y = n.maj(a, b, k);
        n.set_outputs(vec![y]);
        let v = to_verilog(&n);
        assert!(v.contains("1'b1"));
        assert!(v.contains("(pi0 & pi1)"));
    }
}
