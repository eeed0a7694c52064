//! Hash-consed simulation batches: several netlists over the same primary
//! inputs folded into one DAG [`Netlist`], so a node that many netlists
//! share is simulated once.
//!
//! Every net of a member netlist maps to the DAG node that computes the
//! same function of the primary inputs. Gates of one kind over the same
//! operand nodes are one node (operands of commutative gates are ordered
//! first), and a buffer is its operand's node. A net's simulated value is
//! therefore its node's value bit for bit, for any stimulus. That is what
//! lets error analysis and signal-probability estimation run once on the
//! DAG and gather each member's results through its net → node map.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::gate::Gate;
use crate::netlist::{NetId, Netlist};
use crate::sim::LANE_WORDS;

/// Lane-value bytes one batch's DAG may occupy in the wide simulation
/// kernel (one `[u64; LANE_WORDS]` block per node): 512 KiB. A DAG never
/// has more nodes than its primary inputs plus its members' gates, so a
/// batch planned to hold at most [`SIM_BATCH_NODES`] of those stays
/// within the budget before anything is hashed; with the sharing of a
/// generated library its DAG holds about a third of that.
pub const SIM_BATCH_BYTES: usize = 1 << 19;

/// Nodes one batch's DAG may hold: [`SIM_BATCH_BYTES`] of lane values
/// (8,192 nodes).
pub const SIM_BATCH_NODES: usize = SIM_BATCH_BYTES / (LANE_WORDS * 8);

/// Several netlists with the same primary inputs, simulated as one DAG.
///
/// # Example
///
/// ```
/// use afp_netlist::{Netlist, NetlistBatch};
///
/// let build = |swap: bool| {
///     let mut n = Netlist::new("and_or");
///     let a = n.add_input();
///     let b = n.add_input();
///     let x = if swap { n.and(b, a) } else { n.and(a, b) };
///     let y = n.or(x, a);
///     n.set_outputs(vec![y]);
///     n
/// };
/// let (n1, n2) = (build(false), build(true));
/// let batch = NetlistBatch::hash_cons(2, [&n1, &n2]);
/// assert_eq!(batch.len(), 2);
/// // Two inputs, one AND, one OR: the second netlist folded entirely.
/// assert_eq!(batch.dag().len(), 4);
/// assert_eq!(batch.shared_nodes(), 2);
/// assert_eq!(batch.outputs(0), batch.outputs(1));
/// ```
#[derive(Debug)]
pub struct NetlistBatch<'a> {
    dag: Cow<'a, Netlist>,
    /// Whether the DAG is the single member's own netlist (the map is the
    /// identity and nothing was hashed).
    identity: bool,
    /// Concatenated net → node maps; member `i`'s spans
    /// `starts[i]..starts[i + 1]`. Empty for a batch of one.
    maps: Vec<u32>,
    starts: Vec<usize>,
    /// Concatenated output nodes; member `i`'s span
    /// `out_starts[i]..out_starts[i + 1]`.
    outputs: Vec<u32>,
    out_starts: Vec<usize>,
    shared: u64,
}

impl<'a> NetlistBatch<'a> {
    /// Hash-cons `netlists` into one batch, in order. Every netlist must
    /// have `num_inputs` primary inputs.
    ///
    /// # Panics
    ///
    /// Panics if a netlist has a different number of primary inputs.
    pub fn hash_cons<'n>(
        num_inputs: usize,
        netlists: impl IntoIterator<Item = &'n Netlist>,
    ) -> NetlistBatch<'static> {
        let mut dag = Netlist::new("batch");
        dag.add_inputs(num_inputs);
        let mut batch = NetlistBatch {
            dag: Cow::Owned(dag),
            identity: false,
            maps: Vec::new(),
            starts: vec![0],
            outputs: Vec::new(),
            out_starts: vec![0],
            shared: 0,
        };
        // Canonical gate → its DAG node; only needed while building.
        let mut index: HashMap<Gate, u32> = HashMap::new();
        for netlist in netlists {
            assert_eq!(
                netlist.num_inputs(),
                num_inputs,
                "batch members must share their primary inputs"
            );
            batch.push(netlist, &mut index);
        }
        batch
    }

    /// A batch of one: the DAG is `netlist` itself, borrowed, with no
    /// hashing and the identity map.
    pub fn single(netlist: &'a Netlist) -> NetlistBatch<'a> {
        let outputs: Vec<u32> = netlist.outputs().iter().map(|o| o.index() as u32).collect();
        NetlistBatch {
            dag: Cow::Borrowed(netlist),
            identity: true,
            maps: Vec::new(),
            starts: vec![0, netlist.len()],
            out_starts: vec![0, outputs.len()],
            outputs,
            shared: 0,
        }
    }

    /// Fold `netlist` into the DAG as the next member.
    fn push(&mut self, netlist: &Netlist, index: &mut HashMap<Gate, u32>) {
        let dag = self.dag.to_mut();
        let base = self.maps.len();
        for gate in netlist.gates() {
            let node = match *gate {
                Gate::Input(ord) => ord as u32,
                Gate::Buf(a) => {
                    self.shared += 1;
                    self.maps[base + a.index()]
                }
                g => {
                    let key = g
                        .map_operands(|op| NetId::from_index(self.maps[base + op.index()] as usize))
                        .canonical();
                    match index.get(&key) {
                        Some(&node) => {
                            self.shared += g.is_logic() as u64;
                            node
                        }
                        None => {
                            let node = dag.add_gate(key).index() as u32;
                            index.insert(key, node);
                            node
                        }
                    }
                }
            };
            self.maps.push(node);
        }
        self.starts.push(self.maps.len());
        self.outputs.extend(
            netlist
                .outputs()
                .iter()
                .map(|o| self.maps[base + o.index()]),
        );
        self.out_starts.push(self.outputs.len());
    }

    /// Number of member netlists.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether the batch has no member yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hash-consed DAG every member is simulated on.
    pub fn dag(&self) -> &Netlist {
        &self.dag
    }

    /// DAG nodes of member `member`'s primary outputs, in output order.
    pub fn outputs(&self, member: usize) -> &[u32] {
        &self.outputs[self.out_starts[member]..self.out_starts[member + 1]]
    }

    /// Member `member`'s per-net values from per-node `dag_values`:
    /// `dag_values` itself for a batch of one, else gathered into `buf`
    /// (cleared first).
    pub fn gather<'v, T: Copy>(
        &self,
        member: usize,
        dag_values: &'v [T],
        buf: &'v mut Vec<T>,
    ) -> &'v [T] {
        if self.identity {
            return dag_values;
        }
        let map = &self.maps[self.starts[member]..self.starts[member + 1]];
        buf.clear();
        buf.extend(map.iter().map(|&node| dag_values[node as usize]));
        buf
    }

    /// Logic gates of the members folded into an existing DAG node.
    pub fn shared_nodes(&self) -> u64 {
        self.shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimScratch;

    fn adder(carry_in: bool) -> Netlist {
        let mut n = Netlist::new("add1");
        let a = n.add_input();
        let b = n.add_input();
        let c = n.constant(carry_in);
        let x = n.xor(a, b);
        let s = n.xor(x, c);
        let buf = n.buf(s);
        let co = n.maj(c, b, a);
        n.set_outputs(vec![buf, co]);
        n
    }

    #[test]
    fn equal_logic_folds_and_constants_split() {
        let nets = [adder(false), adder(true), adder(false)];
        let batch = NetlistBatch::hash_cons(2, &nets);
        assert_eq!(batch.len(), 3);
        // 2 inputs, 2 constants, one shared XOR(a, b), and per carry
        // value one sum XOR and one MAJ.
        assert_eq!(batch.dag().len(), 2 + 2 + 1 + 2 * 2);
        assert_eq!(batch.outputs(0), batch.outputs(2));
        assert_ne!(batch.outputs(0), batch.outputs(1));
        // Every buffer is its operand's node; member 1 also folds
        // XOR(a, b), and member 2 folds all four of its logic gates.
        assert_eq!(batch.shared_nodes(), 1 + 2 + 4);
    }

    #[test]
    fn gathered_probabilities_equal_each_members_own() {
        let nets = [adder(false), adder(true)];
        let batch = NetlistBatch::hash_cons(2, &nets);
        let mut scratch = SimScratch::new();
        let mut dag = Vec::new();
        scratch.signal_probabilities(batch.dag(), 9, 0xA51C, &mut dag);
        for (i, n) in nets.iter().enumerate() {
            let mut own = Vec::new();
            scratch.signal_probabilities(n, 9, 0xA51C, &mut own);
            let mut buf = Vec::new();
            let got = batch.gather(i, &dag, &mut buf);
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&own), "member {i}");
        }
    }

    #[test]
    fn a_batch_of_one_is_the_netlist_itself() {
        let n = adder(true);
        let batch = NetlistBatch::single(&n);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.dag(), &n);
        let outs: Vec<u32> = n.outputs().iter().map(|o| o.index() as u32).collect();
        assert_eq!(batch.outputs(0), outs.as_slice());
        let mut buf = Vec::new();
        assert_eq!(batch.gather(0, &[1, 2, 3], &mut buf), [1, 2, 3]);
        assert!(buf.is_empty(), "a batch of one copies nothing");
    }
}
