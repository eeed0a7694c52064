//! Parallel-prefix adders and block-speculative approximate adders.
//!
//! These widen the structural diversity of the adder libraries: prefix
//! networks (Kogge-Stone, Brent-Kung) have very different gate mixes and
//! depths than the ripple/lookahead family, which matters for the
//! ASIC-vs-FPGA cost asymmetry; ETAII-style speculation and compensated
//! truncation add further pareto points.

use afp_netlist::{NetId, Netlist};

use crate::adders::full_adder;
use crate::arith::{ArithCircuit, ArithKind};

/// `(g, p)` pair per bit and the prefix combine operator
/// `(g, p) ∘ (g', p') = (g | p·g', p·p')`.
fn combine(n: &mut Netlist, hi: (NetId, NetId), lo: (NetId, NetId)) -> (NetId, NetId) {
    let pg = n.and(hi.1, lo.0);
    let g = n.or(hi.0, pg);
    let p = n.and(hi.1, lo.1);
    (g, p)
}

fn gp_init(n: &mut Netlist, a: &[NetId], b: &[NetId]) -> Vec<(NetId, NetId)> {
    a.iter()
        .zip(b)
        .map(|(&ai, &bi)| (n.and(ai, bi), n.xor(ai, bi)))
        .collect()
}

fn sum_from_prefix(
    n: &mut Netlist,
    p_bits: &[NetId],
    carries: &[NetId],
    width: usize,
) -> Vec<NetId> {
    let mut outs: Vec<NetId> = Vec::with_capacity(width + 1);
    outs.push(p_bits[0]); // c0 = 0
    for i in 1..width {
        outs.push(n.xor(p_bits[i], carries[i - 1]));
    }
    outs.push(carries[width - 1]);
    outs
}

/// Exact Kogge-Stone adder: minimal depth (`log2 w` prefix levels), large
/// area and wiring — the classic "fast" end of the adder spectrum.
///
/// # Panics
///
/// Panics if `width` is outside the adder width domain.
pub fn kogge_stone(width: usize) -> ArithCircuit {
    ArithKind::Adder.assert_width(width);
    let mut n = Netlist::new(format!("add{width}u_ks"));
    let a = n.add_inputs(width);
    let b = n.add_inputs(width);
    let init = gp_init(&mut n, &a, &b);
    let p_bits: Vec<NetId> = init.iter().map(|&(_, p)| p).collect();
    // prefix[i] accumulates (g, p) of bits i..=0.
    let mut prefix = init;
    let mut dist = 1usize;
    while dist < width {
        let snapshot = prefix.clone();
        for (i, slot) in prefix.iter_mut().enumerate().skip(dist) {
            *slot = combine(&mut n, snapshot[i], snapshot[i - dist]);
        }
        dist *= 2;
    }
    let carries: Vec<NetId> = prefix.iter().map(|&(g, _)| g).collect();
    let outs = sum_from_prefix(&mut n, &p_bits, &carries, width);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Adder, width, n)
}

/// Exact Brent-Kung adder: sparse prefix tree — fewer prefix cells than
/// Kogge-Stone at roughly double the depth.
///
/// # Panics
///
/// Panics if `width` is outside the adder width domain.
pub fn brent_kung(width: usize) -> ArithCircuit {
    ArithKind::Adder.assert_width(width);
    let mut n = Netlist::new(format!("add{width}u_bk"));
    let a = n.add_inputs(width);
    let b = n.add_inputs(width);
    let init = gp_init(&mut n, &a, &b);
    let p_bits: Vec<NetId> = init.iter().map(|&(_, p)| p).collect();
    let mut prefix = init;
    // Up-sweep: indices of the form k*2^d - 1 combine with the node one
    // half-stride below.
    let mut d = 2usize;
    while d <= width {
        let mut i = d - 1;
        while i < width {
            prefix[i] = combine(&mut n, prefix[i], prefix[i - d / 2]);
            i += d;
        }
        d *= 2;
    }
    // Down-sweep: fill the remaining prefixes.
    d /= 2;
    while d >= 2 {
        let mut i = d + d / 2 - 1;
        while i < width {
            prefix[i] = combine(&mut n, prefix[i], prefix[i - d / 2]);
            i += d;
        }
        d /= 2;
    }
    let carries: Vec<NetId> = prefix.iter().map(|&(g, _)| g).collect();
    let outs = sum_from_prefix(&mut n, &p_bits, &carries, width);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Adder, width, n)
}

/// ETAII-style speculative adder: ripple blocks of `block` bits whose
/// carry-in is *speculated* from the immediately preceding block only
/// (carries do not propagate across more than one block boundary).
///
/// Exact whenever no carry chain crosses two block boundaries; cheap and
/// shallow otherwise.
///
/// # Panics
///
/// Panics if `width` is outside the adder width domain, or `block == 0`.
pub fn etaii(width: usize, block: usize) -> ArithCircuit {
    ArithKind::Adder.assert_width(width);
    assert!(block >= 1, "block must be positive");
    let mut n = Netlist::new(format!("add{width}u_etaii{block}"));
    let a = n.add_inputs(width);
    let b = n.add_inputs(width);
    let zero = n.constant(false);
    let mut outs: Vec<NetId> = Vec::with_capacity(width + 1);
    let mut block_start = 0usize;
    let mut last_block_carry = zero;
    while block_start < width {
        let hi = (block_start + block).min(width);
        // Speculative carry-in: the carry generated by the *previous*
        // block assuming zero carry into it (already computed below).
        let mut carry = last_block_carry;
        let first_of_block = block_start == 0;
        if first_of_block {
            carry = zero;
        }
        let mut rip = carry;
        for i in block_start..hi {
            let (s, c) = full_adder(&mut n, a[i], b[i], rip);
            outs.push(s);
            rip = c;
        }
        // Carry this block would generate with zero carry-in, for the
        // next block's speculation: recompute the block with cin = 0.
        let mut spec = zero;
        for i in block_start..hi {
            spec = n.maj(a[i], b[i], spec);
        }
        last_block_carry = spec;
        block_start = hi;
    }
    outs.push(last_block_carry);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Adder, width, n)
}

/// Truncated adder with constant compensation: the low `k` bits are
/// dropped, and the constant `2^(k-1)` (half the expected truncated mass)
/// is added into the kept part, halving the truncation bias.
///
/// # Panics
///
/// Panics if `width` is outside the adder width domain, or `k` is 0 or `> width`.
pub fn truncated_compensated(width: usize, k: usize) -> ArithCircuit {
    ArithKind::Adder.assert_width(width);
    assert!((1..=width).contains(&k), "k must be 1..=width");
    let mut n = Netlist::new(format!("add{width}u_trunc{k}c"));
    let a = n.add_inputs(width);
    let b = n.add_inputs(width);
    let zero = n.constant(false);
    let one = n.constant(true);
    let mut outs = vec![zero; k - 1];
    outs.push(one); // compensation constant 2^(k-1)
    let mut carry = zero;
    for i in k..width {
        let (s, c) = full_adder(&mut n, a[i], b[i], carry);
        outs.push(s);
        carry = c;
    }
    outs.push(carry);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Adder, width, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adders::ripple_carry;
    use crate::arith::BatchEvaluator;
    use afp_netlist::analyze::depth;

    fn assert_exact_adder(c: &ArithCircuit) {
        let w = c.width();
        let mask = (1u64 << w) - 1;
        let mut pairs = vec![
            (0, 0),
            (mask, mask),
            (1, mask),
            (mask >> 1, (mask >> 1) + 1),
        ];
        let mut s = 31u64;
        for _ in 0..3000 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(7);
            pairs.push(((s >> 8) & mask, (s >> 40) & mask));
        }
        let mut batch = BatchEvaluator::new(c);
        let got = batch.eval_pairs(&pairs);
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(got[i], a + b, "{}: {a}+{b}", c.name());
        }
    }

    #[test]
    fn prefix_adders_are_exact() {
        for w in [1, 2, 3, 4, 7, 8, 13, 16, 24, 32] {
            assert_exact_adder(&kogge_stone(w));
            assert_exact_adder(&brent_kung(w));
        }
    }

    #[test]
    fn kogge_stone_is_shallowest() {
        let ks = kogge_stone(16);
        let bk = brent_kung(16);
        let rca = ripple_carry(16);
        assert!(depth(ks.netlist()) < depth(bk.netlist()));
        assert!(depth(bk.netlist()) < depth(rca.netlist()));
    }

    #[test]
    fn brent_kung_is_smaller_than_kogge_stone() {
        let ks = kogge_stone(16);
        let bk = brent_kung(16);
        assert!(bk.netlist().num_logic_gates() < ks.netlist().num_logic_gates());
    }

    #[test]
    fn etaii_exact_on_short_carries_and_bounded_otherwise() {
        let c = etaii(8, 4);
        assert_eq!(c.eval(0x0F, 0x01), 0x10); // carry crosses one boundary: ok
        let mut worst = 0i64;
        let mut wrong = 0usize;
        for a in 0..=255u64 {
            for b in 0..=255u64 {
                let err = (c.eval(a, b) as i64 - (a + b) as i64).abs();
                if err > 0 {
                    wrong += 1;
                }
                worst = worst.max(err);
            }
        }
        assert!(wrong > 0, "ETAII(4) must be approximate somewhere");
        assert!(
            wrong < 65536 / 10,
            "ETAII(4) errs on too many pairs: {wrong}"
        );
        assert!(worst <= 256, "error must stay one-block bounded: {worst}");
    }

    #[test]
    fn compensation_halves_truncation_bias() {
        let plain = crate::adders::truncated(8, 4);
        let comp = truncated_compensated(8, 4);
        let bias = |c: &ArithCircuit| -> f64 {
            let mut sum = 0i64;
            for a in (0..=255u64).step_by(5) {
                for b in (0..=255u64).step_by(5) {
                    sum += c.eval(a, b) as i64 - (a + b) as i64;
                }
            }
            sum as f64
        };
        let bp = bias(&plain);
        let bc = bias(&comp);
        assert!(bp < 0.0);
        assert!(
            bc.abs() < bp.abs() / 1.5,
            "compensation too weak: {bp} vs {bc}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn prefix_adders_agree_with_rca(a in 0u64..65536, b in 0u64..65536) {
            let ks = kogge_stone(16);
            let bk = brent_kung(16);
            proptest::prop_assert_eq!(ks.eval(a, b), a + b);
            proptest::prop_assert_eq!(bk.eval(a, b), a + b);
        }
    }
}
