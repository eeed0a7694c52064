//! Adder generators: exact architectures and approximate variants.
//!
//! All generators return an [`ArithCircuit`] with the standard interface
//! `a[w], b[w] → s[w+1]` (LSB-first). Exact architectures differ in
//! structure (and therefore in ASIC/FPGA cost) but not in function; the
//! approximate variants trade accuracy for cost and are the raw material of
//! the circuit libraries.

use afp_netlist::{NetId, Netlist};

use crate::arith::{ArithCircuit, ArithKind};

/// Append a full adder to `n`; returns `(sum, carry)`.
pub(crate) fn full_adder(n: &mut Netlist, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
    let axb = n.xor(a, b);
    let s = n.xor(axb, cin);
    let c = n.maj(a, b, cin);
    (s, c)
}

/// Append a half adder to `n`; returns `(sum, carry)`.
pub(crate) fn half_adder(n: &mut Netlist, a: NetId, b: NetId) -> (NetId, NetId) {
    (n.xor(a, b), n.and(a, b))
}

fn declare_operands(n: &mut Netlist, width: usize) -> (Vec<NetId>, Vec<NetId>) {
    let a = n.add_inputs(width);
    let b = n.add_inputs(width);
    (a, b)
}

/// Exact ripple-carry adder: minimal area, `O(w)` depth.
///
/// # Panics
///
/// Panics if `width` is outside the adder width domain.
pub fn ripple_carry(width: usize) -> ArithCircuit {
    ArithKind::Adder.assert_width(width);
    let mut n = Netlist::new(format!("add{width}u_rca"));
    let (a, b) = declare_operands(&mut n, width);
    let mut outs = Vec::with_capacity(width + 1);
    let (s0, mut carry) = half_adder(&mut n, a[0], b[0]);
    outs.push(s0);
    for i in 1..width {
        let (s, c) = full_adder(&mut n, a[i], b[i], carry);
        outs.push(s);
        carry = c;
    }
    outs.push(carry);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Adder, width, n)
}

/// Balanced AND reduction of a non-empty net list.
fn and_reduce(n: &mut Netlist, nets: &[NetId]) -> NetId {
    reduce(n, nets, Netlist::and)
}

/// Balanced OR reduction of a non-empty net list.
fn or_reduce(n: &mut Netlist, nets: &[NetId]) -> NetId {
    reduce(n, nets, Netlist::or)
}

fn reduce(
    n: &mut Netlist,
    nets: &[NetId],
    op: impl Fn(&mut Netlist, NetId, NetId) -> NetId,
) -> NetId {
    assert!(!nets.is_empty(), "reduction over an empty list");
    let mut layer: Vec<NetId> = nets.to_vec();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            next.push(if pair.len() == 2 {
                op(n, pair[0], pair[1])
            } else {
                pair[0]
            });
        }
        layer = next;
    }
    layer[0]
}

/// Exact carry-lookahead adder with 4-bit groups: the lookahead products
/// within a group are expanded as balanced AND/OR trees, so carry logic is
/// flatter than ripple at the cost of extra area. Groups themselves are
/// chained (block-CLA).
///
/// # Panics
///
/// Panics if `width` is outside the adder width domain.
pub fn carry_lookahead(width: usize) -> ArithCircuit {
    ArithKind::Adder.assert_width(width);
    let mut n = Netlist::new(format!("add{width}u_cla"));
    let (a, b) = declare_operands(&mut n, width);
    let p: Vec<NetId> = (0..width).map(|i| n.xor(a[i], b[i])).collect();
    let g: Vec<NetId> = (0..width).map(|i| n.and(a[i], b[i])).collect();
    let mut carries = Vec::with_capacity(width + 1);
    let zero = n.constant(false);
    carries.push(zero);
    for group_start in (0..width).step_by(4) {
        let cin = *carries.last().expect("carry chain is seeded");
        let hi = (group_start + 4).min(width);
        for i in group_start..hi {
            // c_{i+1} = G | cin & P where G/P are the group generate/
            // propagate up to bit i, expanded as balanced trees so the
            // carry-in joins through just one AND and one OR level.
            let mut terms: Vec<NetId> = vec![g[i]];
            for j in group_start..i {
                let mut prod: Vec<NetId> = vec![g[j]];
                prod.extend_from_slice(&p[j + 1..=i]);
                terms.push(and_reduce(&mut n, &prod));
            }
            let group_generate = or_reduce(&mut n, &terms);
            let group_propagate = and_reduce(&mut n, &p[group_start..=i]);
            let cin_term = n.and(cin, group_propagate);
            carries.push(n.or(group_generate, cin_term));
        }
    }
    let mut outs: Vec<NetId> = (0..width).map(|i| n.xor(p[i], carries[i])).collect();
    outs.push(carries[width]);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Adder, width, n)
}

/// Exact carry-select adder with fixed block size `4`: duplicated blocks
/// computed for both carry-in values, selected by mux.
///
/// # Panics
///
/// Panics if `width` is outside the adder width domain.
pub fn carry_select(width: usize) -> ArithCircuit {
    ArithKind::Adder.assert_width(width);
    let block = 4usize;
    let mut n = Netlist::new(format!("add{width}u_csel"));
    let (a, b) = declare_operands(&mut n, width);
    let mut outs = Vec::with_capacity(width + 1);
    // First block is a plain ripple block with cin = 0.
    let (s0, mut carry) = half_adder(&mut n, a[0], b[0]);
    outs.push(s0);
    let first_hi = block.min(width);
    for i in 1..first_hi {
        let (s, c) = full_adder(&mut n, a[i], b[i], carry);
        outs.push(s);
        carry = c;
    }
    let mut pos = first_hi;
    while pos < width {
        let hi = (pos + block).min(width);
        // Compute the block twice: cin=0 and cin=1.
        let zero = n.constant(false);
        let one = n.constant(true);
        let mut sums0 = Vec::new();
        let mut sums1 = Vec::new();
        let (mut c0, mut c1) = (zero, one);
        for i in pos..hi {
            let (s, c) = full_adder(&mut n, a[i], b[i], c0);
            sums0.push(s);
            c0 = c;
            let (s, c) = full_adder(&mut n, a[i], b[i], c1);
            sums1.push(s);
            c1 = c;
        }
        for k in 0..(hi - pos) {
            outs.push(n.mux(carry, sums0[k], sums1[k]));
        }
        carry = n.mux(carry, c0, c1);
        pos = hi;
    }
    outs.push(carry);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Adder, width, n)
}

/// Exact carry-skip adder with fixed block size `4`: ripple blocks with a
/// group-propagate bypass mux.
///
/// # Panics
///
/// Panics if `width` is outside the adder width domain.
pub fn carry_skip(width: usize) -> ArithCircuit {
    ArithKind::Adder.assert_width(width);
    let block = 4usize;
    let mut n = Netlist::new(format!("add{width}u_cskip"));
    let (a, b) = declare_operands(&mut n, width);
    let mut outs = Vec::with_capacity(width + 1);
    let mut carry = n.constant(false);
    let mut pos = 0usize;
    while pos < width {
        let hi = (pos + block).min(width);
        let block_cin = carry;
        let mut rip = block_cin;
        let mut group_p: Option<NetId> = None;
        for i in pos..hi {
            let p = n.xor(a[i], b[i]);
            group_p = Some(match group_p {
                None => p,
                Some(gp) => n.and(gp, p),
            });
            let (s, c) = full_adder(&mut n, a[i], b[i], rip);
            outs.push(s);
            rip = c;
        }
        // Skip mux: if every position propagates, the block's carry-out is
        // its carry-in.
        let gp = group_p.expect("block is non-empty");
        carry = n.mux(gp, rip, block_cin);
        pos = hi;
    }
    outs.push(carry);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Adder, width, n)
}

/// Lower-part OR adder (LOA): the low `k` sum bits are `a|b`, the upper part
/// is an exact ripple adder seeded with `a[k-1] & b[k-1]` as carry-in.
///
/// # Panics
///
/// Panics if `width` is outside the adder width domain, or `k > width`.
pub fn loa(width: usize, k: usize) -> ArithCircuit {
    ArithKind::Adder.assert_width(width);
    assert!(k <= width, "approximate part must fit the operand");
    if k == 0 {
        let mut c = ripple_carry(width);
        c.set_name(format!("add{width}u_loa0"));
        return c;
    }
    let mut n = Netlist::new(format!("add{width}u_loa{k}"));
    let (a, b) = declare_operands(&mut n, width);
    let mut outs = Vec::with_capacity(width + 1);
    for i in 0..k {
        outs.push(n.or(a[i], b[i]));
    }
    let mut carry = n.and(a[k - 1], b[k - 1]);
    for i in k..width {
        let (s, c) = full_adder(&mut n, a[i], b[i], carry);
        outs.push(s);
        carry = c;
    }
    outs.push(carry);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Adder, width, n)
}

/// Truncated adder: the low `k` sum bits are constant `0` and no carry is
/// generated from the truncated part; the upper part is exact.
///
/// # Panics
///
/// Panics if `width` is outside the adder width domain, or `k > width`.
pub fn truncated(width: usize, k: usize) -> ArithCircuit {
    ArithKind::Adder.assert_width(width);
    assert!(k <= width, "truncation must fit the operand");
    let mut n = Netlist::new(format!("add{width}u_trunc{k}"));
    let (a, b) = declare_operands(&mut n, width);
    let zero = n.constant(false);
    let mut outs = vec![zero; k];
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

/// No-carry adder: the low `k` bits are `a^b` (carry chain cut), upper part
/// exact with zero carry-in.
///
/// # Panics
///
/// Panics if `width` is outside the adder width domain, or `k > width`.
pub fn no_carry(width: usize, k: usize) -> ArithCircuit {
    ArithKind::Adder.assert_width(width);
    assert!(k <= width, "approximate part must fit the operand");
    let mut n = Netlist::new(format!("add{width}u_nca{k}"));
    let (a, b) = declare_operands(&mut n, width);
    let mut outs: Vec<NetId> = (0..k).map(|i| n.xor(a[i], b[i])).collect();
    let mut carry = n.constant(false);
    for i in k..width {
        let (s, c) = full_adder(&mut n, a[i], b[i], carry);
        outs.push(s);
        carry = c;
    }
    outs.push(carry);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Adder, width, n)
}

/// The approximate full-adder cell substituted by [`afa_substituted`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ApproxFa {
    /// `sum = cin`, carry exact — approximates the sum only.
    SumIsCin,
    /// `sum = a|b`, `carry = a&b` — ignores the incoming carry.
    IgnoreCin,
    /// Exact sum, `carry = b` — cheap skewed carry.
    CarryIsB,
}

impl ApproxFa {
    /// All variants, for library enumeration.
    pub const ALL: [ApproxFa; 3] = [ApproxFa::SumIsCin, ApproxFa::IgnoreCin, ApproxFa::CarryIsB];

    fn mnemonic(&self) -> &'static str {
        match self {
            ApproxFa::SumIsCin => "sic",
            ApproxFa::IgnoreCin => "ign",
            ApproxFa::CarryIsB => "cib",
        }
    }

    fn build(&self, n: &mut Netlist, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        match self {
            ApproxFa::SumIsCin => {
                let c = n.maj(a, b, cin);
                (cin, c)
            }
            ApproxFa::IgnoreCin => (n.or(a, b), n.and(a, b)),
            ApproxFa::CarryIsB => {
                let axb = n.xor(a, b);
                let s = n.xor(axb, cin);
                (s, b)
            }
        }
    }
}

/// Ripple adder whose lowest `k` positions use the approximate full-adder
/// cell `variant` (in the style of the approximate mirror adder families).
///
/// # Panics
///
/// Panics if `width` is outside the adder width domain, or `k > width`.
pub fn afa_substituted(width: usize, k: usize, variant: ApproxFa) -> ArithCircuit {
    ArithKind::Adder.assert_width(width);
    assert!(k <= width, "approximate part must fit the operand");
    let mut n = Netlist::new(format!("add{width}u_afa_{}{k}", variant.mnemonic()));
    let (a, b) = declare_operands(&mut n, width);
    let mut outs = Vec::with_capacity(width + 1);
    let mut carry = n.constant(false);
    for i in 0..width {
        let (s, c) = if i < k {
            variant.build(&mut n, a[i], b[i], carry)
        } else {
            full_adder(&mut n, a[i], b[i], carry)
        };
        outs.push(s);
        carry = c;
    }
    outs.push(carry);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Adder, width, n)
}

/// GeAr-style segmented adder: result bits are produced by overlapping
/// sub-adders of `r` result bits with `p` previous ("prediction") bits, with
/// no global carry chain.
///
/// `gear(width, r, p)` with `r + p >= 2`; the classic notation GeAr(w, R, P).
///
/// # Panics
///
/// Panics if `width` is outside the adder width domain, `r == 0` or `r + p > width`.
pub fn gear(width: usize, r: usize, p: usize) -> ArithCircuit {
    ArithKind::Adder.assert_width(width);
    assert!(r >= 1 && r + p <= width, "invalid GeAr segmentation");
    let mut n = Netlist::new(format!("add{width}u_gear_r{r}p{p}"));
    let (a, b) = declare_operands(&mut n, width);
    let mut outs: Vec<Option<NetId>> = vec![None; width + 1];
    let zero = n.constant(false);
    // First sub-adder covers bits [0, r+p).
    let mut base = 0usize;
    let mut first = true;
    let mut last_carry = zero;
    while base < width {
        let lo = if first { 0 } else { base - p };
        // The first sub-adder yields r+p result bits, later ones r each.
        let hi = if first {
            (r + p).min(width)
        } else {
            (base + r).min(width)
        };
        let mut carry = zero;
        for i in lo..hi {
            let (s, c) = full_adder(&mut n, a[i], b[i], carry);
            carry = c;
            // Keep result bits only for the sub-adder's own window
            // [base, hi); prediction bits are recomputed, not kept.
            if i >= base || first {
                outs[i] = Some(s);
            }
        }
        last_carry = carry;
        base = hi;
        first = false;
    }
    outs[width] = Some(last_carry);
    let outs: Vec<NetId> = outs
        .into_iter()
        .map(|o| o.expect("all result bits covered"))
        .collect();
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Adder, width, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::BatchEvaluator;

    fn assert_exact(c: &ArithCircuit) {
        let w = c.width();
        let mask = (1u64 << w) - 1;
        let pairs: Vec<(u64, u64)> = if w <= 5 {
            (0..=mask)
                .flat_map(|a| (0..=mask).map(move |b| (a, b)))
                .collect()
        } else {
            // Corners plus a deterministic sample.
            let mut p = vec![(0, 0), (mask, mask), (1, mask), (mask, 1)];
            let mut s = 12345u64;
            for _ in 0..2000 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                p.push(((s >> 10) & mask, (s >> 40) & mask));
            }
            p
        };
        let mut batch = BatchEvaluator::new(c);
        let got = batch.eval_pairs(&pairs);
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(got[i], a + b, "{}: {a}+{b}", c.name());
        }
    }

    #[test]
    fn exact_adders_are_exact() {
        for w in [1, 3, 4, 5, 8, 12, 16] {
            assert_exact(&ripple_carry(w));
            assert_exact(&carry_lookahead(w));
            assert_exact(&carry_select(w));
            assert_exact(&carry_skip(w));
        }
    }

    #[test]
    fn architectures_differ_structurally() {
        let rca = ripple_carry(16);
        let cla = carry_lookahead(16);
        assert!(cla.netlist().num_logic_gates() > rca.netlist().num_logic_gates());
        assert!(
            afp_netlist::analyze::depth(cla.netlist()) < afp_netlist::analyze::depth(rca.netlist())
        );
    }

    #[test]
    fn loa_low_bits_are_or() {
        let c = loa(8, 4);
        // 0b1111 | 0b0001 in the low nibble; high nibble exact.
        assert_eq!(c.eval(0x0F, 0x01) & 0xF, 0xF);
        // Carry from position k-1 is a&b.
        assert_eq!(c.eval(0x08, 0x08), 0x18); // or() low = 8, carry-in 1 -> 0x10 + 8
    }

    #[test]
    fn loa_zero_is_exact() {
        assert_exact(&loa(8, 0));
    }

    #[test]
    fn truncated_zeroes_low_bits() {
        let c = truncated(8, 3);
        assert_eq!(c.eval(0xFF, 0x00) & 0x7, 0);
        assert_eq!(c.eval(0xF8, 0x08), 0x100);
    }

    #[test]
    fn no_carry_cuts_chain() {
        let c = no_carry(8, 8);
        assert_eq!(c.eval(0xFF, 0x01), 0xFE); // xor only
    }

    #[test]
    fn afa_variants_approximate_low_bits_only() {
        for v in ApproxFa::ALL {
            let c = afa_substituted(8, 2, v);
            // Errors bounded: |err| < 2^(k+1) for these cells.
            for (a, b) in [(3u64, 5u64), (255, 255), (170, 85), (9, 200)] {
                let err = (c.eval(a, b) as i64 - (a + b) as i64).unsigned_abs();
                assert!(err < 8, "{v:?}: {a}+{b} err {err}");
            }
        }
    }

    #[test]
    fn gear_matches_exact_on_carry_free_operands() {
        let c = gear(8, 2, 2);
        // Operand pairs with no long carry chains are exact.
        assert_eq!(c.eval(0x55, 0x22), 0x77);
        assert_eq!(c.eval(0, 0xFF), 0xFF);
    }

    #[test]
    fn gear_errs_only_on_long_carries() {
        let c = gear(8, 2, 2);
        let mut worst = 0i64;
        for a in 0..=255u64 {
            for b in 0..=255u64 {
                let err = (c.eval(a, b) as i64 - (a + b) as i64).abs();
                worst = worst.max(err);
            }
        }
        assert!(worst > 0, "GeAr(2,2) must be approximate");
        assert!(worst <= 256, "errors stay bounded, got {worst}");
    }

    #[test]
    fn approximate_adders_are_cheaper() {
        let exact = ripple_carry(16);
        for c in [loa(16, 6), truncated(16, 6), no_carry(16, 6)] {
            assert!(
                c.netlist().num_logic_gates() < exact.netlist().num_logic_gates(),
                "{} not cheaper",
                c.name()
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn loa_error_is_bounded_by_2k(a in 0u64..256, b in 0u64..256, k in 0usize..=8) {
            let c = loa(8, k);
            let err = (c.eval(a, b) as i64 - (a + b) as i64).unsigned_abs();
            // LOA worst case error < 2^k.
            proptest::prop_assert!(err < (1u64 << k.max(1)));
        }

        #[test]
        fn truncated_error_bounded(a in 0u64..256, b in 0u64..256, k in 0usize..=8) {
            let c = truncated(8, k);
            let err = (a + b) as i64 - c.eval(a, b) as i64;
            proptest::prop_assert!(err >= 0, "truncation only under-estimates");
            proptest::prop_assert!(err < (2 << k.max(1)) as i64);
        }
    }
}
