//! Advanced multiplier architectures: Dadda reduction, radix-4 digit
//! multipliers, and the DRUM-style dynamic-range approximate multiplier.
//!
//! Like the prefix adders, these broaden the libraries' structural
//! diversity: Dadda/radix-4 change the reduction tree and partial-product
//! shape, and DRUM is a fundamentally different *approximation principle*
//! (operand segmentation instead of bit dropping), giving the ML models
//! a harder, more realistic estimation task.

use afp_netlist::{NetId, Netlist};

use crate::adders::{full_adder, half_adder};
use crate::arith::{ArithCircuit, ArithKind};

/// Exact Dadda multiplier: column reduction to the Dadda height sequence
/// (… 13, 9, 6, 4, 3, 2) using the minimum number of counters, then a
/// final carry-propagate adder.
///
/// # Panics
///
/// Panics if `width` is outside the multiplier width domain.
pub fn dadda_multiplier(width: usize) -> ArithCircuit {
    ArithKind::Multiplier.assert_width(width);
    let mut n = Netlist::new(format!("mul{width}u_dadda"));
    let a = n.add_inputs(width);
    let b = n.add_inputs(width);
    let mut cols: Vec<Vec<NetId>> = vec![Vec::new(); 2 * width];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let pp = n.and(ai, bj);
            cols[i + j].push(pp);
        }
    }
    // Dadda stage heights: largest d_k below the current max height.
    let mut heights = vec![2usize];
    while *heights.last().expect("seeded") < width {
        let next = (heights.last().unwrap() * 3) / 2;
        heights.push(next);
    }
    for &target in heights.iter().rev() {
        let max_h = cols.iter().map(Vec::len).max().unwrap_or(0);
        if max_h <= target {
            continue;
        }
        let mut next: Vec<Vec<NetId>> = vec![Vec::new(); cols.len() + 1];
        for c in 0..cols.len() {
            let mut col = std::mem::take(&mut cols[c]);
            // Pull in carries already produced into this column.
            col.append(&mut next[c]);
            // Reduce just enough to reach `target` after receiving carries
            // from column c-1 (approximation of the exact Dadda schedule:
            // reduce while the column exceeds the target).
            while col.len() > target {
                if col.len() == target + 1 {
                    let x = col.pop().expect("len>target");
                    let y = col.pop().expect("len>target");
                    let (s, cy) = half_adder(&mut n, x, y);
                    col.push(s);
                    next[c + 1].push(cy);
                } else {
                    let x = col.pop().expect("len>target");
                    let y = col.pop().expect("len>target");
                    let z = col.pop().expect("len>target");
                    let (s, cy) = full_adder(&mut n, x, y, z);
                    col.push(s);
                    next[c + 1].push(cy);
                }
            }
            cols[c] = col;
        }
        // Merge any leftover carries beyond the last column (cannot occur
        // for a 2w-bit product, but keep the shape safe).
        next.truncate(cols.len());
        for (c, mut extra) in next.into_iter().enumerate() {
            cols[c].append(&mut extra);
        }
    }
    // Final CPA over the (≤ 2)-high columns.
    let mut outs = Vec::with_capacity(2 * width);
    let mut carry: Option<NetId> = None;
    for col in &cols {
        let bit = match (col.len(), carry) {
            (0, None) => n.constant(false),
            (0, Some(c)) => {
                carry = None;
                c
            }
            (1, None) => col[0],
            (1, Some(c)) => {
                let (s, cy) = half_adder(&mut n, col[0], c);
                carry = Some(cy);
                s
            }
            (2, None) => {
                let (s, cy) = half_adder(&mut n, col[0], col[1]);
                carry = Some(cy);
                s
            }
            (2, Some(c)) => {
                let (s, cy) = full_adder(&mut n, col[0], col[1], c);
                carry = Some(cy);
                s
            }
            (k, _) => unreachable!("column of height {k} after Dadda reduction"),
        };
        outs.push(bit);
    }
    outs.truncate(2 * width);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Multiplier, width, n)
}

/// Exact radix-4 multiplier: `b` is consumed two bits per digit; the
/// partial products `{0, a, 2a, 3a}` are selected by mux trees (with `3a`
/// shared from one precomputed adder), halving the number of partial
/// products relative to an array multiplier.
///
/// # Panics
///
/// Panics if `width` is not an even number in `2..=16`.
pub fn radix4_multiplier(width: usize) -> ArithCircuit {
    assert!(
        width.is_multiple_of(2) && (2..=16).contains(&width),
        "width must be even and 2..=16"
    );
    let mut n = Netlist::new(format!("mul{width}u_r4"));
    let a = n.add_inputs(width);
    let b = n.add_inputs(width);
    let zero = n.constant(false);
    // Precompute 3a = a + (a << 1), width+2 bits.
    let mut three_a: Vec<NetId> = Vec::with_capacity(width + 2);
    {
        let mut carry = zero;
        three_a.push(a[0]); // bit 0 of a + 2a
        for i in 1..=width {
            let x = if i < width { a[i] } else { zero };
            let y = a[i - 1]; // bit i of (a << 1)
            let (s, c) = full_adder(&mut n, x, y, carry);
            three_a.push(s);
            carry = c;
        }
        three_a.push(carry);
    }
    // Column matrix from the digit partial products.
    let mut cols: Vec<Vec<NetId>> = vec![Vec::new(); 2 * width + 2];
    for digit in 0..width / 2 {
        let b0 = b[2 * digit];
        let b1 = b[2 * digit + 1];
        let shift = 2 * digit;
        // pp bit t = mux(b1, mux(b0, 0, a[t]), mux(b0, 2a[t], 3a[t]))
        for t in 0..width + 2 {
            let a_t = if t < width { a[t] } else { zero };
            let a2_t = if t >= 1 && t - 1 < width {
                a[t - 1]
            } else {
                zero
            };
            let a3_t = three_a[t];
            let low = n.mux(b0, zero, a_t);
            let high = n.mux(b0, a2_t, a3_t);
            let pp = n.mux(b1, low, high);
            if shift + t < cols.len() {
                cols[shift + t].push(pp);
            }
        }
    }
    cols.truncate(2 * width);
    let outs = reduce_to_product(&mut n, cols, 2 * width);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Multiplier, width, n)
}

/// Carry-save reduce a column matrix and finish with a ripple CPA,
/// producing exactly `out_width` product bits.
fn reduce_to_product(n: &mut Netlist, mut cols: Vec<Vec<NetId>>, out_width: usize) -> Vec<NetId> {
    loop {
        let worst = cols.iter().map(Vec::len).max().unwrap_or(0);
        if worst <= 2 {
            break;
        }
        let mut next: Vec<Vec<NetId>> = vec![Vec::new(); cols.len() + 1];
        for c in 0..cols.len() {
            let col = std::mem::take(&mut cols[c]);
            let mut iter = col.into_iter();
            while let Some(x) = iter.next() {
                match (iter.next(), iter.next()) {
                    (Some(y), Some(z)) => {
                        let (s, cy) = full_adder(n, x, y, z);
                        next[c].push(s);
                        next[c + 1].push(cy);
                    }
                    (Some(y), None) => {
                        let (s, cy) = half_adder(n, x, y);
                        next[c].push(s);
                        next[c + 1].push(cy);
                        break;
                    }
                    (None, _) => {
                        next[c].push(x);
                        break;
                    }
                }
            }
        }
        next.truncate(cols.len());
        cols = next;
    }
    let mut outs = Vec::with_capacity(out_width);
    let mut carry: Option<NetId> = None;
    for col in cols.iter().take(out_width) {
        let bit = match (col.len(), carry) {
            (0, None) => n.constant(false),
            (0, Some(c)) => {
                carry = None;
                c
            }
            (1, None) => col[0],
            (1, Some(c)) => {
                let (s, cy) = half_adder(n, col[0], c);
                carry = Some(cy);
                s
            }
            (2, None) => {
                let (s, cy) = half_adder(n, col[0], col[1]);
                carry = Some(cy);
                s
            }
            (2, Some(c)) => {
                let (s, cy) = full_adder(n, col[0], col[1], c);
                carry = Some(cy);
                s
            }
            _ => unreachable!("columns reduced to <= 2"),
        };
        outs.push(bit);
    }
    while outs.len() < out_width {
        let zero = n.constant(false);
        outs.push(zero);
    }
    outs
}

/// DRUM-style dynamic-range unbiased multiplier: each operand is reduced
/// to its top `k` bits starting at the leading one (LSB of the segment
/// forced to 1 for unbiasing), the `k x k` product is computed exactly
/// and shifted back into place.
///
/// Large-magnitude operands keep ~`k` significant bits of accuracy, so
/// the *relative* error is bounded, which is DRUM's signature property.
///
/// # Panics
///
/// Panics if `width` is outside the multiplier width domain, `k < 2` or `k > width`.
pub fn drum(width: usize, k: usize) -> ArithCircuit {
    ArithKind::Multiplier.assert_width(width);
    assert!((2..=width).contains(&k), "segment must be 2..=width");
    let mut n = Netlist::new(format!("mul{width}u_drum{k}"));
    let a = n.add_inputs(width);
    let b = n.add_inputs(width);
    let zero = n.constant(false);
    let one = n.constant(true);

    // Leading-one detection + segment extraction + exponent, per operand.
    let segment = |n: &mut Netlist, x: &[NetId]| -> (Vec<NetId>, Vec<NetId>) {
        // one_hot[i] = x[i] & !(x has a 1 above i)
        let mut any_above = zero;
        let mut one_hot = vec![zero; width];
        for i in (0..width).rev() {
            let not_above = n.not(any_above);
            one_hot[i] = n.and(x[i], not_above);
            any_above = n.or(any_above, x[i]);
        }
        // exponent e = max(leading_pos - (k-1), 0): the shift applied to
        // the segment. Binary encode via OR trees over one_hot positions.
        let ebits = (usize::BITS - width.leading_zeros()) as usize;
        let mut exp = vec![zero; ebits];
        for (i, &oh) in one_hot.iter().enumerate() {
            let e = i.saturating_sub(k - 1);
            for (bit, slot) in exp.iter_mut().enumerate() {
                if (e >> bit) & 1 == 1 {
                    *slot = n.or(*slot, oh);
                }
            }
        }
        // Segment bits: seg[t] = OR_i one_hot[i] & x[i - (k-1) + t]
        // for i >= k-1; for small operands (leading one below k-1) the
        // operand itself is already the segment.
        let mut seg = vec![zero; k];
        for (i, &oh) in one_hot.iter().enumerate() {
            if i >= k - 1 {
                for t in 0..k {
                    let src = x[i + 1 - k + t];
                    let term = n.and(oh, src);
                    seg[t] = n.or(seg[t], term);
                }
            } else {
                // Leading one below the segment width: pass x through.
                for (t, slot) in seg.iter_mut().enumerate().take(i + 1) {
                    let term = n.and(oh, x[t]);
                    *slot = n.or(*slot, term);
                }
            }
        }
        // Unbias: force segment LSB to 1 whenever the exponent is nonzero
        // (i.e. bits were actually dropped).
        let mut nonzero_exp = zero;
        for &e in &exp {
            nonzero_exp = n.or(nonzero_exp, e);
        }
        let forced = n.or(seg[0], nonzero_exp);
        seg[0] = n.mux(nonzero_exp, seg[0], forced);
        (seg, exp)
    };
    let (seg_a, exp_a) = segment(&mut n, &a);
    let (seg_b, exp_b) = segment(&mut n, &b);

    // Exact k x k product of the segments.
    let mut cols: Vec<Vec<NetId>> = vec![Vec::new(); 2 * k];
    for (i, &ai) in seg_a.iter().enumerate() {
        for (j, &bj) in seg_b.iter().enumerate() {
            let pp = n.and(ai, bj);
            cols[i + j].push(pp);
        }
    }
    let prod = reduce_to_product(&mut n, cols, 2 * k);

    // Total shift = exp_a + exp_b (small adder over exponent bits).
    let ebits = exp_a.len();
    let mut shift = Vec::with_capacity(ebits + 1);
    let mut carry = zero;
    for i in 0..ebits {
        let (s, c) = full_adder(&mut n, exp_a[i], exp_b[i], carry);
        shift.push(s);
        carry = c;
    }
    shift.push(carry);
    let _ = one;

    // Barrel shifter: result = prod << shift, over 2*width output bits.
    let mut stage: Vec<NetId> = (0..2 * width)
        .map(|t| if t < prod.len() { prod[t] } else { zero })
        .collect();
    for (bit, &sbit) in shift.iter().enumerate() {
        let amount = 1usize << bit;
        if amount >= 2 * width {
            break;
        }
        let prev = stage.clone();
        for (t, slot) in stage.iter_mut().enumerate() {
            let shifted = if t >= amount { prev[t - amount] } else { zero };
            *slot = n.mux(sbit, prev[t], shifted);
        }
    }
    n.set_outputs(stage);
    ArithCircuit::new(ArithKind::Multiplier, width, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::BatchEvaluator;
    use crate::multipliers::wallace_multiplier;

    fn check_exact(c: &ArithCircuit, exhaustive: bool) {
        let w = c.width();
        let mask = (1u64 << w) - 1;
        let pairs: Vec<(u64, u64)> = if exhaustive {
            (0..=mask)
                .flat_map(|x| (0..=mask).map(move |y| (x, y)))
                .collect()
        } else {
            let mut p = vec![(0, 0), (mask, mask), (1, mask)];
            let mut s = 17u64;
            for _ in 0..3000 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(11);
                p.push(((s >> 9) & mask, (s >> 41) & mask));
            }
            p
        };
        let mut batch = BatchEvaluator::new(c);
        let got = batch.eval_pairs(&pairs);
        for (i, &(x, y)) in pairs.iter().enumerate() {
            assert_eq!(got[i], x * y, "{}: {x}*{y}", c.name());
        }
    }

    #[test]
    fn dadda_is_exact() {
        for w in [2, 3, 4, 5] {
            check_exact(&dadda_multiplier(w), true);
        }
        check_exact(&dadda_multiplier(8), false);
        check_exact(&dadda_multiplier(12), false);
    }

    #[test]
    fn radix4_is_exact() {
        for w in [2, 4] {
            check_exact(&radix4_multiplier(w), true);
        }
        check_exact(&radix4_multiplier(8), false);
        check_exact(&radix4_multiplier(16), false);
    }

    #[test]
    fn dadda_structurally_differs_from_wallace() {
        let d = dadda_multiplier(8);
        let w = wallace_multiplier(8);
        // Same function, different reduction schedule => different netlist.
        assert_ne!(d.netlist().num_logic_gates(), w.netlist().num_logic_gates());
    }

    #[test]
    fn drum_is_exact_for_small_operands() {
        let c = drum(8, 4);
        // Operands that fit in the k-bit segment are multiplied exactly.
        for x in 0..16u64 {
            for y in 0..16u64 {
                assert_eq!(c.eval(x, y), x * y, "{x}*{y}");
            }
        }
    }

    #[test]
    fn drum_relative_error_is_bounded() {
        let c = drum(8, 4);
        let mut worst_rel: f64 = 0.0;
        for x in 1..=255u64 {
            for y in 1..=255u64 {
                let exact = (x * y) as f64;
                let got = c.eval(x, y) as f64;
                worst_rel = worst_rel.max((got - exact).abs() / exact);
            }
        }
        // DRUM(k): each operand errs by at most ~2^-(k-1), so the product's
        // worst relative error is (1 + 2^-(k-1))^2 - 1 ≈ 26.6% for k = 4.
        assert!(worst_rel < 0.27, "relative error {worst_rel}");
        assert!(worst_rel > 0.1, "must actually approximate");
    }

    #[test]
    fn drum_is_roughly_unbiased() {
        let c = drum(8, 4);
        let mut sum = 0f64;
        let mut n_pairs = 0f64;
        for x in (1..=255u64).step_by(3) {
            for y in (1..=255u64).step_by(3) {
                sum += c.eval(x, y) as f64 - (x * y) as f64;
                n_pairs += 1.0;
            }
        }
        let mean_err = sum / n_pairs;
        // Mean absolute product is ~16256; the unbiasing should keep the
        // mean error within ~1.5% of it.
        assert!(
            mean_err.abs() < 250.0,
            "bias too large for an unbiased design: {mean_err}"
        );
    }

    #[test]
    fn drum_is_cheaper_than_exact_after_simplify() {
        let mut d = drum(8, 3);
        d.simplify();
        let mut w = wallace_multiplier(8);
        w.simplify();
        assert!(
            d.netlist().num_logic_gates() < w.netlist().num_logic_gates() * 2,
            "DRUM should stay in the same cost class"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn radix4_and_dadda_agree(a in 0u64..256, b in 0u64..256) {
            proptest::prop_assert_eq!(radix4_multiplier(8).eval(a, b), a * b);
            proptest::prop_assert_eq!(dadda_multiplier(8).eval(a, b), a * b);
        }
    }
}
