//! Multiplier generators: exact architectures and approximate variants.
//!
//! All generators return an [`ArithCircuit`] with the interface
//! `a[w], b[w] → p[2w]` (LSB-first, unsigned).

use afp_netlist::{NetId, Netlist};

use crate::adders::{full_adder, half_adder};
use crate::arith::{ArithCircuit, ArithKind};

fn declare_operands(n: &mut Netlist, width: usize) -> (Vec<NetId>, Vec<NetId>) {
    let a = n.add_inputs(width);
    let b = n.add_inputs(width);
    (a, b)
}

/// Column-wise partial-product matrix: `cols[c]` holds the bits of weight
/// `2^c` still waiting to be summed.
fn partial_products(
    n: &mut Netlist,
    a: &[NetId],
    b: &[NetId],
    keep: impl Fn(usize, usize) -> bool,
) -> Vec<Vec<NetId>> {
    let w = a.len();
    let mut cols: Vec<Vec<NetId>> = vec![Vec::new(); 2 * w];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            if keep(i, j) {
                let pp = n.and(ai, bj);
                cols[i + j].push(pp);
            }
        }
    }
    cols
}

/// Reduce a partial-product column matrix to the final product bits using
/// carry-save 3:2/2:2 reduction followed by a ripple-carry final adder.
fn reduce_columns(n: &mut Netlist, mut cols: Vec<Vec<NetId>>) -> Vec<NetId> {
    let width = cols.len();
    // Carry-save reduction until every column holds at most 2 bits.
    loop {
        let worst = cols.iter().map(Vec::len).max().unwrap_or(0);
        if worst <= 2 {
            break;
        }
        let mut next: Vec<Vec<NetId>> = vec![Vec::new(); width + 1];
        for c in 0..width {
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
        next.truncate(width); // weight >= 2^width cannot occur for 2w-bit product
        cols = next;
    }
    // Final carry-propagate (ripple) addition over the two remaining rows.
    let mut outs = Vec::with_capacity(width);
    let mut carry: Option<NetId> = None;
    for col in cols.iter() {
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
            _ => unreachable!("columns reduced to <= 2 bits"),
        };
        outs.push(bit);
    }
    outs
}

/// Exact array multiplier: AND partial products summed row by row with
/// ripple-carry adders. Simple, deep, compact.
///
/// # Panics
///
/// Panics if `width` is outside the multiplier width domain.
pub fn array_multiplier(width: usize) -> ArithCircuit {
    ArithKind::Multiplier.assert_width(width);
    let mut n = Netlist::new(format!("mul{width}u_arr"));
    let (a, b) = declare_operands(&mut n, width);
    // Row-by-row accumulation.
    let mut acc: Vec<NetId> = Vec::new();
    let mut outs: Vec<NetId> = Vec::with_capacity(2 * width);
    for (j, &bj) in b.iter().enumerate() {
        let row: Vec<NetId> = a.iter().map(|&ai| n.and(ai, bj)).collect();
        if j == 0 {
            outs.push(row[0]);
            acc = row[1..].to_vec();
            continue;
        }
        // acc (width-1 bits) + row (width bits) -> low bit out, new acc.
        let mut new_acc = Vec::with_capacity(width);
        let mut carry: Option<NetId> = None;
        for (i, &x) in row.iter().enumerate().take(width) {
            let y = acc.get(i).copied();
            let (s, c) = match (y, carry) {
                (Some(y), Some(cin)) => full_adder(&mut n, x, y, cin),
                (Some(y), None) => half_adder(&mut n, x, y),
                (None, Some(cin)) => half_adder(&mut n, x, cin),
                (None, None) => (x, n.constant(false)),
            };
            carry = Some(c);
            new_acc.push(s);
        }
        outs.push(new_acc[0]);
        acc = new_acc[1..].to_vec();
        acc.push(carry.expect("width >= 1"));
    }
    outs.extend(acc);
    // width == 1 yields a single AND bit; pad the product to 2w bits.
    while outs.len() < 2 * width {
        let zero = n.constant(false);
        outs.push(zero);
    }
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Multiplier, width, n)
}

/// Exact Wallace-style tree multiplier: carry-save column reduction, flat
/// and fast, more wiring.
///
/// # Panics
///
/// Panics if `width` is outside the multiplier width domain.
pub fn wallace_multiplier(width: usize) -> ArithCircuit {
    ArithKind::Multiplier.assert_width(width);
    let mut n = Netlist::new(format!("mul{width}u_wal"));
    let (a, b) = declare_operands(&mut n, width);
    let cols = partial_products(&mut n, &a, &b, |_, _| true);
    let outs = reduce_columns(&mut n, cols);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Multiplier, width, n)
}

/// Truncated multiplier: partial products feeding the `k` least-significant
/// product columns are dropped (those outputs become constant 0).
///
/// # Panics
///
/// Panics if `width` is outside the multiplier width domain or `k >= 2*width`.
pub fn truncated(width: usize, k: usize) -> ArithCircuit {
    ArithKind::Multiplier.assert_width(width);
    assert!(k < 2 * width, "cannot drop every product column");
    let mut n = Netlist::new(format!("mul{width}u_trunc{k}"));
    let (a, b) = declare_operands(&mut n, width);
    let cols = partial_products(&mut n, &a, &b, |i, j| i + j >= k);
    let outs = reduce_columns(&mut n, cols);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Multiplier, width, n)
}

/// Broken-array multiplier (BAM): partial products below the horizontal
/// break `hbl` (row index) *and* in columns left of the vertical break
/// `vbl` are omitted, thinning the array from the LSB side.
///
/// `keep(i, j)`: drop when `i + j < vbl` or (`j < hbl` and `i + j < vbl + hbl`).
///
/// # Panics
///
/// Panics if `width` is outside the multiplier width domain, or the breaks exceed the array.
pub fn broken_array(width: usize, vbl: usize, hbl: usize) -> ArithCircuit {
    ArithKind::Multiplier.assert_width(width);
    assert!(vbl < 2 * width && hbl <= width, "break lines out of range");
    let mut n = Netlist::new(format!("mul{width}u_bam_v{vbl}h{hbl}"));
    let (a, b) = declare_operands(&mut n, width);
    let cols = partial_products(&mut n, &a, &b, |i, j| {
        i + j >= vbl && !(j < hbl && i + j < vbl + hbl)
    });
    let outs = reduce_columns(&mut n, cols);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Multiplier, width, n)
}

/// Underdesigned multiplier (Kulkarni-style): built from 2x2 blocks where
/// the approximate block computes `3*3 = 7` (3 output bits instead of 4).
/// `approx_mask` selects which of the `(width/2)^2` blocks are approximate
/// (LSB = block (0,0); row-major over (a-block, b-block)).
///
/// # Panics
///
/// Panics if `width` is not an even number in `2..=16`.
pub fn underdesigned(width: usize, approx_mask: u64) -> ArithCircuit {
    assert!(
        width.is_multiple_of(2) && (2..=16).contains(&width),
        "width must be even and 2..=16"
    );
    let blocks = width / 2;
    let mut n = Netlist::new(format!("mul{width}u_udm{approx_mask:x}"));
    let (a, b) = declare_operands(&mut n, width);
    let mut cols: Vec<Vec<NetId>> = vec![Vec::new(); 2 * width];
    for bi in 0..blocks {
        for bj in 0..blocks {
            let idx = bi * blocks + bj;
            let (a0, a1) = (a[2 * bi], a[2 * bi + 1]);
            let (b0, b1) = (b[2 * bj], b[2 * bj + 1]);
            let shift = 2 * (bi + bj);
            let approx = (approx_mask >> idx) & 1 == 1;
            // 2x2 product bits p0..p3 of a(2b) * b(2b).
            let p0 = n.and(a0, b0);
            let a0b1 = n.and(a0, b1);
            let a1b0 = n.and(a1, b0);
            let a1b1 = n.and(a1, b1);
            if approx {
                // Kulkarni block: p1 = a0b1 | a1b0, p2 = a1b1; 3*3 -> 7.
                let p1 = n.or(a0b1, a1b0);
                cols[shift].push(p0);
                cols[shift + 1].push(p1);
                cols[shift + 2].push(a1b1);
            } else {
                let p1 = n.xor(a0b1, a1b0);
                let c1 = n.and(a0b1, a1b0);
                let p2 = n.xor(a1b1, c1);
                let p3 = n.and(a1b1, c1);
                cols[shift].push(p0);
                cols[shift + 1].push(p1);
                cols[shift + 2].push(p2);
                cols[shift + 3].push(p3);
            }
        }
    }
    let outs = reduce_columns(&mut n, cols);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Multiplier, width, n)
}

/// Wallace multiplier whose columns below `k` are reduced with approximate
/// (carry-dropping OR) compression instead of exact counters.
///
/// # Panics
///
/// Panics if `width` is outside the multiplier width domain or `k >= 2*width`.
pub fn approx_compressor(width: usize, k: usize) -> ArithCircuit {
    ArithKind::Multiplier.assert_width(width);
    assert!(k < 2 * width, "approximate columns out of range");
    let mut n = Netlist::new(format!("mul{width}u_acmp{k}"));
    let (a, b) = declare_operands(&mut n, width);
    let mut cols = partial_products(&mut n, &a, &b, |_, _| true);
    // Approximate reduction in the low columns: OR the bits together
    // (no carries produced) — mimics approximate 4:2 compressors.
    for col in cols.iter_mut().take(k) {
        if col.len() > 1 {
            let mut it = col.drain(..);
            let mut acc = it.next().expect("len > 1");
            for x in it {
                acc = n.or(acc, x);
            }
            *col = vec![acc];
        }
    }
    let outs = reduce_columns(&mut n, cols);
    n.set_outputs(outs);
    ArithCircuit::new(ArithKind::Multiplier, width, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::BatchEvaluator;

    fn check_exact(c: &ArithCircuit, exhaustive: bool) {
        let w = c.width();
        let mask = (1u64 << w) - 1;
        let pairs: Vec<(u64, u64)> = if exhaustive {
            (0..=mask)
                .flat_map(|a| (0..=mask).map(move |b| (a, b)))
                .collect()
        } else {
            let mut p = vec![(0, 0), (mask, mask), (1, mask), (mask, 1)];
            let mut s = 99u64;
            for _ in 0..2000 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                p.push(((s >> 10) & mask, (s >> 40) & mask));
            }
            p
        };
        let mut batch = BatchEvaluator::new(c);
        let got = batch.eval_pairs(&pairs);
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(got[i], a * b, "{}: {a}*{b}", c.name());
        }
    }

    #[test]
    fn array_multiplier_exact_small_widths() {
        for w in [1, 2, 3, 4, 5] {
            check_exact(&array_multiplier(w), true);
        }
    }

    #[test]
    fn array_multiplier_exact_8_16() {
        check_exact(&array_multiplier(8), false);
        check_exact(&array_multiplier(16), false);
    }

    #[test]
    fn wallace_multiplier_exact() {
        for w in [2, 3, 4] {
            check_exact(&wallace_multiplier(w), true);
        }
        check_exact(&wallace_multiplier(8), false);
        check_exact(&wallace_multiplier(12), false);
    }

    #[test]
    fn wallace_is_shallower_than_array() {
        let arr = array_multiplier(8);
        let wal = wallace_multiplier(8);
        assert!(
            afp_netlist::analyze::depth(wal.netlist()) < afp_netlist::analyze::depth(arr.netlist())
        );
    }

    #[test]
    fn truncated_drops_low_columns() {
        let c = truncated(8, 6);
        // Products confined to the low columns vanish.
        assert_eq!(c.eval(1, 1), 0);
        assert_eq!(c.eval(3, 5), 0);
        // High products mostly survive.
        let big = c.eval(255, 255);
        assert!(big > 60000, "got {big}");
        assert!(big <= 65025);
    }

    #[test]
    fn truncated_zero_is_exact() {
        check_exact(&truncated(8, 0), false);
    }

    #[test]
    fn broken_array_underestimates() {
        let c = broken_array(8, 5, 2);
        for (a, b) in [(255u64, 255u64), (100, 200), (13, 77)] {
            assert!(c.eval(a, b) <= a * b);
        }
    }

    #[test]
    fn underdesigned_exact_mask_zero() {
        check_exact(&underdesigned(8, 0), false);
        check_exact(&underdesigned(4, 0), true);
    }

    #[test]
    fn underdesigned_block_error_is_localized() {
        // One approximate block (0,0): only 3*3 on the low 2-bit digits errs.
        let c = underdesigned(4, 1);
        assert_eq!(c.eval(3, 3), 7); // the classic 3*3=7
        assert_eq!(c.eval(3, 2), 6); // unaffected
        assert_eq!(c.eval(15, 12), 180); // low digits of b are 0 -> exact
    }

    #[test]
    fn approx_compressor_underestimates_low_part() {
        let c = approx_compressor(8, 6);
        let mut max_err = 0i64;
        let mut s = 7u64;
        for _ in 0..500 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let (a, b) = ((s >> 8) & 0xFF, (s >> 40) & 0xFF);
            let err = (a * b) as i64 - c.eval(a, b) as i64;
            assert!(err >= 0, "OR-compression cannot overestimate: {a}*{b}");
            max_err = max_err.max(err);
        }
        assert!(max_err > 0, "must actually be approximate");
    }

    #[test]
    fn approximate_multipliers_are_cheaper() {
        let exact = wallace_multiplier(8);
        let g = exact.netlist().num_logic_gates();
        for mut c in [
            truncated(8, 6),
            broken_array(8, 6, 3),
            underdesigned(8, 0xFFFF),
            approx_compressor(8, 8),
        ] {
            c.simplify();
            assert!(
                c.netlist().num_logic_gates() < g,
                "{} not cheaper: {} vs {g}",
                c.name(),
                c.netlist().num_logic_gates()
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn truncation_never_overestimates(a in 0u64..256, b in 0u64..256, k in 0usize..10) {
            let c = truncated(8, k);
            proptest::prop_assert!(c.eval(a, b) <= a * b);
        }

        #[test]
        fn udm_matches_exact_when_mask_zero(a in 0u64..64, b in 0u64..64) {
            let c = underdesigned(6, 0);
            proptest::prop_assert_eq!(c.eval(a, b), a * b);
        }
    }
}
