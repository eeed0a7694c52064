//! Pareto-front machinery: extraction, multi-front peeling (§II of the
//! paper) and coverage scoring.
//!
//! All fronts are over 2-D points `(cost, error)` with *both* objectives
//! minimized; a point is pareto-optimal when no other point is at least as
//! good in both objectives and strictly better in one.
//!
//! [`pseudo_pareto`] and [`measured_front`] are the two exploration
//! stages built on these: candidate selection with the estimate
//! quarantine, and scoring of what was synthesized. The flow, the
//! cross-target transfer matrix and the figure regenerators all go
//! through them.
//!
//! Numeric policy: all orderings go through the workspace total-order
//! helpers ([`afp_ord`]), so NaN points can never panic a sort or corrupt
//! the peeling. A point with a NaN coordinate is **never** a front
//! member; `±inf` behaves as an ordinary extreme value.

use std::collections::BTreeSet;

/// Indices of the pareto-optimal points of `points = (cost, error)`.
///
/// Ties: duplicate points are all kept (none dominates the other strictly).
/// The result is sorted by ascending cost.
///
/// Points with a NaN coordinate are ignored: they are neither front
/// members nor able to dominate anything.
///
/// # Example
///
/// ```
/// use approxfpgas::pareto_front;
///
/// let pts = [(1.0, 5.0), (2.0, 3.0), (3.0, 4.0), (4.0, 1.0)];
/// assert_eq!(pareto_front(&pts), vec![0, 1, 3]); // (3,4) is dominated
/// ```
pub fn pareto_front(points: &[(f64, f64)]) -> Vec<usize> {
    let mut front = sweep_front(points, &sorted_order(points));
    front.sort_unstable();
    front
}

/// Every index of `points`, stably sorted by cost, then error. The total
/// order places NaN-cost points last, where [`sweep_front`] stops.
fn sorted_order(points: &[(f64, f64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| afp_ord::pair_asc(points[a], points[b]));
    order
}

/// The pareto front of the points `order` lists, given in
/// [`sorted_order`]'s order: a sweep keeping the running error minimum
/// yields the non-dominated set (in sweep order, not sorted).
fn sweep_front(points: &[(f64, f64)], order: &[usize]) -> Vec<usize> {
    let mut front = Vec::new();
    let mut best_error = f64::INFINITY;
    let mut i = 0;
    while i < order.len() {
        // Group equal-cost points; among them only the min-error ones are
        // candidates.
        let cost = points[order[i]].0;
        if cost.is_nan() {
            // NaN costs sort last; nothing beyond this point is rankable.
            break;
        }
        let mut j = i;
        let mut group_min = f64::INFINITY;
        while j < order.len() && points[order[j]].0 == cost {
            // `f64::min` skips NaN errors, so a NaN-error point can never
            // set the group minimum (and `NaN == group_min` below is
            // false, so it can never join the front either).
            group_min = group_min.min(points[order[j]].1);
            j += 1;
        }
        if group_min < best_error {
            for &idx in &order[i..j] {
                if points[idx].1 == group_min {
                    front.push(idx);
                }
            }
            best_error = group_min;
        }
        i = j;
    }
    front
}

/// Peel `n` successive pseudo-pareto fronts (the paper's F1, F2, ... built
/// on `C`, `C \ F1`, `C \ (F1 ∪ F2)`, ...). Returns one index list per
/// front; fewer than `n` lists when the points run out.
///
/// Points with a NaN coordinate are never peeled ([`pareto_front`] skips
/// them); peeling stops early instead of emitting empty fronts when only
/// unrankable points remain.
///
/// # Example
///
/// ```
/// use approxfpgas::peel_fronts;
///
/// let pts = [(1.0, 3.0), (2.0, 2.0), (2.5, 2.5), (3.0, 1.0)];
/// let fronts = peel_fronts(&pts, 2);
/// assert_eq!(fronts.len(), 2);
/// assert!(fronts[0].contains(&0) && fronts[0].contains(&3));
/// assert!(fronts[1].contains(&2));
/// ```
pub fn peel_fronts(points: &[(f64, f64)], n: usize) -> Vec<Vec<usize>> {
    // A stable sort restricted to a subset is that subset's stable sort,
    // so one sort serves every front: each peel sweeps the order and
    // then drops the points it took.
    let mut order = sorted_order(points);
    let mut fronts = Vec::new();
    for _ in 0..n {
        let mut front = sweep_front(points, &order);
        if front.is_empty() {
            // Nothing or only NaN points left; further peels would all
            // be empty.
            break;
        }
        front.sort_unstable();
        order.retain(|i| front.binary_search(i).is_err());
        fronts.push(front);
    }
    fronts
}

/// The pseudo-pareto candidates of one model (§II): the union of its
/// first `fronts` peeled fronts in estimate space.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PseudoPareto {
    /// Candidate library indices, ascending.
    pub candidates: BTreeSet<usize>,
    /// Points dropped before peeling because their estimate was not
    /// finite (the estimate quarantine).
    pub quarantined: usize,
}

/// Select one model's re-synthesis candidates from its `(estimate,
/// error)` points, one per library circuit in library order.
///
/// Every point whose estimate is NaN or `±inf` is quarantined: dropped
/// and counted, never peeled. The remaining points are peeled into
/// `fronts` pseudo-pareto fronts whose union, mapped back to library
/// indices, is the candidate set.
///
/// # Example
///
/// ```
/// use approxfpgas::pseudo_pareto;
///
/// let pts = [(1.0, 3.0), (f64::NAN, 0.0), (2.0, 2.0), (2.5, 2.5), (3.0, 1.0)];
/// let one = pseudo_pareto(&pts, 1);
/// assert_eq!(one.candidates.into_iter().collect::<Vec<_>>(), vec![0, 2, 4]);
/// assert_eq!(one.quarantined, 1);
/// assert!(pseudo_pareto(&pts, 2).candidates.contains(&3));
/// ```
pub fn pseudo_pareto(points: &[(f64, f64)], fronts: usize) -> PseudoPareto {
    let keep: Vec<usize> = (0..points.len())
        .filter(|&i| points[i].0.is_finite())
        .collect();
    let finite: Vec<(f64, f64)> = keep.iter().map(|&i| points[i]).collect();
    let candidates = peel_fronts(&finite, fronts)
        .into_iter()
        .flatten()
        .map(|li| keep[li])
        .collect();
    PseudoPareto {
        candidates,
        quarantined: points.len() - keep.len(),
    }
}

/// What re-synthesizing a candidate set reveals: the measured front and
/// how much of the true front it recovers.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasuredFront {
    /// Pareto front over the synthesized points only, as ascending
    /// library indices — what the flow can see.
    pub front: Vec<usize>,
    /// Pareto front over every point (the ground truth).
    pub true_front: Vec<usize>,
    /// [`coverage`] of `true_front` by `front`.
    pub coverage: f64,
}

/// Score a synthesized set against the ground truth: `points` holds the
/// measured `(cost, error)` of every library circuit, `synthesized` the
/// indices that were actually synthesized.
///
/// # Example
///
/// ```
/// use approxfpgas::measured_front;
///
/// let pts = [(1.0, 3.0), (2.0, 2.0), (2.5, 2.5), (3.0, 1.0)];
/// let m = measured_front(&pts, &[0, 2].into_iter().collect());
/// assert_eq!(m.front, vec![0, 2]);
/// assert_eq!(m.true_front, vec![0, 1, 3]);
/// assert!((m.coverage - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn measured_front(points: &[(f64, f64)], synthesized: &BTreeSet<usize>) -> MeasuredFront {
    let synth: Vec<usize> = synthesized.iter().copied().collect();
    let synth_points: Vec<(f64, f64)> = synth.iter().map(|&i| points[i]).collect();
    let front: Vec<usize> = pareto_front(&synth_points)
        .into_iter()
        .map(|li| synth[li])
        .collect();
    let true_front = pareto_front(points);
    let coverage = coverage(&true_front, &front, points);
    MeasuredFront {
        front,
        true_front,
        coverage,
    }
}

/// Fraction of the true pareto front recovered by `found` (the paper's
/// "percentage coverage of the pareto-optimal designs").
///
/// A true-front point counts as covered when `found` contains it *or*
/// contains a point with identical objectives.
pub fn coverage(true_front: &[usize], found: &[usize], points: &[(f64, f64)]) -> f64 {
    if true_front.is_empty() {
        return 1.0;
    }
    // Index and value-key sets are built once: membership checks are O(1)
    // instead of rescanning `found` per true-front point.
    let found_idx: std::collections::HashSet<usize> = found.iter().copied().collect();
    let found_keys: std::collections::HashSet<(u64, u64)> =
        found.iter().filter_map(|&i| point_key(points[i])).collect();
    let covered = true_front
        .iter()
        .filter(|&&t| {
            found_idx.contains(&t) || point_key(points[t]).is_some_and(|k| found_keys.contains(&k))
        })
        .count();
    covered as f64 / true_front.len() as f64
}

/// Bit-pattern key for exact value-equality lookups, matching `==`
/// semantics: `-0.0` normalizes to `+0.0`, and NaN coordinates yield no
/// key (NaN never equals anything under `==`).
fn point_key(p: (f64, f64)) -> Option<(u64, u64)> {
    if p.0.is_nan() || p.1.is_nan() {
        None
    } else {
        Some(((p.0 + 0.0).to_bits(), (p.1 + 0.0).to_bits()))
    }
}

/// True if point `a` dominates point `b` (both minimized).
///
/// NaN coordinates make every comparison false: a NaN point neither
/// dominates nor is dominated, consistent with [`pareto_front`] ignoring
/// such points.
pub fn dominates(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_is_its_own_front() {
        assert_eq!(pareto_front(&[(1.0, 1.0)]), vec![0]);
    }

    #[test]
    fn dominated_points_are_excluded() {
        let pts = [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0)];
        let f = pareto_front(&pts);
        assert_eq!(f, vec![0, 2]);
    }

    #[test]
    fn duplicates_are_kept_together() {
        let pts = [(1.0, 1.0), (1.0, 1.0), (2.0, 0.5)];
        let f = pareto_front(&pts);
        assert_eq!(f, vec![0, 1, 2]);
    }

    #[test]
    fn equal_cost_keeps_only_min_error() {
        let pts = [(1.0, 2.0), (1.0, 1.0), (3.0, 0.5)];
        let f = pareto_front(&pts);
        assert_eq!(f, vec![1, 2]);
    }

    #[test]
    fn front_members_are_mutually_nondominated() {
        let mut s = 9u64;
        let pts: Vec<(f64, f64)> = (0..200)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (
                    ((s >> 20) & 0x3FF) as f64 / 10.0,
                    ((s >> 40) & 0x3FF) as f64 / 10.0,
                )
            })
            .collect();
        let f = pareto_front(&pts);
        for &a in &f {
            for &b in &f {
                if a != b {
                    assert!(!dominates(pts[a], pts[b]), "{a} dominates {b}");
                }
            }
        }
        // Every non-front point is dominated by some front point.
        for i in 0..pts.len() {
            if !f.contains(&i) {
                assert!(
                    f.iter().any(|&a| dominates(pts[a], pts[i])),
                    "point {i} wrongly excluded"
                );
            }
        }
    }

    #[test]
    fn peeling_partitions_progressively() {
        let mut s = 77u64;
        let pts: Vec<(f64, f64)> = (0..60)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (((s >> 20) & 0xFF) as f64, ((s >> 40) & 0xFF) as f64)
            })
            .collect();
        let fronts = peel_fronts(&pts, 3);
        assert_eq!(fronts.len(), 3);
        // Disjoint.
        let mut seen = std::collections::HashSet::new();
        for f in &fronts {
            for &i in f {
                assert!(seen.insert(i), "index {i} in two fronts");
            }
        }
        // F2 points are dominated only by F1 points (none within F2).
        for &b in &fronts[1] {
            assert!(fronts[0].iter().any(|&a| dominates(pts[a], pts[b])));
        }
    }

    #[test]
    fn peeling_stops_when_exhausted() {
        let pts = [(1.0, 1.0), (2.0, 0.5)];
        let fronts = peel_fronts(&pts, 5);
        assert_eq!(fronts.len(), 1); // both points on F1
    }

    #[test]
    fn nan_points_are_never_front_members() {
        let nan = f64::NAN;
        let pts = [(1.0, 1.0), (nan, 0.0), (0.5, nan), (nan, nan), (2.0, 0.5)];
        assert_eq!(pareto_front(&pts), vec![0, 4]);
        // All-NaN input: empty front, no panic, no infinite loop.
        assert_eq!(pareto_front(&[(nan, 1.0), (nan, nan)]), Vec::<usize>::new());
        // NaN-cost duplicates grouped at the tail must not stall the sweep.
        assert_eq!(pareto_front(&[(nan, 1.0), (nan, 1.0)]), Vec::<usize>::new());
    }

    #[test]
    fn infinities_rank_as_extreme_values() {
        let inf = f64::INFINITY;
        // inf cost but uniquely small error: non-dominated.
        let pts = [(1.0, 5.0), (inf, 1.0), (2.0, 3.0)];
        assert_eq!(pareto_front(&pts), vec![0, 1, 2]);
        // -inf cost dominates everything with larger error.
        let pts = [(-inf, 1.0), (0.0, 2.0), (0.0, 0.5)];
        assert_eq!(pareto_front(&pts), vec![0, 2]);
        // inf error is never on the front while finite errors exist.
        let pts = [(1.0, inf), (2.0, 3.0)];
        assert_eq!(pareto_front(&pts), vec![1]);
    }

    #[test]
    fn peeling_skips_nan_points_and_terminates() {
        let nan = f64::NAN;
        let pts = [(1.0, 2.0), (nan, 0.0), (2.0, 1.0), (3.0, nan), (2.5, 2.5)];
        let fronts = peel_fronts(&pts, 10);
        // NaN points never appear in any front.
        for f in &fronts {
            assert!(!f.contains(&1) && !f.contains(&3), "{fronts:?}");
        }
        // No trailing empty fronts once only NaN points remain.
        assert!(fronts.iter().all(|f| !f.is_empty()));
        let peeled: usize = fronts.iter().map(|f| f.len()).sum();
        assert_eq!(peeled, 3);
        // All-NaN input peels nothing.
        assert!(peel_fronts(&[(nan, nan)], 3).is_empty());
    }

    #[test]
    fn coverage_with_nan_points_stays_in_unit_range() {
        let nan = f64::NAN;
        let pts = [(1.0, 1.0), (nan, 0.5), (2.0, 0.25)];
        // A NaN true-front point is only covered by its own index.
        assert_eq!(coverage(&[0, 1], &[0], &pts), 0.5);
        assert_eq!(coverage(&[0, 1], &[0, 1], &pts), 1.0);
        // A NaN found point never value-covers anything.
        assert_eq!(coverage(&[0], &[1], &pts), 0.0);
    }

    #[test]
    fn coverage_counts_value_duplicates() {
        let pts = [(1.0, 1.0), (1.0, 1.0), (2.0, 0.5)];
        // True front indices {0,1,2}; found only {1,2} — but 0 has the same
        // objectives as 1, so it still counts as covered.
        assert_eq!(coverage(&[0, 1, 2], &[1, 2], &pts), 1.0);
        assert_eq!(coverage(&[0, 2], &[0], &pts), 0.5);
        assert_eq!(coverage(&[], &[], &pts), 1.0);
    }

    #[test]
    fn pseudo_pareto_quarantines_every_non_finite_estimate() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        // -inf would dominate everything and +inf still ranks on a
        // front with a tiny error; both must be dropped, not peeled.
        let pts = [(-inf, 9.0), (1.0, 3.0), (nan, 0.0), (2.0, 1.0), (inf, 0.0)];
        let picked = pseudo_pareto(&pts, 3);
        assert_eq!(picked.quarantined, 3);
        assert_eq!(picked.candidates, [1, 3].into_iter().collect());
        // Nothing finite: nothing selected, everything counted.
        let none = pseudo_pareto(&[(nan, 1.0), (inf, 1.0), (-inf, 1.0)], 3);
        assert!(none.candidates.is_empty());
        assert_eq!(none.quarantined, 3);
        // A NaN *error* is not a quarantined estimate; it just never
        // makes a front.
        let err_nan = pseudo_pareto(&[(1.0, nan), (2.0, 1.0)], 1);
        assert_eq!(err_nan.quarantined, 0);
        assert_eq!(err_nan.candidates, [1].into_iter().collect());
    }

    #[test]
    fn pseudo_pareto_maps_candidates_back_to_library_order() {
        let mut s = 31u64;
        let pts: Vec<(f64, f64)> = (0..80)
            .map(|i| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Every 7th estimate is non-finite, shifting the local
                // indices of everything after it.
                let est = if i % 7 == 3 {
                    f64::NAN
                } else {
                    ((s >> 20) & 0xFF) as f64
                };
                (est, ((s >> 40) & 0xFF) as f64)
            })
            .collect();
        let picked = pseudo_pareto(&pts, 2);
        assert_eq!(picked.quarantined, (0..80).filter(|i| i % 7 == 3).count());
        // The same selection done by hand on the finite points.
        let keep: Vec<usize> = (0..80).filter(|i| i % 7 != 3).collect();
        let finite: Vec<(f64, f64)> = keep.iter().map(|&i| pts[i]).collect();
        let by_hand: BTreeSet<usize> = peel_fronts(&finite, 2)
            .into_iter()
            .flatten()
            .map(|li| keep[li])
            .collect();
        assert_eq!(picked.candidates, by_hand);
        for &i in &picked.candidates {
            assert!(pts[i].0.is_finite(), "quarantined point {i} selected");
        }
        // The first front's members are non-dominated in library terms.
        let first = pseudo_pareto(&pts, 1).candidates;
        for &a in &first {
            assert!(keep.iter().all(|&b| !dominates(pts[b], pts[a])));
        }
    }

    #[test]
    fn measured_front_is_drawn_from_the_synthesized_set() {
        let mut s = 5u64;
        let pts: Vec<(f64, f64)> = (0..120)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (((s >> 20) & 0x3F) as f64, ((s >> 40) & 0x3F) as f64)
            })
            .collect();
        let synthesized: BTreeSet<usize> = (0..120).filter(|i| i % 3 != 0).collect();
        let m = measured_front(&pts, &synthesized);
        assert!(!m.front.is_empty());
        assert!(m.front.iter().all(|i| synthesized.contains(i)));
        assert!(m.front.windows(2).all(|w| w[0] < w[1]), "not ascending");
        assert_eq!(m.true_front, pareto_front(&pts));
        // Synthesizing everything recovers the whole true front.
        let all = measured_front(&pts, &(0..120).collect());
        assert_eq!(all.front, all.true_front);
        assert_eq!(all.coverage, 1.0);
    }

    #[test]
    fn measured_coverage_matches_the_inline_computation() {
        let pts = [
            (1.0, 6.0),
            (2.0, 4.0),
            (2.0, 4.0),
            (3.0, 3.5),
            (4.0, 2.0),
            (5.0, 2.5),
            (6.0, 0.0),
            (7.0, 0.0),
        ];
        let synthesized: BTreeSet<usize> = [0, 2, 3, 5, 7].into_iter().collect();
        // The scoring every caller used to spell out by hand.
        let synth_list: Vec<usize> = synthesized.iter().copied().collect();
        let synth_points: Vec<(f64, f64)> = synth_list.iter().map(|&i| pts[i]).collect();
        let found: Vec<usize> = pareto_front(&synth_points)
            .iter()
            .map(|&li| synth_list[li])
            .collect();
        let truth = pareto_front(&pts);
        let inline = coverage(&truth, &found, &pts);

        let m = measured_front(&pts, &synthesized);
        assert_eq!(m.front, found);
        assert_eq!(m.true_front, truth);
        assert_eq!(m.coverage.to_bits(), inline.to_bits());
        // Truth {0,1,2,3,4,6}; found {0,2,3,5,7}: 0, 2 and 3 by index,
        // 1 by value (a duplicate of 2); 4 and 6 missed.
        assert_eq!(truth, vec![0, 1, 2, 3, 4, 6]);
        assert_eq!(m.coverage, 4.0 / 6.0);
    }

    /// `pareto_front` as one function, before the sort and the sweep were
    /// split for `peel_fronts` to share.
    fn pareto_front_by_sorting(points: &[(f64, f64)]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..points.len()).collect();
        order.sort_by(|&a, &b| afp_ord::pair_asc(points[a], points[b]));
        let mut front = Vec::new();
        let mut best_error = f64::INFINITY;
        let mut i = 0;
        while i < order.len() {
            let cost = points[order[i]].0;
            if cost.is_nan() {
                break;
            }
            let mut j = i;
            let mut group_min = f64::INFINITY;
            while j < order.len() && points[order[j]].0 == cost {
                group_min = group_min.min(points[order[j]].1);
                j += 1;
            }
            if group_min < best_error {
                for &idx in &order[i..j] {
                    if points[idx].1 == group_min {
                        front.push(idx);
                    }
                }
                best_error = group_min;
            }
            i = j;
        }
        front.sort_unstable();
        front
    }

    /// The peeling every front used to do: copy the remaining points and
    /// take the pareto front of the copy.
    fn peel_fronts_by_copying(points: &[(f64, f64)], n: usize) -> Vec<Vec<usize>> {
        let mut remaining: Vec<usize> = (0..points.len()).collect();
        let mut fronts = Vec::new();
        for _ in 0..n {
            if remaining.is_empty() {
                break;
            }
            let sub: Vec<(f64, f64)> = remaining.iter().map(|&i| points[i]).collect();
            let local = pareto_front_by_sorting(&sub);
            if local.is_empty() {
                break;
            }
            let global: Vec<usize> = local.iter().map(|&li| remaining[li]).collect();
            let taken: std::collections::HashSet<usize> = global.iter().copied().collect();
            remaining.retain(|i| !taken.contains(i));
            fronts.push(global);
        }
        fronts
    }

    proptest::proptest! {
        #[test]
        fn front_and_peeling_match_the_oracle(
            picks in proptest::collection::vec((0usize..12, 0usize..12), 0..80),
            n in 0usize..8,
        ) {
            // A small value pool forces duplicates and ties; it holds NaN,
            // both infinities and both zeros.
            const POOL: [f64; 12] = [
                f64::NAN, f64::NEG_INFINITY, -2.0, -0.0, 0.0, 0.5,
                1.0, 1.0, 3.0, 7.5, 1e300, f64::INFINITY,
            ];
            let pts: Vec<(f64, f64)> = picks.iter().map(|&(c, e)| (POOL[c], POOL[e])).collect();
            proptest::prop_assert_eq!(pareto_front(&pts), pareto_front_by_sorting(&pts));
            proptest::prop_assert_eq!(peel_fronts(&pts, n), peel_fronts_by_copying(&pts, n));
        }

        #[test]
        fn front_is_subset_and_idempotent(seed in 0u64..300) {
            let mut s = seed | 1;
            // Roughly every 8th coordinate is degenerate: NaN, ±inf or a
            // huge magnitude, mimicking untrusted estimator output.
            let coord = |s: &mut u64| -> f64 {
                *s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                match (*s >> 59) & 0x7 {
                    0 => match (*s >> 56) & 0x3 {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        _ => 1e300,
                    },
                    _ => ((*s >> 16) & 0x3F) as f64,
                }
            };
            let pts: Vec<(f64, f64)> = (0..50).map(|_| (coord(&mut s), coord(&mut s))).collect();
            let f1 = pareto_front(&pts);
            // No NaN point is ever a front member.
            for &i in &f1 {
                proptest::prop_assert!(!pts[i].0.is_nan() && !pts[i].1.is_nan());
            }
            // Front members are mutually non-dominated.
            for &a in &f1 {
                for &b in &f1 {
                    proptest::prop_assert!(a == b || !dominates(pts[a], pts[b]));
                }
            }
            let sub: Vec<(f64, f64)> = f1.iter().map(|&i| pts[i]).collect();
            let f2 = pareto_front(&sub);
            proptest::prop_assert_eq!(f2.len(), f1.len(), "front not idempotent");
        }
    }
}
