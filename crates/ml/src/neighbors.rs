//! K-nearest-neighbour regression — ML16.

use std::cell::RefCell;
use std::cmp::Ordering;

use afp_store::ByteReader;

use crate::codec::{self, ModelState};
use crate::linalg::sq_dists;
use crate::preprocess::Standardizer;
use crate::{check_xy, Matrix, MlError, Regressor};

/// K-nearest neighbours with inverse-distance weighting on standardized
/// features.
///
/// # Example
///
/// ```
/// use afp_ml::neighbors::KNearest;
/// use afp_ml::{Matrix, Regressor};
///
/// let x = Matrix::from_rows(&[&[0.0], &[1.0], &[10.0]]);
/// let y = [0.0, 1.0, 10.0];
/// let mut m = KNearest::new(2);
/// m.fit(&x, &y)?;
/// assert!(m.predict_row(&[0.4]) < 1.0);
/// # Ok::<(), afp_ml::MlError>(())
/// ```
#[derive(Clone, Debug)]
pub struct KNearest {
    k: usize,
    scaler: Option<Standardizer>,
    /// Standardized training rows, feature-major: `train.row(f)[j]` is
    /// feature `f` of row `j`.
    train: Matrix,
    targets: Vec<f64>,
}

impl KNearest {
    /// KNN with `k` neighbours (at least 1).
    pub fn new(k: usize) -> KNearest {
        KNearest {
            k: k.max(1),
            scaler: None,
            train: Matrix::default(),
            targets: Vec::new(),
        }
    }

    pub(crate) fn decode_state(r: &mut ByteReader) -> Option<KNearest> {
        let m = KNearest {
            k: codec::read_usize(r)?,
            scaler: codec::read_scaler(r)?,
            train: codec::read_train(r)?,
            targets: codec::read_vec(r)?,
        };
        if m.train.cols() != m.targets.len() {
            return None;
        }
        Some(m)
    }
}

/// `predict_row` buffers: the standardized query row, its squared
/// distances and the kept neighbours.
type Scratch = (Vec<f64>, Vec<f64>, Vec<Neighbour>);

thread_local! {
    /// Per-thread [`Scratch`], so estimating a library allocates nothing
    /// per row.
    static SCRATCH: RefCell<Scratch> = const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// A kept neighbour: its distance, squared distance and target.
type Neighbour = (f64, f64, f64);

/// The inverse-distance-weighted mean of the `k` nearest training rows,
/// given their squared distances `d2` and `targets` in training order,
/// ranked as a stable ascending sort on [`afp_ord::asc`] of the distances
/// `d2.sqrt()` would rank them: ties keep training order and NaN
/// distances rank last. `top` holds at most `k` neighbours, kept sorted by
/// insertion, and the weights are summed nearest first — the same bits as
/// sorting every pair and summing the first `k`.
fn nearest_weighted_mean(d2: &[f64], targets: &[f64], k: usize, top: &mut Vec<Neighbour>) -> f64 {
    top.clear();
    for (&d2, &y) in d2.iter().zip(targets) {
        if top.len() == k {
            // Full: only a strictly nearer pair displaces the farthest;
            // an equal one ranks after it in training order. `sqrt` keeps
            // the `asc` order of squared distances (a sum of squares is
            // -0.0, ≥ +0.0 or NaN), so a pair whose d² ranks no nearer
            // than the farthest's is skipped before its root is taken.
            // While the farthest is NaN every non-NaN pair passes.
            let Some(&(worst, worst_d2, _)) = top.last() else {
                continue;
            };
            if afp_ord::asc(d2, worst_d2) != Ordering::Less {
                continue;
            }
            let d = d2.sqrt();
            if afp_ord::asc(d, worst) != Ordering::Less {
                continue;
            }
            top.pop();
            insert(top, (d, d2, y));
        } else {
            insert(top, (d2.sqrt(), d2, y));
        }
    }
    // Inverse-distance weights; exact hits dominate.
    let mut num = 0.0;
    let mut den = 0.0;
    for &(d, _, y) in top.iter() {
        let w = 1.0 / (d + 1e-9);
        num += w * y;
        den += w;
    }
    num / den
}

/// Insert `n` after every kept neighbour whose distance ranks no farther.
fn insert(top: &mut Vec<Neighbour>, n: Neighbour) {
    let at = top.partition_point(|&(e, _, _)| afp_ord::asc(e, n.0) != Ordering::Greater);
    top.insert(at, n);
}

impl Default for KNearest {
    fn default() -> KNearest {
        KNearest::new(5)
    }
}

impl Regressor for KNearest {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        let scaler = Standardizer::fit(x);
        self.train = scaler.transform(x).transpose();
        self.targets = y.to_vec();
        self.scaler = Some(scaler);
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let scaler = self.scaler.as_ref().expect("model must be fitted first");
        SCRATCH.with(|scratch| {
            let (z, d2, top) = &mut *scratch.borrow_mut();
            scaler.transform_row_into(row, z);
            sq_dists::<true>(&self.train, z, d2);
            nearest_weighted_mean(d2, &self.targets, self.k, top)
        })
    }

    fn name(&self) -> &'static str {
        "k-nearest neighbours"
    }

    fn save_state(&self) -> Option<ModelState> {
        let mut payload = Vec::new();
        codec::put_usize(&mut payload, self.k);
        codec::put_scaler(&mut payload, &self.scaler);
        codec::put_train(&mut payload, &self.train);
        codec::put_vec(&mut payload, &self.targets);
        Some(ModelState {
            tag: codec::TAG_KNN,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_training_points_are_reproduced() {
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 0.0]]);
        let y = [5.0, 7.0, 9.0];
        let mut m = KNearest::new(1);
        m.fit(&x, &y).unwrap();
        for (r, &expected) in y.iter().enumerate() {
            assert!((m.predict_row(x.row(r)) - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn k_larger_than_set_uses_all() {
        let x = Matrix::from_rows(&[&[0.0], &[2.0]]);
        let y = [0.0, 2.0];
        let mut m = KNearest::new(10);
        m.fit(&x, &y).unwrap();
        let p = m.predict_row(&[1.0]);
        assert!((p - 1.0).abs() < 1e-9, "midpoint should average: {p}");
    }

    /// The sort-based selection `nearest_weighted_mean` replaced: rank
    /// every `(distance, target)` pair with a stable sort, sum the first
    /// `k`.
    fn sorted_oracle(pairs: &[(f64, f64)], k: usize) -> f64 {
        let mut dist = pairs.to_vec();
        dist.sort_by(|a, b| afp_ord::asc(a.0, b.0));
        let mut num = 0.0;
        let mut den = 0.0;
        for &(d, y) in &dist[..k.min(dist.len())] {
            let w = 1.0 / (d + 1e-9);
            num += w * y;
            den += w;
        }
        num / den
    }

    proptest::proptest! {
        /// Bounded top-k with the d² prefilter equals the full sort of
        /// the roots bit for bit: squared distances come from a small
        /// pool (so ties are common) that includes NaN, -0.0 and two
        /// values with one root, and `k` ranges past the number of pairs.
        #[test]
        fn bounded_top_k_matches_the_sort_oracle(
            picks in proptest::collection::vec((0usize..8, -50i32..50), 0..40),
            k in 1usize..48,
        ) {
            let pool = [0.0, -0.0, 0.25, 1.0, 1.0 + f64::EPSILON, 9.0, f64::INFINITY, f64::NAN];
            assert_eq!(pool[3].sqrt(), pool[4].sqrt());
            let d2: Vec<f64> = picks.iter().map(|&(d, _)| pool[d]).collect();
            let ys: Vec<f64> = picks.iter().map(|&(_, y)| f64::from(y) * 0.25).collect();
            let pairs: Vec<(f64, f64)> = d2.iter().map(|d| d.sqrt()).zip(ys.iter().copied()).collect();
            let mut top = Vec::new();
            let got = nearest_weighted_mean(&d2, &ys, k, &mut top);
            proptest::prop_assert_eq!(got.to_bits(), sorted_oracle(&pairs, k).to_bits());
            proptest::prop_assert!(top.len() <= k);
        }
    }

    #[test]
    fn predictions_match_the_sort_oracle_on_fitted_data() {
        // Duplicate rows give exact distance ties between training rows.
        let x = Matrix::from_rows(&[
            &[0.0, 1.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[2.0, 2.0],
            &[1.0, 0.0],
        ]);
        let y = [1.0, 2.0, 3.0, 4.0, 5.0];
        for k in [1, 2, 3, 5, 9] {
            let mut m = KNearest::new(k);
            m.fit(&x, &y).unwrap();
            let scaler = m.scaler.as_ref().unwrap();
            let rows = m.train.transpose();
            for q in [[0.0, 1.0], [0.5, 0.5], [9.0, -3.0]] {
                let z = scaler.transform_row(&q);
                let pairs: Vec<(f64, f64)> = (0..rows.rows())
                    .zip(&m.targets)
                    .map(|(j, &y)| {
                        let t = rows.row(j);
                        let d2: f64 = t.iter().zip(&z).map(|(a, b)| (a - b) * (a - b)).sum();
                        (d2.sqrt(), y)
                    })
                    .collect();
                assert_eq!(
                    m.predict_row(&q).to_bits(),
                    sorted_oracle(&pairs, k).to_bits(),
                    "k={k} q={q:?}"
                );
            }
        }
    }

    #[test]
    fn standardization_balances_feature_scales() {
        // Feature 1 has huge scale; without standardization it would
        // dominate the metric and pick the wrong neighbour.
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1000.0], &[0.1, 900.0]]);
        let y = [1.0, 2.0, 3.0];
        let mut m = KNearest::new(1);
        m.fit(&x, &y).unwrap();
        // Query near sample 2 in standardized space.
        let p = m.predict_row(&[0.1, 900.0]);
        assert!((p - 3.0).abs() < 1e-6);
    }
}
