//! K-nearest-neighbour regression — ML16.

use std::cell::RefCell;
use std::cmp::Ordering;

use afp_store::ByteReader;

use crate::codec::{self, ModelState};
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
    train: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl KNearest {
    /// KNN with `k` neighbours (at least 1).
    pub fn new(k: usize) -> KNearest {
        KNearest {
            k: k.max(1),
            scaler: None,
            train: Vec::new(),
            targets: Vec::new(),
        }
    }

    pub(crate) fn decode_state(r: &mut ByteReader) -> Option<KNearest> {
        let m = KNearest {
            k: codec::read_usize(r)?,
            scaler: codec::read_scaler(r)?,
            train: codec::read_rows(r)?,
            targets: codec::read_vec(r)?,
        };
        if m.train.len() != m.targets.len() {
            return None;
        }
        Some(m)
    }
}

/// `predict_row` buffers: the standardized query row and the kept
/// `(distance, target)` neighbours.
type Scratch = (Vec<f64>, Vec<(f64, f64)>);

thread_local! {
    /// Per-thread [`Scratch`], so estimating a library allocates nothing
    /// per row.
    static SCRATCH: RefCell<Scratch> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The inverse-distance-weighted mean of the `k` nearest `(distance,
/// target)` pairs, in the order a stable ascending sort on
/// [`afp_ord::asc`] would rank them: ties keep training order and NaN
/// distances rank last. `top` holds at most `k` pairs, kept sorted by
/// insertion, and the weights are summed nearest first — the same bits
/// as sorting every pair and summing the first `k`.
fn nearest_weighted_mean(
    dist: impl Iterator<Item = (f64, f64)>,
    k: usize,
    top: &mut Vec<(f64, f64)>,
) -> f64 {
    top.clear();
    for (d, y) in dist {
        if top.len() == k {
            // Full: only a strictly nearer pair displaces the farthest;
            // an equal one ranks after it in training order.
            match top.last() {
                Some(&(worst, _)) if afp_ord::asc(d, worst) == Ordering::Less => {
                    top.pop();
                }
                _ => continue,
            }
        }
        let at = top.partition_point(|&(e, _)| afp_ord::asc(e, d) != Ordering::Greater);
        top.insert(at, (d, y));
    }
    // Inverse-distance weights; exact hits dominate.
    let mut num = 0.0;
    let mut den = 0.0;
    for &(d, y) in top.iter() {
        let w = 1.0 / (d + 1e-9);
        num += w * y;
        den += w;
    }
    num / den
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
        let z = scaler.transform(x);
        self.train = (0..z.rows()).map(|r| z.row(r).to_vec()).collect();
        self.targets = y.to_vec();
        self.scaler = Some(scaler);
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let scaler = self.scaler.as_ref().expect("model must be fitted first");
        SCRATCH.with(|scratch| {
            let (z, top) = &mut *scratch.borrow_mut();
            scaler.transform_row_into(row, z);
            let dist = self.train.iter().zip(&self.targets).map(|(t, &y)| {
                let d2: f64 = t.iter().zip(z.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
                (d2.sqrt(), y)
            });
            nearest_weighted_mean(dist, self.k, top)
        })
    }

    fn name(&self) -> &'static str {
        "k-nearest neighbours"
    }

    fn save_state(&self) -> Option<ModelState> {
        let mut payload = Vec::new();
        codec::put_usize(&mut payload, self.k);
        codec::put_scaler(&mut payload, &self.scaler);
        codec::put_rows(&mut payload, &self.train);
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
    /// every pair with a stable sort, sum the first `k`.
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
        /// Bounded top-k equals the full sort bit for bit: distances come
        /// from a small pool (so ties are common) that includes NaN, and
        /// `k` ranges past the number of pairs.
        #[test]
        fn bounded_top_k_matches_the_sort_oracle(
            picks in proptest::collection::vec((0usize..6, -50i32..50), 0..40),
            k in 1usize..48,
        ) {
            let pool = [0.0, 0.5, 1.0, 1.0 + f64::EPSILON, 3.0, f64::NAN];
            let pairs: Vec<(f64, f64)> = picks
                .iter()
                .map(|&(d, y)| (pool[d], f64::from(y) * 0.25))
                .collect();
            let mut top = Vec::new();
            let got = nearest_weighted_mean(pairs.iter().copied(), k, &mut top);
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
            for q in [[0.0, 1.0], [0.5, 0.5], [9.0, -3.0]] {
                let z = scaler.transform_row(&q);
                let pairs: Vec<(f64, f64)> = m
                    .train
                    .iter()
                    .zip(&m.targets)
                    .map(|(t, &y)| {
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
