//! Random forest regression — ML5.

use afp_store::ByteReader;

use crate::codec::{self, ModelState};
use crate::tree::{self, DecisionTree, Presorted, TreeConfig};
use crate::{check_xy, sum_start, Matrix, MlError, Regressor};

/// Bagged ensemble of randomized CART trees.
///
/// Each tree trains on a bootstrap resample and considers a random feature
/// subset at every split; predictions are the ensemble mean.
///
/// # Example
///
/// ```
/// use afp_ml::forest::RandomForest;
/// use afp_ml::{Matrix, Regressor};
///
/// let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0], &[10.0], &[11.0]]);
/// let y = [0.0, 0.1, 0.2, 0.3, 5.0, 5.1];
/// let mut f = RandomForest::new(20, Default::default(), 7);
/// f.fit(&x, &y)?;
/// assert!(f.predict_row(&[10.5]) > 2.0);
/// # Ok::<(), afp_ml::MlError>(())
/// ```
#[derive(Clone, Debug)]
pub struct RandomForest {
    n_trees: usize,
    tree_config: TreeConfig,
    seed: u64,
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Forest of `n_trees` trees grown under `tree_config`, seeded
    /// deterministically by `seed`.
    pub fn new(n_trees: usize, tree_config: TreeConfig, seed: u64) -> RandomForest {
        RandomForest {
            n_trees: n_trees.max(1),
            tree_config,
            seed,
            trees: Vec::new(),
        }
    }

    /// Number of fitted trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest has been fitted.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    pub(crate) fn decode_state(r: &mut ByteReader) -> Option<RandomForest> {
        let n_trees = codec::read_usize(r)?;
        let tree_config = tree::decode_config(r)?;
        let seed = r.u64_le()?;
        let count = codec::read_usize(r)?;
        if count > r.remaining() {
            return None;
        }
        let trees = (0..count)
            .map(|_| DecisionTree::decode_state(r))
            .collect::<Option<Vec<_>>>()?;
        Some(RandomForest {
            n_trees,
            tree_config,
            seed,
            trees,
        })
    }
}

impl Regressor for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        let n = x.rows();
        let p = x.cols();
        // sqrt(p) features per split, at least 1 (regression often uses
        // p/3; sqrt keeps trees decorrelated on our small feature sets).
        let feats = ((p as f64).sqrt().ceil() as usize).clamp(1, p);
        self.trees.clear();
        let pre = Presorted::new(x);
        let mut rng = self.seed | 1;
        let mut next = move || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for t in 0..self.n_trees {
            // Bootstrap resample as per-sample integer weights.
            let mut w = vec![0.0; n];
            for _ in 0..n {
                w[(next() % n as u64) as usize] += 1.0;
            }
            let mut tree = DecisionTree::new(self.tree_config);
            tree.features_per_split = Some(feats);
            tree.seed = self.seed.wrapping_add(t as u64).wrapping_mul(0x9E37_79B9) | 1;
            tree.fit_presorted(&pre, y, &w);
            self.trees.push(tree);
        }
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "model must be fitted first");
        self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>() / self.trees.len() as f64
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        assert!(
            x.rows() == 0 || !self.trees.is_empty(),
            "model must be fitted first"
        );
        // Per-row sums in tree order: `predict_row`'s additions.
        let mut sums = vec![sum_start(); x.rows()];
        DecisionTree::predict_each(self.trees.iter(), x, |r, _, v| sums[r] += v);
        let n = self.trees.len() as f64;
        for s in &mut sums {
            *s /= n;
        }
        sums
    }

    fn name(&self) -> &'static str {
        "random forest"
    }

    fn save_state(&self) -> Option<ModelState> {
        let mut payload = Vec::new();
        codec::put_usize(&mut payload, self.n_trees);
        tree::encode_config(&mut payload, &self.tree_config);
        payload.extend_from_slice(&self.seed.to_le_bytes());
        codec::put_usize(&mut payload, self.trees.len());
        for t in &self.trees {
            t.encode_state(&mut payload);
        }
        Some(ModelState {
            tag: codec::TAG_FOREST,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    fn friedman_like(n: usize) -> (Matrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        let mut s = 77u64;
        for _ in 0..n {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = ((s >> 20) & 0x3FF) as f64 / 1023.0;
            let b = ((s >> 30) & 0x3FF) as f64 / 1023.0;
            let c = ((s >> 40) & 0x3FF) as f64 / 1023.0;
            rows.push(vec![a, b, c]);
            ys.push(10.0 * (std::f64::consts::PI * a * b).sin() + 5.0 * c * c);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), ys)
    }

    #[test]
    fn forest_beats_single_tree_out_of_sample() {
        let (xtr, ytr) = friedman_like(400);
        let (xte, yte) = {
            // Different seed slice for test: regenerate and skip.
            let (x, y) = friedman_like(600);
            let rows: Vec<&[f64]> = (400..600).map(|r| x.row(r)).collect();
            (Matrix::from_rows(&rows), y[400..].to_vec())
        };
        let mut tree = crate::tree::DecisionTree::new(Default::default());
        tree.fit(&xtr, &ytr).unwrap();
        let mut forest = RandomForest::new(40, Default::default(), 3);
        forest.fit(&xtr, &ytr).unwrap();
        let r2_tree = r2(&tree.predict(&xte), &yte);
        let r2_forest = r2(&forest.predict(&xte), &yte);
        assert!(
            r2_forest > r2_tree - 0.02,
            "forest {r2_forest} vs tree {r2_tree}"
        );
        assert!(r2_forest > 0.8, "forest too weak: {r2_forest}");
    }

    #[test]
    fn forest_is_deterministic() {
        let (x, y) = friedman_like(100);
        let mut f1 = RandomForest::new(10, Default::default(), 9);
        let mut f2 = RandomForest::new(10, Default::default(), 9);
        f1.fit(&x, &y).unwrap();
        f2.fit(&x, &y).unwrap();
        assert_eq!(f1.predict(&x), f2.predict(&x));
    }

    #[test]
    fn tree_count_respected() {
        let (x, y) = friedman_like(50);
        let mut f = RandomForest::new(7, Default::default(), 1);
        f.fit(&x, &y).unwrap();
        assert_eq!(f.len(), 7);
    }
}
