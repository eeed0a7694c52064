//! Boosted tree ensembles: gradient boosting (ML6) and AdaBoost.R2 (ML7).

use afp_store::bytes::put_f64;
use afp_store::ByteReader;

use crate::codec::{self, ModelState};
use crate::tree::{self, DecisionTree, Presorted, TreeConfig};
use crate::{check_xy, sum_start, Matrix, MlError, Regressor};

/// Gradient-boosted regression trees (squared loss) — ML6.
///
/// Starts from the target mean and fits shallow trees to the residuals,
/// shrunk by the learning rate.
#[derive(Clone, Debug)]
pub struct GradientBoosting {
    n_stages: usize,
    learning_rate: f64,
    tree_config: TreeConfig,
    base: f64,
    stages: Vec<DecisionTree>,
}

impl GradientBoosting {
    /// Boosting with `n_stages` trees shrunk by `learning_rate`.
    pub fn new(n_stages: usize, learning_rate: f64, tree_config: TreeConfig) -> GradientBoosting {
        GradientBoosting {
            n_stages: n_stages.max(1),
            learning_rate,
            tree_config,
            base: 0.0,
            stages: Vec::new(),
        }
    }

    pub(crate) fn decode_state(r: &mut ByteReader) -> Option<GradientBoosting> {
        let n_stages = codec::read_usize(r)?;
        let learning_rate = r.f64_le()?;
        let tree_config = tree::decode_config(r)?;
        let base = r.f64_le()?;
        let count = codec::read_usize(r)?;
        if count > r.remaining() {
            return None;
        }
        let stages = (0..count)
            .map(|_| DecisionTree::decode_state(r))
            .collect::<Option<Vec<_>>>()?;
        Some(GradientBoosting {
            n_stages,
            learning_rate,
            tree_config,
            base,
            stages,
        })
    }
}

impl Default for GradientBoosting {
    fn default() -> GradientBoosting {
        GradientBoosting::new(
            120,
            0.1,
            TreeConfig {
                max_depth: 3,
                min_samples_split: 4,
                min_samples_leaf: 2,
            },
        )
    }
}

impl Regressor for GradientBoosting {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        self.base = y.iter().sum::<f64>() / y.len() as f64;
        self.stages.clear();
        let mut current: Vec<f64> = vec![self.base; y.len()];
        let pre = Presorted::new(x);
        let ones = vec![1.0; y.len()];
        let mut residual = vec![0.0; y.len()];
        for _ in 0..self.n_stages {
            for ((r, t), c) in residual.iter_mut().zip(y).zip(&current) {
                *r = t - c;
            }
            let mut tree = DecisionTree::new(self.tree_config);
            tree.fit_presorted(&pre, &residual, &ones);
            let lr = self.learning_rate;
            DecisionTree::predict_each(std::iter::once(&tree), x, |r, _, v| current[r] += lr * v);
            self.stages.push(tree);
        }
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.stages.is_empty(), "model must be fitted first");
        self.base + self.learning_rate * self.stages.iter().map(|t| t.predict_row(row)).sum::<f64>()
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        assert!(
            x.rows() == 0 || !self.stages.is_empty(),
            "model must be fitted first"
        );
        // Per-row sums in stage order: `predict_row`'s additions.
        let mut sums = vec![sum_start(); x.rows()];
        DecisionTree::predict_each(self.stages.iter(), x, |r, _, v| sums[r] += v);
        for s in &mut sums {
            *s = self.base + self.learning_rate * *s;
        }
        sums
    }

    fn name(&self) -> &'static str {
        "gradient boosting"
    }

    fn save_state(&self) -> Option<ModelState> {
        let mut payload = Vec::new();
        codec::put_usize(&mut payload, self.n_stages);
        put_f64(&mut payload, self.learning_rate);
        tree::encode_config(&mut payload, &self.tree_config);
        put_f64(&mut payload, self.base);
        codec::put_usize(&mut payload, self.stages.len());
        for t in &self.stages {
            t.encode_state(&mut payload);
        }
        Some(ModelState {
            tag: codec::TAG_BOOST,
            payload,
        })
    }
}

/// AdaBoost.R2 (Drucker 1997) with tree weak learners — ML7.
///
/// Each round reweights samples by their relative error; the final
/// prediction is the weighted **median** of the weak learners.
#[derive(Clone, Debug)]
pub struct AdaBoostR2 {
    n_stages: usize,
    tree_config: TreeConfig,
    stages: Vec<(DecisionTree, f64)>, // (learner, ln(1/beta))
}

impl AdaBoostR2 {
    /// AdaBoost.R2 with `n_stages` weak learners.
    pub fn new(n_stages: usize, tree_config: TreeConfig) -> AdaBoostR2 {
        AdaBoostR2 {
            n_stages: n_stages.max(1),
            tree_config,
            stages: Vec::new(),
        }
    }

    pub(crate) fn decode_state(r: &mut ByteReader) -> Option<AdaBoostR2> {
        let n_stages = codec::read_usize(r)?;
        let tree_config = tree::decode_config(r)?;
        let count = codec::read_usize(r)?;
        if count > r.remaining() {
            return None;
        }
        let stages = (0..count)
            .map(|_| {
                let t = DecisionTree::decode_state(r)?;
                let vote = r.f64_le()?;
                Some((t, vote))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(AdaBoostR2 {
            n_stages,
            tree_config,
            stages,
        })
    }
}

impl Default for AdaBoostR2 {
    fn default() -> AdaBoostR2 {
        AdaBoostR2::new(
            50,
            TreeConfig {
                max_depth: 4,
                min_samples_split: 4,
                min_samples_leaf: 2,
            },
        )
    }
}

impl Regressor for AdaBoostR2 {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        let n = y.len();
        self.stages.clear();
        let mut w = vec![1.0 / n as f64; n];
        let pre = Presorted::new(x);
        for _ in 0..self.n_stages {
            let mut tree = DecisionTree::new(self.tree_config);
            tree.fit_presorted(&pre, y, &w);
            let pred = tree.predict(x);
            let max_err = pred
                .iter()
                .zip(y)
                .map(|(p, t)| (p - t).abs())
                .fold(0.0f64, f64::max);
            if max_err < 1e-12 {
                // Perfect learner: give it a large vote and stop.
                self.stages.push((tree, 10.0));
                break;
            }
            // Linear loss.
            let losses: Vec<f64> = pred
                .iter()
                .zip(y)
                .map(|(p, t)| (p - t).abs() / max_err)
                .collect();
            let avg_loss: f64 = losses.iter().zip(&w).map(|(l, wi)| l * wi).sum();
            if avg_loss >= 0.5 {
                break; // weak learner no better than chance
            }
            let beta = avg_loss / (1.0 - avg_loss);
            for (wi, li) in w.iter_mut().zip(&losses) {
                *wi *= beta.powf(1.0 - li);
            }
            let sum: f64 = w.iter().sum();
            for wi in w.iter_mut() {
                *wi /= sum;
            }
            self.stages.push((tree, (1.0 / beta).ln()));
        }
        if self.stages.is_empty() {
            // Fall back to a single unweighted tree.
            let mut tree = DecisionTree::new(self.tree_config);
            tree.fit_presorted(&pre, y, &vec![1.0; n]);
            self.stages.push((tree, 1.0));
        }
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.stages.is_empty(), "model must be fitted first");
        let mut votes: Vec<(f64, f64)> = self
            .stages
            .iter()
            .map(|(t, a)| (t.predict_row(row), *a))
            .collect();
        weighted_median(&mut votes)
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let n = x.rows();
        assert!(
            n == 0 || !self.stages.is_empty(),
            "model must be fitted first"
        );
        // `preds[r·stages + s]`: stage `s`'s prediction for row `r`.
        let stages = self.stages.len();
        let mut preds = vec![0.0; n * stages];
        let trees = self.stages.iter().map(|(t, _)| t);
        DecisionTree::predict_each(trees, x, |r, s, v| preds[r * stages + s] = v);
        let mut votes = Vec::with_capacity(stages);
        (0..n)
            .map(|r| {
                votes.clear();
                let row = &preds[r * stages..(r + 1) * stages];
                votes.extend(row.iter().zip(&self.stages).map(|(&p, (_, a))| (p, *a)));
                weighted_median(&mut votes)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "adaboost.r2"
    }

    fn save_state(&self) -> Option<ModelState> {
        let mut payload = Vec::new();
        codec::put_usize(&mut payload, self.n_stages);
        tree::encode_config(&mut payload, &self.tree_config);
        codec::put_usize(&mut payload, self.stages.len());
        for (t, vote) in &self.stages {
            t.encode_state(&mut payload);
            put_f64(&mut payload, *vote);
        }
        Some(ModelState {
            tag: codec::TAG_ADA,
            payload,
        })
    }
}

/// The weighted median of `(prediction, vote)` pairs, given in stage
/// order: the first prediction, in a stable ascending sort, at which the
/// running vote reaches half the total.
fn weighted_median(votes: &mut [(f64, f64)]) -> f64 {
    votes.sort_by(|a, b| afp_ord::asc(a.0, b.0));
    let total: f64 = votes.iter().map(|(_, a)| a).sum();
    let mut acc = 0.0;
    for (p, a) in votes.iter() {
        acc += a;
        if acc >= 0.5 * total {
            return *p;
        }
    }
    votes.last().map(|(p, _)| *p).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    fn wave(n: usize) -> (Matrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        let mut s = 13u64;
        for _ in 0..n {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = ((s >> 24) & 0xFFF) as f64 / 4095.0 * 6.0;
            rows.push(vec![a]);
            ys.push(a.sin() * 3.0 + 0.5 * a);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), ys)
    }

    #[test]
    fn gradient_boosting_fits_smooth_nonlinearity() {
        let (x, y) = wave(300);
        let mut g = GradientBoosting::default();
        g.fit(&x, &y).unwrap();
        assert!(r2(&g.predict(&x), &y) > 0.97);
    }

    #[test]
    fn more_stages_fit_better_in_sample() {
        let (x, y) = wave(200);
        let mut small = GradientBoosting::new(10, 0.1, Default::default());
        let mut large = GradientBoosting::new(150, 0.1, Default::default());
        small.fit(&x, &y).unwrap();
        large.fit(&x, &y).unwrap();
        assert!(r2(&large.predict(&x), &y) > r2(&small.predict(&x), &y));
    }

    #[test]
    fn adaboost_fits_reasonably() {
        let (x, y) = wave(300);
        let mut a = AdaBoostR2::default();
        a.fit(&x, &y).unwrap();
        assert!(r2(&a.predict(&x), &y) > 0.9);
    }

    #[test]
    fn adaboost_handles_perfect_learner() {
        // A step function a depth-4 tree can represent exactly.
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[10.0], &[11.0]]);
        let y = [1.0, 1.0, 4.0, 4.0];
        let mut a = AdaBoostR2::default();
        a.fit(&x, &y).unwrap();
        assert_eq!(a.predict_row(&[0.5]), 1.0);
        assert_eq!(a.predict_row(&[10.5]), 4.0);
    }

    #[test]
    fn boosting_is_deterministic() {
        let (x, y) = wave(120);
        let mut g1 = GradientBoosting::default();
        let mut g2 = GradientBoosting::default();
        g1.fit(&x, &y).unwrap();
        g2.fit(&x, &y).unwrap();
        assert_eq!(g1.predict(&x), g2.predict(&x));
    }
}
