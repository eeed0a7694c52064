//! Feature standardization (zero mean, unit variance per column).

use crate::Matrix;

/// Column-wise standardizer: `z = (x - mean) / std`.
///
/// Constant columns get `std = 1` so they map to zero rather than NaN.
///
/// # Example
///
/// ```
/// use afp_ml::preprocess::Standardizer;
/// use afp_ml::Matrix;
///
/// let x = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 10.0]]);
/// let s = Standardizer::fit(&x);
/// let z = s.transform(&x);
/// assert!((z.get(0, 0) + 1.0).abs() < 1e-12);
/// assert_eq!(z.get(0, 1), 0.0); // constant column
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fit means/stds on `x`.
    pub fn fit(x: &Matrix) -> Standardizer {
        let n = x.rows().max(1) as f64;
        let mut means = vec![0.0; x.cols()];
        for r in 0..x.rows() {
            for (m, v) in means.iter_mut().zip(x.row(r)) {
                *m += v;
            }
        }
        for m in means.iter_mut() {
            *m /= n;
        }
        let mut vars = vec![0.0; x.cols()];
        for r in 0..x.rows() {
            for (c, v) in x.row(r).iter().enumerate() {
                let d = v - means[c];
                vars[c] += d * d;
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Standardizer { means, stds }
    }

    /// Standardize a whole matrix.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                out.set(r, c, (x.get(r, c) - self.means[c]) / self.stds[c]);
            }
        }
        out
    }

    /// Standardize one row.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(row.len());
        self.transform_row_into(row, &mut out);
        out
    }

    /// [`Standardizer::transform_row`] into a caller-owned buffer
    /// (cleared first), so a per-row predictor can reuse one allocation.
    pub fn transform_row_into(&self, row: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            row.iter()
                .zip(self.means.iter().zip(&self.stds))
                .map(|(v, (m, s))| (v - m) / s),
        );
    }

    /// Reassemble a standardizer from previously extracted `means` and
    /// `stds` (the codec uses this to restore persisted models).
    ///
    /// # Panics
    ///
    /// Panics if the two slices disagree in length.
    pub fn from_parts(means: Vec<f64>, stds: Vec<f64>) -> Standardizer {
        assert_eq!(means.len(), stds.len(), "means/stds length mismatch");
        Standardizer { means, stds }
    }

    /// Per-column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-column standard deviations (1.0 for constant columns).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }
}

/// Mean of a slice (0 for empty input).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_to_zero_mean_unit_var() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let s = Standardizer::fit(&x);
        let z = s.transform(&x);
        let col: Vec<f64> = z.col(0);
        let m = mean(&col);
        let var = col.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / 4.0;
        assert!(m.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn row_and_matrix_transforms_agree() {
        let x = Matrix::from_rows(&[&[1.0, -5.0], &[2.0, 0.0], &[3.0, 5.0]]);
        let s = Standardizer::fit(&x);
        let z = s.transform(&x);
        for r in 0..3 {
            assert_eq!(s.transform_row(x.row(r)), z.row(r).to_vec());
        }
    }
}
