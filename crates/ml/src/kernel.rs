//! Kernel methods: kernel ridge regression (ML10) and Gaussian-process
//! regression (ML8), both with an RBF kernel on standardized features.

use std::sync::OnceLock;

use afp_store::bytes::put_f64;
use afp_store::ByteReader;

use crate::codec::{self, ModelState};
use crate::linalg::{chol_solve, cholesky, sq_dists};
use crate::preprocess::Standardizer;
use crate::{check_xy, Matrix, MlError, Regressor};

fn rbf(a: &[f64], b: &[f64], gamma: f64) -> f64 {
    let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (-gamma * d2).exp()
}

/// The noise- or penalty-augmented RBF kernel matrix of the row-major
/// standardized training rows `z`.
fn kernel_matrix(z: &Matrix, gamma: f64, diag_add: f64) -> Matrix {
    let n = z.rows();
    let mut k = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = rbf(z.row(i), z.row(j), gamma);
            k.set(i, j, v);
            k.set(j, i, v);
        }
        k.set(i, i, k.get(i, i) + diag_add);
    }
    k
}

/// Shared fitted state of the RBF kernel models.
#[derive(Clone, Debug, Default)]
struct KernelState {
    scaler: Option<Standardizer>,
    /// Standardized training rows, feature-major: `train.row(f)[j]` is
    /// feature `f` of row `j`.
    train: Matrix,
    dual: Vec<f64>,
    y_mean: f64,
}

impl KernelState {
    /// Fit the dual weights; also returns the Cholesky factor of the
    /// regularized kernel matrix they were solved with.
    fn fit(
        x: &Matrix,
        y: &[f64],
        gamma: f64,
        diag_add: f64,
    ) -> Result<(KernelState, Matrix), MlError> {
        let scaler = Standardizer::fit(x);
        let z = scaler.transform(x);
        let n = z.rows();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
        let l = cholesky(&kernel_matrix(&z, gamma, diag_add))?;
        let dual = chol_solve(&l, &yc);
        let state = KernelState {
            scaler: Some(scaler),
            train: z.transpose(),
            dual,
            y_mean,
        };
        Ok((state, l))
    }

    /// The kernel row `k(z, t_j)` of the standardized query `z` against
    /// every training row, into `out`.
    fn kernel_row(&self, z: &[f64], gamma: f64, out: &mut Vec<f64>) {
        sq_dists::<false>(&self.train, z, out);
        for v in out.iter_mut() {
            *v = (-gamma * *v).exp();
        }
    }

    fn predict_row(&self, row: &[f64], gamma: f64) -> f64 {
        let scaler = self.scaler.as_ref().expect("model must be fitted first");
        let z = scaler.transform_row(row);
        let mut kz = Vec::new();
        self.kernel_row(&z, gamma, &mut kz);
        // Summed in training order, as `sum()` over the rows did.
        let k: f64 = kz.iter().zip(&self.dual).map(|(k, a)| a * k).sum();
        k + self.y_mean
    }

    fn encode(&self, out: &mut Vec<u8>) {
        codec::put_scaler(out, &self.scaler);
        codec::put_train(out, &self.train);
        codec::put_vec(out, &self.dual);
        put_f64(out, self.y_mean);
    }

    fn decode(r: &mut ByteReader) -> Option<KernelState> {
        Some(KernelState {
            scaler: codec::read_scaler(r)?,
            train: codec::read_train(r)?,
            dual: codec::read_vec(r)?,
            y_mean: r.f64_le()?,
        })
    }
}

/// Kernel ridge regression with RBF kernel — ML10.
///
/// # Example
///
/// ```
/// use afp_ml::kernel::KernelRidge;
/// use afp_ml::{Matrix, Regressor};
///
/// let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
/// let y = [0.0, 1.0, 4.0, 9.0]; // x²
/// let mut m = KernelRidge::new(0.5, 1e-3);
/// m.fit(&x, &y)?;
/// assert!((m.predict_row(&[1.5]) - 2.25).abs() < 1.0);
/// # Ok::<(), afp_ml::MlError>(())
/// ```
#[derive(Clone, Debug)]
pub struct KernelRidge {
    gamma: f64,
    lambda: f64,
    state: KernelState,
}

impl KernelRidge {
    /// RBF kernel ridge with bandwidth `gamma` and penalty `lambda`.
    pub fn new(gamma: f64, lambda: f64) -> KernelRidge {
        KernelRidge {
            gamma,
            lambda,
            state: KernelState::default(),
        }
    }

    pub(crate) fn decode_state(r: &mut ByteReader) -> Option<KernelRidge> {
        Some(KernelRidge {
            gamma: r.f64_le()?,
            lambda: r.f64_le()?,
            state: KernelState::decode(r)?,
        })
    }
}

impl Default for KernelRidge {
    fn default() -> KernelRidge {
        KernelRidge::new(0.08, 1e-3)
    }
}

impl Regressor for KernelRidge {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        let diag = self.lambda.max(1e-10) * x.rows() as f64;
        self.state = KernelState::fit(x, y, self.gamma, diag)?.0;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.state.predict_row(row, self.gamma)
    }

    fn name(&self) -> &'static str {
        "kernel ridge"
    }

    fn save_state(&self) -> Option<ModelState> {
        let mut payload = Vec::new();
        put_f64(&mut payload, self.gamma);
        put_f64(&mut payload, self.lambda);
        self.state.encode(&mut payload);
        Some(ModelState {
            tag: codec::TAG_KRR,
            payload,
        })
    }
}

/// Gaussian-process regression (RBF kernel, Gaussian noise) — ML8.
///
/// The predictive mean coincides with kernel ridge on `K + σ²I`; the
/// hyperparameters are interpreted as kernel bandwidth and observation
/// noise. [`GaussianProcess::predict_with_std`] additionally returns the
/// predictive standard deviation.
#[derive(Clone, Debug)]
pub struct GaussianProcess {
    gamma: f64,
    noise: f64,
    state: KernelState,
    /// Cholesky factor of `K + σ²I`, read only by
    /// [`GaussianProcess::predict_with_std`]. `None` before `fit`. `fit`
    /// fills it with the factor it solved with; a decoded model leaves it
    /// empty and rebuilds it on first use, so loading a zoo does not pay
    /// an O(n³) factorization that plain estimates never read.
    chol: Option<OnceLock<Result<Matrix, MlError>>>,
}

impl GaussianProcess {
    /// GP with RBF bandwidth `gamma` and noise variance `noise`.
    pub fn new(gamma: f64, noise: f64) -> GaussianProcess {
        GaussianProcess {
            gamma,
            noise,
            state: KernelState::default(),
            chol: None,
        }
    }

    /// Rebuild the noise-augmented kernel Cholesky from the training
    /// rows — the same computation `fit` performs, so a decoded model is
    /// bit-identical to the one that was saved. Only a decoded model needs
    /// it: `fit` keeps the factor it solved with.
    fn rebuild_chol(train: &Matrix, gamma: f64, noise: f64) -> Result<Matrix, MlError> {
        cholesky(&kernel_matrix(&train.transpose(), gamma, noise.max(1e-10)))
    }

    pub(crate) fn decode_state(r: &mut ByteReader) -> Option<GaussianProcess> {
        let gamma = r.f64_le()?;
        let noise = r.f64_le()?;
        let state = KernelState::decode(r)?;
        let chol = match r.u8()? {
            0 => None,
            1 => Some(OnceLock::new()),
            _ => return None,
        };
        Some(GaussianProcess {
            gamma,
            noise,
            state,
            chol,
        })
    }

    /// Predictive mean and standard deviation for one row.
    ///
    /// A decoded model whose kernel matrix has no Cholesky factor (a
    /// payload `fit` never wrote) reports a NaN deviation.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Regressor::fit`].
    pub fn predict_with_std(&self, row: &[f64]) -> (f64, f64) {
        let mean = self.state.predict_row(row, self.gamma);
        let factor = self.chol.as_ref().expect("model must be fitted first");
        let Ok(l) = factor.get_or_init(|| {
            GaussianProcess::rebuild_chol(&self.state.train, self.gamma, self.noise)
        }) else {
            return (mean, f64::NAN);
        };
        let scaler = self.state.scaler.as_ref().expect("fitted");
        let z = scaler.transform_row(row);
        let mut kstar = Vec::new();
        self.state.kernel_row(&z, self.gamma, &mut kstar);
        let v = chol_solve(l, &kstar);
        let var =
            (1.0 + self.noise - kstar.iter().zip(&v).map(|(a, b)| a * b).sum::<f64>()).max(0.0);
        (mean, var.sqrt())
    }
}

impl Default for GaussianProcess {
    fn default() -> GaussianProcess {
        GaussianProcess::new(0.08, 1e-2)
    }
}

impl Regressor for GaussianProcess {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        // The factor of `K + σ²I` serves the predictive variance too;
        // `decode_state` replays the same computation when restoring.
        let (state, chol) = KernelState::fit(x, y, self.gamma, self.noise.max(1e-10))?;
        self.state = state;
        self.chol = Some(OnceLock::from(Ok(chol)));
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.state.predict_row(row, self.gamma)
    }

    fn name(&self) -> &'static str {
        "gaussian process"
    }

    fn save_state(&self) -> Option<ModelState> {
        let mut payload = Vec::new();
        put_f64(&mut payload, self.gamma);
        put_f64(&mut payload, self.noise);
        self.state.encode(&mut payload);
        payload.push(self.chol.is_some() as u8);
        Some(ModelState {
            tag: codec::TAG_GP,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    fn quad(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64 * 4.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0] * r[0] - r[0]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), ys)
    }

    #[test]
    fn kernel_ridge_interpolates_smooth_function() {
        let (x, y) = quad(40);
        let mut m = KernelRidge::new(0.5, 1e-4);
        m.fit(&x, &y).unwrap();
        assert!(r2(&m.predict(&x), &y) > 0.999);
    }

    #[test]
    fn gp_mean_matches_kernel_ridge_with_same_params() {
        let (x, y) = quad(25);
        let mut kr = KernelRidge::new(0.3, 0.0);
        let mut gp = GaussianProcess::new(0.3, 1e-6 * 25.0);
        // KernelRidge multiplies lambda by n; align the diagonals.
        kr.lambda = 1e-6;
        kr.fit(&x, &y).unwrap();
        gp.fit(&x, &y).unwrap();
        for r in 0..x.rows() {
            let d = (kr.predict_row(x.row(r)) - gp.predict_row(x.row(r))).abs();
            assert!(d < 1e-6, "row {r}: {d}");
        }
    }

    #[test]
    fn gp_uncertainty_grows_away_from_data() {
        let (x, y) = quad(20);
        let mut gp = GaussianProcess::new(0.5, 1e-4);
        gp.fit(&x, &y).unwrap();
        let (_, s_in) = gp.predict_with_std(x.row(10));
        let (_, s_out) = gp.predict_with_std(&[100.0]);
        assert!(s_out > s_in * 2.0, "in {s_in} out {s_out}");
    }

    #[test]
    fn decoded_gp_rebuilds_the_same_factor_on_first_use() {
        let (x, y) = quad(30);
        let mut gp = GaussianProcess::new(0.4, 1e-3);
        gp.fit(&x, &y).unwrap();
        let state = gp.save_state().unwrap();
        let decoded = GaussianProcess::decode_state(&mut ByteReader::new(&state.payload)).unwrap();
        let lazy = decoded
            .chol
            .as_ref()
            .expect("fitted flag survives decoding");
        assert!(lazy.get().is_none(), "decoding must not factorize");
        for q in [[0.3], [1.7], [3.9], [25.0]] {
            let (m0, s0) = gp.predict_with_std(&q);
            let (m1, s1) = decoded.predict_with_std(&q);
            assert_eq!((m0.to_bits(), s0.to_bits()), (m1.to_bits(), s1.to_bits()));
        }
        assert!(lazy.get().is_some_and(|l| l.is_ok()));
        // An unfitted model saves and decodes as unfitted.
        let bare = GaussianProcess::default().save_state().unwrap();
        let bare = GaussianProcess::decode_state(&mut ByteReader::new(&bare.payload)).unwrap();
        assert!(bare.chol.is_none());
    }

    #[test]
    fn duplicate_training_points_are_handled() {
        // Duplicates make K singular without the noise/penalty diagonal.
        let x = Matrix::from_rows(&[&[1.0], &[1.0], &[2.0]]);
        let y = [3.0, 3.0, 5.0];
        let mut m = KernelRidge::default();
        m.fit(&x, &y).unwrap();
        assert!((m.predict_row(&[1.0]) - 3.0).abs() < 0.8);
    }
}
