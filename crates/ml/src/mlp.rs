//! Multi-layer perceptron regression — ML17.
//!
//! One tanh hidden layer with a linear output, trained full-batch with
//! Adam. Deliberately small: the paper's models are "light-weight".

use afp_store::bytes::put_f64;
use afp_store::ByteReader;

use crate::codec::{self, ModelState};
use crate::preprocess::{mean, Standardizer};
use crate::{check_xy, Matrix, MlError, Regressor};

/// One-hidden-layer MLP regressor.
///
/// # Example
///
/// ```
/// use afp_ml::mlp::Mlp;
/// use afp_ml::{Matrix, Regressor};
///
/// let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0], &[4.0]]);
/// let y = [0.0, 1.0, 2.0, 3.0, 4.0];
/// let mut m = Mlp::new(8, 400, 0.02, 11);
/// m.fit(&x, &y)?;
/// assert!((m.predict_row(&[2.5]) - 2.5).abs() < 0.5);
/// # Ok::<(), afp_ml::MlError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Mlp {
    hidden: usize,
    epochs: usize,
    learning_rate: f64,
    seed: u64,
    scaler: Option<Standardizer>,
    w1: Vec<f64>, // hidden x inputs
    b1: Vec<f64>,
    w2: Vec<f64>, // hidden
    b2: f64,
    y_mean: f64,
    y_scale: f64,
    inputs: usize,
}

impl Mlp {
    /// MLP with `hidden` tanh units trained for `epochs` Adam steps.
    pub fn new(hidden: usize, epochs: usize, learning_rate: f64, seed: u64) -> Mlp {
        Mlp {
            hidden: hidden.max(1),
            epochs: epochs.max(1),
            learning_rate,
            seed,
            scaler: None,
            w1: Vec::new(),
            b1: Vec::new(),
            w2: Vec::new(),
            b2: 0.0,
            y_mean: 0.0,
            y_scale: 1.0,
            inputs: 0,
        }
    }

    pub(crate) fn decode_state(r: &mut ByteReader) -> Option<Mlp> {
        let m = Mlp {
            hidden: codec::read_usize(r)?,
            epochs: codec::read_usize(r)?,
            learning_rate: r.f64_le()?,
            seed: r.u64_le()?,
            scaler: codec::read_scaler(r)?,
            w1: codec::read_vec(r)?,
            b1: codec::read_vec(r)?,
            w2: codec::read_vec(r)?,
            b2: r.f64_le()?,
            y_mean: r.f64_le()?,
            y_scale: r.f64_le()?,
            inputs: codec::read_usize(r)?,
        };
        // A fitted network must be internally consistent or prediction
        // would index out of bounds on corrupt input.
        if m.scaler.is_some()
            && (m.w1.len() != m.hidden.checked_mul(m.inputs)?
                || m.b1.len() != m.hidden
                || m.w2.len() != m.hidden)
        {
            return None;
        }
        Some(m)
    }

    fn hidden_out(&self, z: &[f64]) -> Vec<f64> {
        (0..self.hidden)
            .map(|h| {
                let mut s = self.b1[h];
                for (i, zi) in z.iter().enumerate() {
                    s += self.w1[h * self.inputs + i] * zi;
                }
                s.tanh()
            })
            .collect()
    }
}

impl Default for Mlp {
    fn default() -> Mlp {
        Mlp::new(16, 400, 0.01, 23)
    }
}

impl Regressor for Mlp {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        let scaler = Standardizer::fit(x);
        let z = scaler.transform(x);
        let n = z.rows();
        let p = z.cols();
        self.inputs = p;
        self.y_mean = mean(y);
        let y_var = y.iter().map(|v| (v - self.y_mean).powi(2)).sum::<f64>() / n as f64;
        self.y_scale = y_var.sqrt().max(1e-9);
        let yt: Vec<f64> = y.iter().map(|v| (v - self.y_mean) / self.y_scale).collect();

        // Xavier-ish deterministic init.
        let mut state = self.seed | 1;
        let mut next_f = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let u = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
            2.0 * u - 1.0
        };
        let scale1 = (1.0 / p as f64).sqrt();
        self.w1 = (0..self.hidden * p).map(|_| next_f() * scale1).collect();
        self.b1 = vec![0.0; self.hidden];
        let scale2 = (1.0 / self.hidden as f64).sqrt();
        self.w2 = (0..self.hidden).map(|_| next_f() * scale2).collect();
        self.b2 = 0.0;

        // Train on one flat input-major parameter vector
        // `[w1t | b1 | w2 | b2]`, where `w1t[i·H + h] = w1[h·p + i]`: the
        // forward and backward loops then run across all hidden units per
        // input. Each pre-activation still starts at `b1[h]` and adds the
        // inputs in order, each gradient element still sums its rows in
        // order, and Adam is elementwise, so every weight has the bits the
        // hidden-major layout gives.
        let hid = self.hidden;
        let (off_b1, off_w2) = (p * hid, p * hid + hid);
        let dim = off_w2 + hid + 1;
        let mut theta = vec![0.0; dim];
        for h in 0..hid {
            for i in 0..p {
                theta[i * hid + h] = self.w1[h * p + i];
            }
        }
        theta[off_w2..off_w2 + hid].copy_from_slice(&self.w2);
        // Adam state.
        let mut m = vec![0.0; dim];
        let mut v = vec![0.0; dim];
        let mut g = vec![0.0; dim];
        let mut act = vec![0.0; hid];
        let mut dh = vec![0.0; hid];
        let (beta1, beta2, eps) = (0.9, 0.999, 1e-8);

        for t in 1..=self.epochs {
            // Full-batch gradients.
            g.fill(0.0);
            let (w, rest) = theta.split_at(off_b1);
            let (b1, rest) = rest.split_at(hid);
            let (w2, b2) = (&rest[..hid], rest[hid]);
            for (r, &ytr) in yt.iter().enumerate().take(n) {
                let zr = z.row(r);
                act.copy_from_slice(b1);
                for (&zi, wi) in zr.iter().zip(w.chunks_exact(hid)) {
                    for (a, &wh) in act.iter_mut().zip(wi) {
                        *a += wh * zi;
                    }
                }
                for a in act.iter_mut() {
                    *a = a.tanh();
                }
                let out: f64 = b2 + act.iter().zip(w2).map(|(hi, wi)| hi * wi).sum::<f64>();
                let err = out - ytr;
                let (gw, grest) = g.split_at_mut(off_b1);
                let (gb1, grest) = grest.split_at_mut(hid);
                // Output layer.
                for (gi, hi) in grest.iter_mut().zip(&act) {
                    *gi += err * hi;
                }
                grest[hid] += err;
                // Hidden layer.
                for ((d, &w2h), &hh) in dh.iter_mut().zip(w2).zip(&act) {
                    *d = err * w2h * (1.0 - hh * hh);
                }
                for (&zi, gi) in zr.iter().zip(gw.chunks_exact_mut(hid)) {
                    for (gh, &d) in gi.iter_mut().zip(&dh) {
                        *gh += d * zi;
                    }
                }
                for (gh, &d) in gb1.iter_mut().zip(&dh) {
                    *gh += d;
                }
            }
            let inv_n = 1.0 / n as f64;
            let lr =
                self.learning_rate * (1.0 - beta2f(beta2, t)).sqrt() / (1.0 - beta2f(beta1, t));
            // Adam update over the flattened parameter vector.
            for (((param, gi), mi), vi) in theta.iter_mut().zip(&g).zip(&mut m).zip(&mut v) {
                let gi = gi * inv_n;
                *mi = beta1 * *mi + (1.0 - beta1) * gi;
                *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
                *param -= lr * *mi / (vi.sqrt() + eps);
            }
        }
        for h in 0..hid {
            for i in 0..p {
                self.w1[h * p + i] = theta[i * hid + h];
            }
        }
        self.b1.copy_from_slice(&theta[off_b1..off_w2]);
        self.w2.copy_from_slice(&theta[off_w2..off_w2 + hid]);
        self.b2 = theta[dim - 1];
        self.scaler = Some(scaler);
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let scaler = self.scaler.as_ref().expect("model must be fitted first");
        let z = scaler.transform_row(row);
        let h = self.hidden_out(&z);
        let out: f64 = self.b2 + h.iter().zip(&self.w2).map(|(hi, wi)| hi * wi).sum::<f64>();
        out * self.y_scale + self.y_mean
    }

    fn name(&self) -> &'static str {
        "multi-layer perceptron"
    }

    fn save_state(&self) -> Option<ModelState> {
        let mut payload = Vec::new();
        codec::put_usize(&mut payload, self.hidden);
        codec::put_usize(&mut payload, self.epochs);
        put_f64(&mut payload, self.learning_rate);
        payload.extend_from_slice(&self.seed.to_le_bytes());
        codec::put_scaler(&mut payload, &self.scaler);
        codec::put_vec(&mut payload, &self.w1);
        codec::put_vec(&mut payload, &self.b1);
        codec::put_vec(&mut payload, &self.w2);
        put_f64(&mut payload, self.b2);
        put_f64(&mut payload, self.y_mean);
        put_f64(&mut payload, self.y_scale);
        codec::put_usize(&mut payload, self.inputs);
        Some(ModelState {
            tag: codec::TAG_MLP,
            payload,
        })
    }
}

fn beta2f(beta: f64, t: usize) -> f64 {
    beta.powi(t as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    #[test]
    fn learns_linear_map() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 10.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - 1.0).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let mut m = Mlp::default();
        m.fit(&x, &ys).unwrap();
        assert!(r2(&m.predict(&x), &ys) > 0.98);
    }

    #[test]
    fn learns_mild_nonlinearity() {
        let rows: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 / 20.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| (r[0] * 1.5).sin()).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let mut m = Mlp::new(24, 800, 0.02, 3);
        m.fit(&x, &ys).unwrap();
        assert!(r2(&m.predict(&x), &ys) > 0.95);
    }

    #[test]
    fn deterministic_given_seed() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0] * 0.5).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let mut a = Mlp::new(8, 100, 0.02, 7);
        let mut b = Mlp::new(8, 100, 0.02, 7);
        a.fit(&x, &ys).unwrap();
        b.fit(&x, &ys).unwrap();
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    /// Zero and one input columns train and predict, with the bits the
    /// hidden-major trainer produced.
    #[test]
    fn fits_zero_and_one_column_matrices() {
        let y = [1.0, 2.0, 3.0, 4.0, 5.0];
        let golden: [&[u64]; 2] = [
            &[0x400816e7f521428d; 5],
            &[
                0x400a8cb90f82c3c6,
                0x4009c3f35b9d8d48,
                0x40080d8b9cc0246b,
                0x400658131a8144a1,
                0x400590679bcce6d8,
            ],
        ];
        for (p, want) in golden.into_iter().enumerate() {
            let x = Matrix::from_vec(5, p, (0..5 * p).map(|i| i as f64).collect());
            let mut m = Mlp::new(4, 10, 0.01, 3);
            m.fit(&x, &y).unwrap();
            let bits: Vec<u64> = m.predict(&x).iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, want, "{p} column(s)");
        }
    }
}
