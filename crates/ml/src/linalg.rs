//! Minimal dense linear algebra: row-major matrices, Cholesky
//! factorization and SPD solves — everything the regressors need, nothing
//! more.

use crate::MlError;

/// Dense row-major `f64` matrix.
///
/// # Example
///
/// ```
/// use afp_ml::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.transpose().get(0, 1), 3.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Matrix {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// All elements, row-major.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Copy column `c` out as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out.data[r * other.cols + c] += a * other.get(k, c);
                }
            }
        }
        out
    }

    /// `selfᵀ · self` (Gram matrix), the workhorse of the normal equations.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for row in 0..self.rows {
            let r = self.row(row);
            for i in 0..self.cols {
                let ri = r[i];
                if ri == 0.0 {
                    continue;
                }
                for (j, &rj) in r.iter().enumerate().skip(i) {
                    g.data[i * self.cols + j] += ri * rj;
                }
            }
        }
        for i in 0..self.cols {
            for j in 0..i {
                g.data[i * self.cols + j] = g.data[j * self.cols + i];
            }
        }
        g
    }

    /// `selfᵀ · v` for a vector `v` of length `rows()`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != rows()`.
    pub fn t_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "vector length mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &vr) in v.iter().enumerate() {
            if vr == 0.0 {
                continue;
            }
            for (c, o) in out.iter_mut().enumerate() {
                *o += self.get(r, c) * vr;
            }
        }
        out
    }

    /// `self · v` for a vector `v` of length `cols()`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols()`.
    pub fn vec_mul(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        (0..self.rows).map(|r| dot(self.row(r), v)).collect()
    }
}

/// Training rows whose distance sums [`sq_dists`] keeps in registers at
/// once.
const DIST_BLOCK: usize = 16;

/// Squared Euclidean distance from the query `q` to every training row of
/// the feature-major `train` (`train.row(f)[j]` is feature `f` of row `j`),
/// into `out` (cleared first).
///
/// A block of [`DIST_BLOCK`] training rows walks the features together,
/// so their sums are independent chains the CPU overlaps, yet each pair's
/// sum still adds its squared differences in feature order from
/// [`crate::sum_start`]: the additions `Iterator::sum` makes on one row
/// pair. `TRAIN_FIRST` picks the operand order of each difference (`t - q`
/// or `q - t`), so even NaN payloads match the row-pair form. Features
/// past the shorter of `q` and the rows are skipped, as a `zip` would.
#[inline(never)]
pub(crate) fn sq_dists<const TRAIN_FIRST: bool>(train: &Matrix, q: &[f64], out: &mut Vec<f64>) {
    let (n, q) = (train.cols, &q[..q.len().min(train.rows)]);
    let diff = |t: f64, qf: f64| if TRAIN_FIRST { t - qf } else { qf - t };
    out.clear();
    out.resize(n, crate::sum_start());
    let mut blocks = out.chunks_exact_mut(DIST_BLOCK);
    for (b, chunk) in blocks.by_ref().enumerate() {
        let j0 = b * DIST_BLOCK;
        let mut acc = [crate::sum_start(); DIST_BLOCK];
        for (f, &qf) in q.iter().enumerate() {
            let t = &train.data[f * n + j0..][..DIST_BLOCK];
            for (a, &t) in acc.iter_mut().zip(t) {
                let d = diff(t, qf);
                *a += d * d;
            }
        }
        chunk.copy_from_slice(&acc);
    }
    let j0 = n - blocks.into_remainder().len();
    for (f, &qf) in q.iter().enumerate() {
        for (a, &t) in out[j0..]
            .iter_mut()
            .zip(&train.data[f * n + j0..(f + 1) * n])
        {
            let d = diff(t, qf);
            *a += d * d;
        }
    }
}

/// Dot product of equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Cholesky factorization of a symmetric positive-definite matrix,
/// returning the lower factor L with `A = L·Lᵀ`.
///
/// # Errors
///
/// Returns [`MlError::Singular`] if the matrix is not positive definite
/// (within a small jitter retry).
pub fn cholesky(a: &Matrix) -> Result<Matrix, MlError> {
    assert_eq!(a.rows(), a.cols(), "cholesky needs a square matrix");
    let n = a.rows();
    for jitter in [0.0, 1e-10, 1e-6] {
        let mut l = Matrix::zeros(n, n);
        let mut ok = true;
        'outer: for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j)
                    + if i == j {
                        jitter * (1.0 + a.get(i, i).abs())
                    } else {
                        0.0
                    };
                let (li, lj) = (&l.data[i * n..i * n + j], &l.data[j * n..j * n + j]);
                for (lik, ljk) in li.iter().zip(lj) {
                    sum -= lik * ljk;
                }
                if i == j {
                    if sum <= 0.0 {
                        ok = false;
                        break 'outer;
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        if ok {
            return Ok(l);
        }
    }
    Err(MlError::Singular)
}

/// Solve `A·x = b` for symmetric positive-definite `A` via Cholesky.
///
/// # Errors
///
/// Returns [`MlError::Singular`] when `A` is not SPD.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, MlError> {
    assert_eq!(a.rows(), b.len(), "rhs length mismatch");
    let l = cholesky(a)?;
    Ok(chol_solve(&l, b))
}

/// Solve using a precomputed Cholesky factor `L` (`A = L·Lᵀ`).
pub fn chol_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    // Forward: L y = b
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for (k, &yk) in y.iter().enumerate().take(i) {
            s -= l.get(i, k) * yk;
        }
        y[i] = s / l.get(i, i);
    }
    // Backward: Lᵀ x = y
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for (k, &xk) in x.iter().enumerate().skip(i + 1) {
            s -= l.get(k, i) * xk;
        }
        x[i] = s / l.get(i, i);
    }
    x
}

/// Diagonal of `A⁻¹` from the Cholesky factor of `A` (used by Bayesian
/// ridge's effective-parameter estimate). O(n³) but `n` = feature count.
pub fn inv_diag_from_chol(l: &Matrix) -> Vec<f64> {
    let n = l.rows();
    let mut diag = vec![0.0; n];
    for j in 0..n {
        // Solve A x = e_j, take x[j].
        let mut e = vec![0.0; n];
        e[j] = 1.0;
        let x = chol_solve(l, &e);
        diag[j] = x[j];
    }
    diag
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn gram_equals_t_times_self() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, -1.0], &[0.5, -3.0, 2.0], &[2.0, 0.0, 1.0]]);
        let g1 = a.gram();
        let g2 = a.transpose().matmul(&a);
        for i in 0..3 {
            for j in 0..3 {
                assert!((g1.get(i, j) - g2.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_round_trip() {
        let a = Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.5], &[0.6, 1.5, 3.0]]);
        let l = cholesky(&a).unwrap();
        let lt = l.transpose();
        let back = l.matmul(&lt);
        for i in 0..3 {
            for j in 0..3 {
                assert!((back.get(i, j) - a.get(i, j)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn solve_spd_recovers_solution() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let x_true = [2.0, -1.0];
        let b = a.vec_mul(&x_true);
        let x = solve_spd(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10 && (x[1] + 1.0).abs() < 1e-10);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        // Perfectly singular but jitter rescues it into near-singular: the
        // solve should still succeed *or* report Singular — never panic.
        match solve_spd(&a, &[1.0, 1.0]) {
            Ok(x) => assert!(x.iter().all(|v| v.is_finite())),
            Err(e) => assert_eq!(e, MlError::Singular),
        }
        let neg = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]);
        assert_eq!(cholesky(&neg).unwrap_err(), MlError::Singular);
    }

    #[test]
    fn inv_diag_matches_direct_inverse() {
        let a = Matrix::from_rows(&[&[2.0, 0.3], &[0.3, 1.0]]);
        let l = cholesky(&a).unwrap();
        let d = inv_diag_from_chol(&l);
        // inverse of [[2,.3],[.3,1]] = 1/(2-0.09) [[1,-.3],[-.3,2]]
        let det = 2.0 - 0.09;
        assert!((d[0] - 1.0 / det).abs() < 1e-10);
        assert!((d[1] - 2.0 / det).abs() < 1e-10);
    }

    #[test]
    fn t_vec_and_vec_mul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.t_vec(&[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
        assert_eq!(a.vec_mul(&[1.0, -1.0]), vec![-1.0, -1.0, -1.0]);
    }
}
