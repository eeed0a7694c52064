//! From-scratch statistical / machine-learning regression models.
//!
//! Implements the 18 light-weight S/ML models of Table I of the
//! ApproxFPGAs paper (DAC 2020) behind one object-safe [`Regressor`]
//! trait, together with the dense linear algebra they need and the
//! evaluation metrics the paper uses — most importantly the **fidelity**
//! metric (Eq. 1–2), which scores how well a model preserves the *ordering*
//! of FPGA parameters between circuit pairs.
//!
//! | Id | Model | Module |
//! |----|-------|--------|
//! | ML1–ML3 | Regression w.r.t. one ASIC parameter | [`linear`] |
//! | ML4 | PLS regression | [`pls`] |
//! | ML5 | Random forest | [`forest`] |
//! | ML6 | Gradient boosting | [`boost`] |
//! | ML7 | AdaBoost.R2 | [`boost`] |
//! | ML8 | Gaussian process | [`kernel`] |
//! | ML9 | Symbolic regression | [`symbolic`] |
//! | ML10 | Kernel ridge | [`kernel`] |
//! | ML11 | Bayesian ridge | [`linear`] |
//! | ML12 | Coordinate-descent Lasso | [`linear`] |
//! | ML13 | Least-angle regression | [`linear`] |
//! | ML14 | Ridge regression | [`linear`] |
//! | ML15 | Stochastic gradient descent | [`linear`] |
//! | ML16 | K-nearest neighbours | [`neighbors`] |
//! | ML17 | Multi-layer perceptron | [`mlp`] |
//! | ML18 | Decision tree | [`tree`] |
//!
//! # Example
//!
//! ```
//! use afp_ml::linear::Ridge;
//! use afp_ml::{Matrix, Regressor};
//!
//! // y = 2*x0 + 1
//! let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
//! let y = [1.0, 3.0, 5.0, 7.0];
//! let mut model = Ridge::new(1e-6);
//! model.fit(&x, &y)?;
//! assert!((model.predict_row(&[4.0]) - 9.0).abs() < 1e-3);
//! # Ok::<(), afp_ml::MlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boost;
pub mod chaos;
pub mod codec;
pub mod forest;
pub mod kernel;
pub mod linalg;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod neighbors;
pub mod pls;
pub mod preprocess;
pub mod symbolic;
pub mod tree;
pub mod tuning;
pub mod zoo;

pub use chaos::{ChaosConfig, ChaosKind, ChaosRegressor};
pub use codec::{restore, CodecError, ModelState};
pub use linalg::Matrix;
pub use zoo::{build_model, MlModelId};

/// Error produced by model fitting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MlError {
    /// The training set is empty or X/y lengths disagree.
    ShapeMismatch {
        /// Rows in X.
        rows: usize,
        /// Length of y.
        targets: usize,
    },
    /// A linear system was numerically singular beyond repair.
    Singular,
    /// The model requires at least this many samples.
    TooFewSamples {
        /// Samples required.
        needed: usize,
        /// Samples provided.
        got: usize,
    },
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::ShapeMismatch { rows, targets } => {
                write!(f, "shape mismatch: {rows} rows vs {targets} targets")
            }
            MlError::Singular => write!(f, "singular linear system"),
            MlError::TooFewSamples { needed, got } => {
                write!(f, "too few samples: needed {needed}, got {got}")
            }
        }
    }
}

impl std::error::Error for MlError {}

/// A trainable regression model mapping feature rows to one target.
///
/// All implementations are deterministic for a fixed configuration (models
/// with internal randomness take an explicit seed).
pub trait Regressor: Send + Sync {
    /// Fit the model on feature matrix `x` (one row per sample) and
    /// targets `y`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::ShapeMismatch`] when `x.rows() != y.len()` or the
    /// set is empty, [`MlError::TooFewSamples`] when the model needs more
    /// data, and [`MlError::Singular`] on unrecoverable numerical failure.
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError>;

    /// Predict the target for one feature row.
    ///
    /// # Panics
    ///
    /// May panic if called before a successful [`Regressor::fit`] or with a
    /// row of the wrong width.
    fn predict_row(&self, row: &[f64]) -> f64;

    /// Predict every row of `x`.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|r| self.predict_row(x.row(r))).collect()
    }

    /// Short human-readable model name.
    fn name(&self) -> &'static str;

    /// Serialize the fitted state for persistence, or `None` when this
    /// model type does not support it (the default).
    ///
    /// Implementations guarantee a **bit-exact** round trip through
    /// [`codec::restore`]: the restored model predicts byte-identical
    /// values for every input row.
    fn save_state(&self) -> Option<codec::ModelState> {
        None
    }
}

/// The value [`Iterator::sum`] starts an `f64` sum from. A batch kernel
/// that keeps one running sum per row starts each from it and adds in the
/// same order as `predict_row`'s `sum()`, so both give the same bits.
#[inline]
pub(crate) fn sum_start() -> f64 {
    std::iter::empty::<f64>().sum()
}

pub(crate) fn check_xy(x: &Matrix, y: &[f64]) -> Result<(), MlError> {
    if x.rows() == 0 || x.rows() != y.len() {
        Err(MlError::ShapeMismatch {
            rows: x.rows(),
            targets: y.len(),
        })
    } else {
        Ok(())
    }
}
