//! The model registry: Table I of the ApproxFPGAs paper.
//!
//! Maps [`MlModelId`] (ML1–ML18) to ready-to-train [`Regressor`] instances
//! with the default hyperparameters this reproduction uses.

use crate::boost::{AdaBoostR2, GradientBoosting};
use crate::forest::RandomForest;
use crate::kernel::{GaussianProcess, KernelRidge};
use crate::linear::{BayesianRidge, Lasso, LeastAngle, Ridge, SgdRegressor, SingleFeature};
use crate::mlp::Mlp;
use crate::neighbors::KNearest;
use crate::pls::PlsRegression;
use crate::symbolic::SymbolicRegression;
use crate::tree::DecisionTree;
use crate::Regressor;

/// The ASIC-parameter feature columns that ML1–ML3 regress on.
///
/// The dataset layer (crate `approxfpgas`) fills these indices in when
/// building models; they identify which feature column holds the ASIC
/// power/latency/area of a circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AsicColumns {
    /// Feature index of ASIC power.
    pub power: usize,
    /// Feature index of ASIC latency (critical-path delay).
    pub latency: usize,
    /// Feature index of ASIC area.
    pub area: usize,
}

/// Identifier of one of the 18 statistical/ML models of Table I.
// Safe total order (`Eq + Ord`, no float keys): the clippy.toml
// `partial_cmp` ban fires inside the derive expansion, not here.
#[allow(clippy::disallowed_methods)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum MlModelId {
    Ml1,
    Ml2,
    Ml3,
    Ml4,
    Ml5,
    Ml6,
    Ml7,
    Ml8,
    Ml9,
    Ml10,
    Ml11,
    Ml12,
    Ml13,
    Ml14,
    Ml15,
    Ml16,
    Ml17,
    Ml18,
}

impl MlModelId {
    /// All 18 models in Table I order.
    pub const ALL: [MlModelId; 18] = [
        MlModelId::Ml1,
        MlModelId::Ml2,
        MlModelId::Ml3,
        MlModelId::Ml4,
        MlModelId::Ml5,
        MlModelId::Ml6,
        MlModelId::Ml7,
        MlModelId::Ml8,
        MlModelId::Ml9,
        MlModelId::Ml10,
        MlModelId::Ml11,
        MlModelId::Ml12,
        MlModelId::Ml13,
        MlModelId::Ml14,
        MlModelId::Ml15,
        MlModelId::Ml16,
        MlModelId::Ml17,
        MlModelId::Ml18,
    ];

    /// Table I label, e.g. `"ML11"`.
    pub fn label(&self) -> &'static str {
        match self {
            MlModelId::Ml1 => "ML1",
            MlModelId::Ml2 => "ML2",
            MlModelId::Ml3 => "ML3",
            MlModelId::Ml4 => "ML4",
            MlModelId::Ml5 => "ML5",
            MlModelId::Ml6 => "ML6",
            MlModelId::Ml7 => "ML7",
            MlModelId::Ml8 => "ML8",
            MlModelId::Ml9 => "ML9",
            MlModelId::Ml10 => "ML10",
            MlModelId::Ml11 => "ML11",
            MlModelId::Ml12 => "ML12",
            MlModelId::Ml13 => "ML13",
            MlModelId::Ml14 => "ML14",
            MlModelId::Ml15 => "ML15",
            MlModelId::Ml16 => "ML16",
            MlModelId::Ml17 => "ML17",
            MlModelId::Ml18 => "ML18",
        }
    }

    /// Table I description.
    pub fn description(&self) -> &'static str {
        match self {
            MlModelId::Ml1 => "Regression w.r.t. ASIC-AC Power",
            MlModelId::Ml2 => "Regression w.r.t. ASIC-AC Latency",
            MlModelId::Ml3 => "Regression w.r.t. ASIC-AC Area",
            MlModelId::Ml4 => "PLS Regression",
            MlModelId::Ml5 => "Random Forest",
            MlModelId::Ml6 => "Gradient Boosting",
            MlModelId::Ml7 => "Adaptive Boosting (AdaBoost)",
            MlModelId::Ml8 => "Gaussian Process",
            MlModelId::Ml9 => "Symbolic Regression",
            MlModelId::Ml10 => "Kernel Ridge",
            MlModelId::Ml11 => "Bayesian Ridge",
            MlModelId::Ml12 => "Coordinate Descent (Lasso)",
            MlModelId::Ml13 => "Least Angle Regression",
            MlModelId::Ml14 => "Ridge Regression",
            MlModelId::Ml15 => "Stochastic Gradient Descent",
            MlModelId::Ml16 => "K-Nearest Neighbours",
            MlModelId::Ml17 => "Multi-Layer Perceptron (MLP)",
            MlModelId::Ml18 => "Decision Tree",
        }
    }

    /// Whether this model is one of the plain statistical regressions on an
    /// ASIC parameter (ML1–ML3).
    pub fn is_asic_regression(&self) -> bool {
        matches!(self, MlModelId::Ml1 | MlModelId::Ml2 | MlModelId::Ml3)
    }
}

impl std::fmt::Display for MlModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Build a fresh, untrained model for `id` with the reproduction's default
/// hyperparameters.
///
/// `asic` supplies the feature-column indices ML1–ML3 regress on.
pub fn build_model(id: MlModelId, asic: AsicColumns) -> Box<dyn Regressor> {
    match id {
        MlModelId::Ml1 => Box::new(SingleFeature::new(asic.power)),
        MlModelId::Ml2 => Box::new(SingleFeature::new(asic.latency)),
        MlModelId::Ml3 => Box::new(SingleFeature::new(asic.area)),
        MlModelId::Ml4 => Box::new(PlsRegression::new(4)),
        MlModelId::Ml5 => Box::new(RandomForest::new(40, Default::default(), 0x5EED_0005)),
        MlModelId::Ml6 => Box::new(GradientBoosting::default()),
        MlModelId::Ml7 => Box::new(AdaBoostR2::default()),
        MlModelId::Ml8 => Box::new(GaussianProcess::default()),
        MlModelId::Ml9 => Box::new(SymbolicRegression::default()),
        MlModelId::Ml10 => Box::new(KernelRidge::default()),
        MlModelId::Ml11 => Box::new(BayesianRidge::default()),
        MlModelId::Ml12 => Box::new(Lasso::new(0.005, 200)),
        MlModelId::Ml13 => Box::new(LeastAngle::new(8)),
        MlModelId::Ml14 => Box::new(Ridge::new(1e-3)),
        MlModelId::Ml15 => Box::new(SgdRegressor::default()),
        MlModelId::Ml16 => Box::new(KNearest::new(5)),
        MlModelId::Ml17 => Box::new(Mlp::default()),
        MlModelId::Ml18 => Box::new(DecisionTree::new(Default::default())),
    }
}

/// [`Regressor::fit`] under an [`afp_obs`] span named `train/<label>`,
/// with the sample count reported as span items (samples/s throughput).
///
/// The disabled path is free: no clock read, no allocation — the fit is
/// dispatched directly.
///
/// # Errors
///
/// Propagates the underlying [`Regressor::fit`] error unchanged.
pub fn fit_traced(
    model: &mut dyn Regressor,
    id: MlModelId,
    x: &crate::Matrix,
    y: &[f64],
    recorder: &afp_obs::Recorder,
) -> Result<(), crate::MlError> {
    if !recorder.is_enabled() {
        return model.fit(x, y);
    }
    let name = format!("train/{}", id.label());
    let mut span = recorder.span(&name);
    span.add_items(y.len() as u64);
    model.fit(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::pearson;
    use crate::Matrix;

    fn asic() -> AsicColumns {
        AsicColumns {
            power: 0,
            latency: 1,
            area: 2,
        }
    }

    /// Near-linear dataset with 3 "ASIC" columns + 2 structural columns
    /// (disjoint RNG bit windows keep the columns independent).
    fn dataset(n: usize) -> (Matrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        let mut s = 1u64;
        for _ in 0..n {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let power = ((s >> 8) & 0xFF) as f64 / 255.0;
            let lat = ((s >> 16) & 0xFF) as f64 / 255.0;
            let area = ((s >> 24) & 0xFF) as f64 / 255.0;
            let gates = area * 510.0 + ((s >> 32) & 0xF) as f64;
            let depth = lat * 20.0 + ((s >> 40) & 0x7) as f64;
            rows.push(vec![power, lat, area, gates, depth]);
            ys.push(0.85 * power + 0.10 * lat + 0.05 * area);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), ys)
    }

    #[test]
    fn registry_has_18_distinct_models() {
        assert_eq!(MlModelId::ALL.len(), 18);
        let labels: std::collections::HashSet<&str> =
            MlModelId::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 18);
    }

    #[test]
    fn every_model_trains_and_correlates() {
        let (x, y) = dataset(150);
        for id in MlModelId::ALL {
            let mut model = build_model(id, asic());
            model.fit(&x, &y).unwrap_or_else(|e| panic!("{id}: {e}"));
            let pred = model.predict(&x);
            let corr = pearson(&pred, &y);
            // ML2/ML3 regress on weakly-informative single columns; all
            // others must correlate strongly on this easy set.
            let floor = if id.is_asic_regression() { 0.05 } else { 0.75 };
            assert!(corr > floor, "{id} ({}): corr {corr}", model.name());
        }
    }

    #[test]
    fn asic_regressions_use_their_designated_column() {
        let (x, y) = dataset(100);
        let mut m1 = build_model(MlModelId::Ml1, asic());
        m1.fit(&x, &y).unwrap();
        // Power column dominates y: ML1 should do well.
        assert!(pearson(&m1.predict(&x), &y) > 0.9);
    }

    #[test]
    fn traced_fit_records_a_span_only_when_enabled() {
        let (x, y) = dataset(80);
        let rec = afp_obs::Recorder::enabled();
        let mut model = build_model(MlModelId::Ml14, asic());
        fit_traced(model.as_mut(), MlModelId::Ml14, &x, &y, &rec).unwrap();
        let stages: Vec<String> = rec.stages().into_iter().map(|(n, _)| n).collect();
        assert_eq!(stages, vec!["train/ML14"]);

        // The disabled path fits the same model and records nothing.
        let off = afp_obs::Recorder::disabled();
        let mut quiet = build_model(MlModelId::Ml14, asic());
        fit_traced(quiet.as_mut(), MlModelId::Ml14, &x, &y, &off).unwrap();
        assert_eq!(quiet.predict(&x), model.predict(&x));
        assert!(off.stages().is_empty());
    }

    /// splitmix64 step: every proptest case derives its inputs from one
    /// drawn seed.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One cell: usually continuous, often a small integer (ties) or a
    /// midpoint of two (a tree threshold), and with `special` set
    /// sometimes NaN, ±inf or a signed zero.
    fn cell(s: &mut u64, special: bool) -> f64 {
        const SPECIAL: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        match mix(s) % 8 {
            0 if special => SPECIAL[(mix(s) % 5) as usize],
            1 | 2 => (mix(s) % 3) as f64,
            3 if special => (mix(s) % 2) as f64 + 0.5,
            _ => (mix(s) >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 1.0,
        }
    }

    /// A training set and a query matrix of 0, 1, 9 or up to 24 rows.
    /// The queries repeat training rows (exact distance ties) and each
    /// other, and hold NaN, ±inf and signed-zero cells; the training set
    /// does too in one case of four.
    fn batch_case(seed: u64) -> (Matrix, Vec<f64>, Matrix) {
        let mut s = seed;
        let p = 5;
        let n = 12 + (mix(&mut s) % 30) as usize;
        let special_train = mix(&mut s).is_multiple_of(4);
        let mut train: Vec<f64> = Vec::with_capacity(n * p);
        for i in 0..n {
            if i > 0 && mix(&mut s).is_multiple_of(5) {
                let j = (mix(&mut s) % i as u64) as usize;
                train.extend_from_within(j * p..(j + 1) * p);
            } else {
                train.extend((0..p).map(|_| cell(&mut s, special_train)));
            }
        }
        let y: Vec<f64> = (0..n).map(|_| cell(&mut s, false)).collect();
        let rows = [0, 1, 9, (mix(&mut s) % 25) as usize][(mix(&mut s) % 4) as usize];
        let mut query: Vec<f64> = Vec::with_capacity(rows * p);
        for i in 0..rows {
            match mix(&mut s) % 4 {
                0 => {
                    let j = (mix(&mut s) % n as u64) as usize;
                    query.extend_from_slice(&train[j * p..(j + 1) * p]);
                }
                1 if i > 0 => {
                    let j = (mix(&mut s) % i as u64) as usize;
                    query.extend_from_within(j * p..(j + 1) * p);
                }
                _ => query.extend((0..p).map(|_| cell(&mut s, true))),
            }
        }
        (
            Matrix::from_vec(n, p, train),
            y,
            Matrix::from_vec(rows, p, query),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Every model's batch `predict` — fitted and restored from its
        /// saved state — is bit-equal to `predict_row` on each row.
        #[test]
        fn batch_predict_is_bit_equal_to_predict_row(seed in 0u64..u64::MAX) {
            let (x, y, q) = batch_case(seed);
            for id in MlModelId::ALL {
                let mut model = build_model(id, asic());
                if model.fit(&x, &y).is_err() {
                    continue;
                }
                let state = model.save_state().expect("every zoo model saves");
                let restored = crate::restore(state.tag, &state.payload).expect("round trip");
                let rows: Vec<u64> = (0..q.rows())
                    .map(|r| model.predict_row(q.row(r)).to_bits())
                    .collect();
                for (what, m) in [("fitted", &model), ("restored", &restored)] {
                    let batch: Vec<u64> = m.predict(&q).iter().map(|v| v.to_bits()).collect();
                    proptest::prop_assert_eq!(&batch, &rows, "{} {}", id, what);
                }
            }
        }
    }

    #[test]
    fn labels_match_table_one() {
        assert_eq!(MlModelId::Ml11.label(), "ML11");
        assert_eq!(MlModelId::Ml11.description(), "Bayesian Ridge");
        assert_eq!(MlModelId::Ml4.description(), "PLS Regression");
        assert!(MlModelId::Ml1.is_asic_regression());
        assert!(!MlModelId::Ml4.is_asic_regression());
    }
}
