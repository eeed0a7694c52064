//! Training and fidelity evaluation of the model zoo (Fig. 5 / Table II).

use std::collections::BTreeMap;

use afp_fpga::FpgaReport;
use afp_ml::metrics::{fidelity, mae, pearson, r2};
use afp_ml::zoo::AsicColumns;
use afp_ml::{build_model, Matrix, MlModelId, Regressor};
use afp_obs::Recorder;
use afp_runtime::{Key128, Runtime, StableHasher};

use crate::record::{extract_features, CircuitRecord, FeatureLayout, FpgaParam};

/// Evaluation result of one model for one FPGA parameter.
#[derive(Clone, Debug)]
pub struct FidelityRecord {
    /// Which model.
    pub model: MlModelId,
    /// Which FPGA parameter it estimates.
    pub param: FpgaParam,
    /// Fidelity on the validation set (paper Eq. 1).
    pub fidelity: f64,
    /// R² on the validation set.
    pub r2: f64,
    /// Mean absolute error on the validation set.
    pub mae: f64,
    /// Pearson correlation on the validation set.
    pub pearson: f64,
}

/// The hyperparameter-grid label chosen per trained (model, parameter),
/// as returned by the tuned training entry points.
pub type ChosenLabels = Vec<((MlModelId, FpgaParam), String)>;

/// A zoo of trained models: one regressor per (model id, FPGA parameter).
pub struct TrainedZoo {
    layout: FeatureLayout,
    models: Vec<((MlModelId, FpgaParam), Box<dyn Regressor>)>,
    /// Validation-set evaluations, one per (model, param).
    pub fidelities: Vec<FidelityRecord>,
}

impl TrainedZoo {
    /// Feature layout the zoo was trained with.
    pub fn layout(&self) -> &FeatureLayout {
        &self.layout
    }

    /// Every trained (model, parameter) pair with its regressor, in
    /// training order — the iteration surface the `.afpm` persistence
    /// layer serializes from.
    pub(crate) fn trained_models(
        &self,
    ) -> impl Iterator<Item = (MlModelId, FpgaParam, &dyn Regressor)> {
        self.models
            .iter()
            .map(|((m, p), reg)| (*m, *p, reg.as_ref()))
    }

    /// Rebuild a zoo from decoded parts (the `.afpm` load path).
    pub(crate) fn from_parts(
        layout: FeatureLayout,
        models: Vec<((MlModelId, FpgaParam), Box<dyn Regressor>)>,
        fidelities: Vec<FidelityRecord>,
    ) -> TrainedZoo {
        TrainedZoo {
            layout,
            models,
            fidelities,
        }
    }

    /// Whether the (model, param) pair has a trained regressor.
    pub fn has_model(&self, model: MlModelId, param: FpgaParam) -> bool {
        self.regressor(model, param).is_some()
    }

    /// The trained regressor of the (model, param) pair.
    fn regressor(&self, model: MlModelId, param: FpgaParam) -> Option<&dyn Regressor> {
        self.models
            .iter()
            .find(|((m, p), _)| *m == model && *p == param)
            .map(|(_, reg)| reg.as_ref())
    }

    /// The validation scores of the (model, param) pair; `None` when the
    /// pair was not in the training grid. A pair whose fit failed is
    /// present, scored zero fidelity.
    pub fn fidelity(&self, model: MlModelId, param: FpgaParam) -> Option<&FidelityRecord> {
        self.fidelities
            .iter()
            .find(|f| f.model == model && f.param == param)
    }

    /// Estimate `param` with `model` from an already-extracted feature
    /// row. `None` when the pair was never trained — the non-panicking
    /// sibling of [`TrainedZoo::estimate`] for serving paths that must
    /// not abort on an uncovered request.
    pub fn estimate_row(
        &self,
        model: MlModelId,
        param: FpgaParam,
        features: &[f64],
    ) -> Option<f64> {
        self.regressor(model, param)
            .map(|reg| reg.predict_row(features))
    }

    /// Estimate `param` for `record` with `model`.
    ///
    /// # Panics
    ///
    /// Panics if the (model, param) pair was not trained.
    pub fn estimate<F>(
        &self,
        model: MlModelId,
        param: FpgaParam,
        record: &CircuitRecord<F>,
    ) -> f64 {
        let features = extract_features(record, &self.layout);
        let reg = self
            .regressor(model, param)
            .expect("model/param pair was trained");
        reg.predict_row(&features)
    }

    /// The feature matrix of `records`, one row per record in order: the
    /// input of [`TrainedZoo::estimate_matrix`]. A flow extracts it once
    /// and every model estimates from it.
    pub(crate) fn features<F>(&self, records: &[CircuitRecord<F>]) -> Matrix {
        records_matrix(records.iter(), &self.layout)
    }

    /// Estimate `param` with `model` for every row of `features` (from
    /// [`TrainedZoo::features`]) through the model's batch
    /// [`Regressor::predict`], bit-equal to [`TrainedZoo::estimate`] on
    /// each record.
    ///
    /// # Panics
    ///
    /// Panics if the (model, param) pair was not trained.
    pub(crate) fn estimate_matrix(
        &self,
        model: MlModelId,
        param: FpgaParam,
        features: &Matrix,
    ) -> Vec<f64> {
        self.regressor(model, param)
            .expect("model/param pair was trained")
            .predict(features)
    }

    /// Estimate `param` for every record with `model`: one feature
    /// matrix through the model's batch [`Regressor::predict`],
    /// bit-equal to [`TrainedZoo::estimate`] on each record.
    ///
    /// # Panics
    ///
    /// Panics if the (model, param) pair was not trained.
    pub fn estimate_all<F>(
        &self,
        model: MlModelId,
        param: FpgaParam,
        records: &[CircuitRecord<F>],
    ) -> Vec<f64> {
        self.estimate_matrix(model, param, &self.features(records))
    }

    /// The `k` models with the highest validation fidelity for `param`,
    /// best first. `include_asic_regressions` controls whether ML1–ML3
    /// compete (the paper reports them separately in Table II).
    ///
    /// Ranking uses the workspace total-order policy: a NaN validation
    /// fidelity ranks *last*, so a degenerate model can only enter the
    /// top-k when fewer than `k` models scored a real fidelity.
    pub fn top_models(
        &self,
        param: FpgaParam,
        k: usize,
        include_asic_regressions: bool,
    ) -> Vec<MlModelId> {
        let mut rows: Vec<&FidelityRecord> = self
            .fidelities
            .iter()
            .filter(|f| f.param == param)
            .filter(|f| include_asic_regressions || !f.model.is_asic_regression())
            .collect();
        rows.sort_by(|a, b| afp_ord::desc(a.fidelity, b.fidelity));
        rows.into_iter().take(k).map(|f| f.model).collect()
    }

    /// The best plain ASIC-regression model (among ML1–ML3) for `param`.
    ///
    /// A NaN fidelity never wins; the result is `None` only when no
    /// ASIC-regression rows exist for `param` at all.
    pub fn best_asic_regression(&self, param: FpgaParam) -> Option<MlModelId> {
        self.fidelities
            .iter()
            .filter(|f| f.param == param && f.model.is_asic_regression())
            .max_by(|a, b| afp_ord::for_max(a.fidelity, b.fidelity))
            .map(|f| f.model)
    }

    /// Every ASIC-regression model for `param`, ranked best-first with
    /// NaN fidelities last. The first element matches
    /// [`TrainedZoo::best_asic_regression`] exactly, including its
    /// last-of-ties behaviour, so the flow can use this list as the
    /// promotion pool when a quarantined model is dropped.
    pub fn ranked_asic_regressions(&self, param: FpgaParam) -> Vec<MlModelId> {
        let mut rows: Vec<(usize, &FidelityRecord)> = self
            .fidelities
            .iter()
            .filter(|f| f.param == param && f.model.is_asic_regression())
            .enumerate()
            .collect();
        // `max_by` keeps the *last* of equal maxima; break fidelity ties
        // by descending position to reproduce that choice at rank 0.
        rows.sort_by(|(ia, a), (ib, b)| {
            afp_ord::desc(a.fidelity, b.fidelity).then_with(|| ib.cmp(ia))
        });
        rows.into_iter().map(|(_, f)| f.model).collect()
    }

    /// Wrap every trained regressor in a fault-injecting
    /// [`afp_ml::chaos::ChaosRegressor`], each on its own deterministic
    /// injection stream. Validation fidelities are left untouched (they
    /// were computed on the clean models); only *estimates* get corrupted,
    /// which is exactly the untrusted-input surface the quarantine stage
    /// defends.
    pub fn inject_chaos(&mut self, config: &afp_ml::chaos::ChaosConfig) {
        let models = std::mem::take(&mut self.models);
        self.models = models
            .into_iter()
            .map(|((id, param), m)| {
                let cfg = config.with_stream(pair_stream(id, param));
                ((id, param), afp_ml::chaos::ChaosRegressor::wrap(m, cfg))
            })
            .collect();
    }

    /// Like [`TrainedZoo::inject_chaos`], but only for the single
    /// `(model, param)` pair — the surgical variant used to test that a
    /// fully non-finite model is dropped and replaced.
    pub fn inject_chaos_for(
        &mut self,
        model: MlModelId,
        param: FpgaParam,
        config: &afp_ml::chaos::ChaosConfig,
    ) {
        let models = std::mem::take(&mut self.models);
        self.models = models
            .into_iter()
            .map(|((id, p), m)| {
                if id == model && p == param {
                    let cfg = config.with_stream(pair_stream(id, p));
                    ((id, p), afp_ml::chaos::ChaosRegressor::wrap(m, cfg))
                } else {
                    ((id, p), m)
                }
            })
            .collect();
    }
}

/// Stable per-(model, parameter) stream id for chaos injection.
fn pair_stream(model: MlModelId, param: FpgaParam) -> u64 {
    let mi = MlModelId::ALL.iter().position(|&m| m == model).unwrap_or(0) as u64;
    let pi = FpgaParam::ALL.iter().position(|&p| p == param).unwrap_or(0) as u64;
    mi * 64 + pi
}

/// Train every Table I model for every FPGA parameter on `train` records
/// and evaluate fidelity on `validate` records.
///
/// `tolerance` is the relative equality tolerance used in the fidelity
/// pair comparison (the paper treats near-equal parameters as equal; we
/// default to 1%).
pub fn train_zoo(
    records: &[CircuitRecord],
    train: &[usize],
    validate: &[usize],
    models: &[MlModelId],
    tolerance: f64,
) -> TrainedZoo {
    train_zoo_with(
        records,
        train,
        validate,
        models,
        tolerance,
        &Runtime::serial(),
        &Recorder::disabled(),
    )
}

/// [`train_zoo`] on an explicit [`Runtime`]: the `params × models` grid
/// trains in parallel. Each (model, parameter) fit is independent, so the
/// zoo — including the order of its fidelity table — is identical to the
/// serial build for any thread count.
///
/// Per-model `train/<model>` spans are recorded into `recorder`; workers
/// running concurrently each add their own wall time, so a stage's total
/// measures *work*, not latency.
pub fn train_zoo_with(
    records: &[CircuitRecord],
    train: &[usize],
    validate: &[usize],
    models: &[MlModelId],
    tolerance: f64,
    rt: &Runtime,
    recorder: &Recorder,
) -> TrainedZoo {
    TrainingSet::new(records, train, validate, |i| records[i].fpga)
        .train(models, false, tolerance, rt, recorder)
        .0
}

/// The inputs of one zoo training run, built once from the records and
/// the split: the feature matrices and per-parameter target vectors the
/// trainer reads. The flow keys its zoo memo on exactly these
/// ([`TrainingSet::memo_key`]) and checks a loaded zoo against them
/// ([`TrainingSet::reproduces`]).
pub(crate) struct TrainingSet {
    layout: FeatureLayout,
    x_train: Matrix,
    x_val: Matrix,
    targets: BTreeMap<FpgaParam, (Vec<f64>, Vec<f64>)>,
}

/// The fresh, unfitted candidates of one model id, with their labels:
/// the model's default alone, or its whole hyperparameter grid when
/// tuning (Fig. 2).
fn candidates(
    id: MlModelId,
    asic_cols: AsicColumns,
    tune: bool,
) -> Vec<(Box<dyn Regressor>, String)> {
    if tune {
        afp_ml::tuning::hyper_grid(id, asic_cols)
            .into_iter()
            .map(|c| (c.model, c.label))
            .collect()
    } else {
        vec![(build_model(id, asic_cols), "default".to_string())]
    }
}

/// The `params × models` grid, parameter-major: the order of the fidelity
/// table.
fn pairs(models: &[MlModelId]) -> Vec<(FpgaParam, MlModelId)> {
    FpgaParam::ALL
        .iter()
        .flat_map(|&param| models.iter().map(move |&id| (param, id)))
        .collect()
}

/// The validation scores of `pred` against `y_val`.
fn score(
    model: MlModelId,
    param: FpgaParam,
    pred: &[f64],
    y_val: &[f64],
    tolerance: f64,
) -> FidelityRecord {
    FidelityRecord {
        model,
        param,
        fidelity: fidelity(pred, y_val, tolerance),
        r2: r2(pred, y_val),
        mae: mae(pred, y_val),
        pearson: pearson(pred, y_val),
    }
}

/// Domain tag of [`TrainingSet::memo_key`].
const MEMO_DOMAIN: &str = "approxfpgas/zoo-memo";

impl TrainingSet {
    /// Extract the features of the `train` and `validate` records and
    /// their targets from `fpga`, the FPGA report of a library index.
    pub(crate) fn new<F>(
        records: &[CircuitRecord<F>],
        train: &[usize],
        validate: &[usize],
        fpga: impl Fn(usize) -> FpgaReport,
    ) -> Self {
        let layout = FeatureLayout::standard();
        let targets = FpgaParam::ALL
            .iter()
            .map(|&param| {
                let y = |split: &[usize]| split.iter().map(|&i| param.of(&fpga(i))).collect();
                (param, (y(train), y(validate)))
            })
            .collect();
        TrainingSet {
            x_train: feature_matrix(records, train, &layout),
            x_val: feature_matrix(records, validate, &layout),
            targets,
            layout,
        }
    }

    /// Train and score every pair of the `params × models` grid: each
    /// pair fits each of its candidates (see [`candidates`]) and keeps
    /// the first with the best validation fidelity, with that candidate's
    /// label. A pair whose every fit fails scores zero fidelity instead
    /// of aborting the flow and has no trained model.
    ///
    /// Each pair is one parallel task and independent of the others, so
    /// the zoo, including the order of its fidelity table, is identical
    /// to the serial build for any thread count.
    pub(crate) fn train(
        &self,
        models: &[MlModelId],
        tune: bool,
        tolerance: f64,
        rt: &Runtime,
        recorder: &Recorder,
    ) -> (TrainedZoo, ChosenLabels) {
        let jobs = pairs(models);
        type Best = Option<(FidelityRecord, Box<dyn Regressor>, String)>;
        let results: Vec<Best> = rt.par_map(&jobs, |_, &(param, id)| {
            let (y_train, y_val) = &self.targets[&param];
            let mut best: Best = None;
            for (mut model, label) in candidates(id, self.layout.asic_columns(), tune) {
                if afp_ml::zoo::fit_traced(model.as_mut(), id, &self.x_train, y_train, recorder)
                    .is_err()
                {
                    continue;
                }
                let record = score(id, param, &model.predict(&self.x_val), y_val, tolerance);
                if best
                    .as_ref()
                    .is_none_or(|(b, _, _)| record.fidelity > b.fidelity)
                {
                    best = Some((record, model, label));
                }
            }
            best
        });
        let mut trained = Vec::new();
        let mut fidelities = Vec::with_capacity(results.len());
        let mut labels = Vec::new();
        for (&(param, id), best) in jobs.iter().zip(results) {
            match best {
                Some((record, model, label)) => {
                    trained.push(((id, param), model));
                    labels.push(((id, param), label));
                    fidelities.push(record);
                }
                None => fidelities.push(failed_fit(id, param)),
            }
        }
        let zoo = TrainedZoo {
            layout: self.layout.clone(),
            models: trained,
            fidelities,
        };
        (zoo, labels)
    }

    /// The 128-bit key of a training run over this set: a domain tag and
    /// `version`, the layout's column names, the bits of every feature
    /// and target in split order, the model ids in order, the tuning flag,
    /// the tolerance's bits and each candidate's *unfitted* saved state
    /// (its hyperparameters), plus the `target` and `coverage` metadata a
    /// memo carries. Two runs with equal keys train bit-identical zoos as
    /// long as the trainers do not change (see
    /// [`crate::zoo_store::ZOO_MEMO_VERSION`]). `None` when a candidate
    /// cannot save its state.
    pub(crate) fn memo_key(
        &self,
        version: u32,
        models: &[MlModelId],
        tune: bool,
        tolerance: f64,
        target: &str,
        coverage: &[(afp_circuits::ArithKind, usize)],
    ) -> Option<Key128> {
        let mut h = StableHasher::new();
        h.write_str(MEMO_DOMAIN);
        h.write_u64(u64::from(version));
        h.write_usize(self.layout.names().len());
        for name in self.layout.names() {
            h.write_str(name);
        }
        for x in [&self.x_train, &self.x_val] {
            h.write_usize(x.rows());
            h.write_usize(x.cols());
            for r in 0..x.rows() {
                for &v in x.row(r) {
                    h.write_f64(v);
                }
            }
        }
        for (param, (y_train, y_val)) in &self.targets {
            h.write_str(param.label());
            for y in [y_train, y_val] {
                h.write_usize(y.len());
                for &v in y {
                    h.write_f64(v);
                }
            }
        }
        h.write_usize(models.len());
        for id in models {
            h.write_str(id.label());
        }
        h.write_bool(tune);
        h.write_f64(tolerance);
        for &id in models {
            let grid = candidates(id, self.layout.asic_columns(), tune);
            h.write_usize(grid.len());
            for (model, label) in grid {
                let state = model.save_state()?;
                h.write_str(&label);
                h.write_u8(state.tag);
                h.write_usize(state.payload.len());
                h.write_bytes(&state.payload);
            }
        }
        h.write_str(target);
        h.write_usize(coverage.len());
        for &(kind, width) in coverage {
            h.write_str(kind.mnemonic());
            h.write_usize(width);
        }
        Some(h.finish())
    }

    /// Whether `zoo` is what [`TrainingSet::train`] would build from this
    /// set for `models`: its fidelity table lists the grid's pairs in
    /// order, every trained model re-predicts the validation rows to
    /// scores bit-equal to its table row, and every untrained pair holds
    /// the failed-fit row.
    pub(crate) fn reproduces(
        &self,
        zoo: &TrainedZoo,
        models: &[MlModelId],
        tolerance: f64,
    ) -> bool {
        let jobs = pairs(models);
        if zoo.fidelities.len() != jobs.len() {
            return false;
        }
        let mut trained = 0;
        for (&(param, id), stored) in jobs.iter().zip(&zoo.fidelities) {
            let want = match zoo.regressor(id, param) {
                Some(model) => {
                    trained += 1;
                    let y_val = &self.targets[&param].1;
                    score(id, param, &model.predict(&self.x_val), y_val, tolerance)
                }
                None => failed_fit(id, param),
            };
            if !same_bits(&want, stored) {
                return false;
            }
        }
        trained == zoo.models.len()
    }
}

/// Whether two fidelity rows name the same pair with bit-equal scores.
fn same_bits(a: &FidelityRecord, b: &FidelityRecord) -> bool {
    (a.model, a.param) == (b.model, b.param)
        && [a.fidelity, a.r2, a.mae, a.pearson]
            .iter()
            .zip([b.fidelity, b.r2, b.mae, b.pearson])
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn failed_fit(model: MlModelId, param: FpgaParam) -> FidelityRecord {
    FidelityRecord {
        model,
        param,
        fidelity: 0.0,
        r2: f64::NEG_INFINITY,
        mae: f64::INFINITY,
        pearson: 0.0,
    }
}

/// Like [`train_zoo`], but runs the paper's "Modification of ML
/// parameters" loop (Fig. 2): every model is trained once per
/// configuration in its hyperparameter grid
/// ([`afp_ml::tuning::hyper_grid`]) and the configuration with the best
/// validation fidelity is kept per (model, parameter) pair.
///
/// Returns the zoo plus, for bookkeeping, the chosen configuration label
/// per (model, parameter).
pub fn train_zoo_tuned(
    records: &[CircuitRecord],
    train: &[usize],
    validate: &[usize],
    models: &[MlModelId],
    tolerance: f64,
) -> (TrainedZoo, ChosenLabels) {
    TrainingSet::new(records, train, validate, |i| records[i].fpga).train(
        models,
        true,
        tolerance,
        &Runtime::serial(),
        &Recorder::disabled(),
    )
}

/// Assemble the feature matrix of the selected records.
pub fn feature_matrix<F>(
    records: &[CircuitRecord<F>],
    indices: &[usize],
    layout: &FeatureLayout,
) -> Matrix {
    records_matrix(indices.iter().map(|&i| &records[i]), layout)
}

/// The feature matrix of `records`, one row each in order.
fn records_matrix<'a, F: 'a>(
    records: impl ExactSizeIterator<Item = &'a CircuitRecord<F>>,
    layout: &FeatureLayout,
) -> Matrix {
    let rows = records.len();
    let mut data = Vec::with_capacity(rows * layout.len());
    for record in records {
        data.extend(extract_features(record, layout));
    }
    Matrix::from_vec(rows, layout.len(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{characterize_library, sample_subset, train_validate_split};
    use afp_circuits::{build_library, ArithKind, LibrarySpec};

    fn small_zoo() -> (Vec<CircuitRecord>, TrainedZoo) {
        let lib = build_library(&LibrarySpec::new(ArithKind::Adder, 8, 80));
        let records = characterize_library(
            &lib,
            &afp_asic::AsicConfig::default(),
            &afp_fpga::FpgaConfig::default(),
            &afp_error::ErrorConfig::default(),
        );
        let subset = sample_subset(records.len(), 0.5, 30, 11);
        let (train, val) = train_validate_split(&subset, 0.8, 11);
        // A fast representative subset of the zoo for tests.
        let models = [
            MlModelId::Ml1,
            MlModelId::Ml3,
            MlModelId::Ml11,
            MlModelId::Ml14,
            MlModelId::Ml16,
            MlModelId::Ml18,
        ];
        let zoo = train_zoo(&records, &train, &val, &models, 0.01);
        (records, zoo)
    }

    #[test]
    fn estimate_all_is_bit_equal_to_per_record_estimates() {
        let (records, _) = small_zoo();
        let subset = sample_subset(records.len(), 0.5, 30, 11);
        let (train, val) = train_validate_split(&subset, 0.8, 11);
        let zoo = train_zoo(&records, &train, &val, &MlModelId::ALL, 0.01);
        let pairs: Vec<(MlModelId, FpgaParam)> =
            zoo.trained_models().map(|(m, p, _)| (m, p)).collect();
        assert_eq!(pairs.len(), MlModelId::ALL.len() * FpgaParam::ALL.len());
        for (model, param) in pairs {
            let batch: Vec<u64> = zoo
                .estimate_all(model, param, &records)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let rows: Vec<u64> = records
                .iter()
                .map(|r| zoo.estimate(model, param, r).to_bits())
                .collect();
            assert_eq!(batch, rows, "{model} {param:?}");
        }
    }

    #[test]
    fn zoo_trains_and_scores_all_pairs() {
        let (_, zoo) = small_zoo();
        assert_eq!(zoo.fidelities.len(), 6 * 3);
        for f in &zoo.fidelities {
            assert!((0.0..=1.0).contains(&f.fidelity), "{:?}", f);
        }
    }

    #[test]
    fn good_models_achieve_high_area_fidelity() {
        let (_, zoo) = small_zoo();
        let best = zoo
            .fidelities
            .iter()
            .filter(|f| f.param == FpgaParam::Area && !f.model.is_asic_regression())
            .map(|f| f.fidelity)
            .fold(0.0f64, f64::max);
        assert!(best > 0.75, "best area fidelity only {best}");
    }

    #[test]
    fn top_models_are_sorted_and_filtered() {
        let (_, zoo) = small_zoo();
        let top = zoo.top_models(FpgaParam::Area, 3, false);
        assert_eq!(top.len(), 3);
        assert!(top.iter().all(|m| !m.is_asic_regression()));
        let fid_of = |m: MlModelId| zoo.fidelity(m, FpgaParam::Area).unwrap().fidelity;
        assert!(fid_of(top[0]) >= fid_of(top[1]));
        assert!(fid_of(top[1]) >= fid_of(top[2]));
    }

    #[test]
    fn best_asic_regression_is_one_of_ml1_to_ml3() {
        let (_, zoo) = small_zoo();
        let best = zoo.best_asic_regression(FpgaParam::Power).unwrap();
        assert!(best.is_asic_regression());
    }

    #[test]
    fn tuned_zoo_never_scores_below_untuned() {
        let lib = build_library(&LibrarySpec::new(ArithKind::Adder, 8, 70));
        let records = characterize_library(
            &lib,
            &afp_asic::AsicConfig::default(),
            &afp_fpga::FpgaConfig::default(),
            &afp_error::ErrorConfig::default(),
        );
        let subset = sample_subset(records.len(), 0.6, 30, 2);
        let (train, val) = train_validate_split(&subset, 0.8, 2);
        let models = [
            MlModelId::Ml10,
            MlModelId::Ml14,
            MlModelId::Ml16,
            MlModelId::Ml18,
        ];
        let base = train_zoo(&records, &train, &val, &models, 0.01);
        let (tuned, labels) = train_zoo_tuned(&records, &train, &val, &models, 0.01);
        assert_eq!(labels.len(), models.len() * FpgaParam::ALL.len());
        for f_base in &base.fidelities {
            let f_tuned = tuned
                .fidelity(f_base.model, f_base.param)
                .expect("same grid");
            // The default config is in every grid, so tuning can't lose.
            assert!(
                f_tuned.fidelity >= f_base.fidelity - 1e-12,
                "{} {:?}: tuned {} < untuned {}",
                f_base.model,
                f_base.param,
                f_tuned.fidelity,
                f_base.fidelity
            );
        }
        // Labels refer to real grid entries.
        for ((id, _), label) in &labels {
            let grid = afp_ml::tuning::hyper_grid(*id, tuned.layout().asic_columns());
            assert!(grid.iter().any(|c| &c.label == label), "{id}: {label}");
        }
    }

    fn hand_zoo(fids: &[(MlModelId, f64)]) -> TrainedZoo {
        TrainedZoo {
            layout: FeatureLayout::standard(),
            models: Vec::new(),
            fidelities: fids
                .iter()
                .map(|&(model, fidelity)| FidelityRecord {
                    model,
                    param: FpgaParam::Area,
                    fidelity,
                    r2: 0.0,
                    mae: 0.0,
                    pearson: 0.0,
                })
                .collect(),
        }
    }

    #[test]
    fn nan_fidelity_ranks_last_not_top() {
        let zoo = hand_zoo(&[
            (MlModelId::Ml1, f64::NAN),
            (MlModelId::Ml2, 0.4),
            (MlModelId::Ml3, 0.9),
            (MlModelId::Ml11, f64::NAN),
            (MlModelId::Ml14, 0.7),
            (MlModelId::Ml18, 0.8),
        ]);
        // The planted NaN row must not float into the top-k.
        assert_eq!(
            zoo.top_models(FpgaParam::Area, 2, false),
            vec![MlModelId::Ml18, MlModelId::Ml14]
        );
        // With k spanning everything, NaN sits strictly last.
        assert_eq!(
            zoo.top_models(FpgaParam::Area, 10, false),
            vec![MlModelId::Ml18, MlModelId::Ml14, MlModelId::Ml11]
        );
        // A NaN ASIC-regression fidelity never wins the ML1–ML3 slot.
        assert_eq!(
            zoo.best_asic_regression(FpgaParam::Area),
            Some(MlModelId::Ml3)
        );
        assert_eq!(
            zoo.ranked_asic_regressions(FpgaParam::Area),
            vec![MlModelId::Ml3, MlModelId::Ml2, MlModelId::Ml1]
        );
        // No rows at all for another parameter.
        assert_eq!(zoo.best_asic_regression(FpgaParam::Power), None);
        assert!(zoo.fidelity(MlModelId::Ml3, FpgaParam::Power).is_none());
        assert_eq!(
            zoo.fidelity(MlModelId::Ml14, FpgaParam::Area)
                .map(|f| f.fidelity),
            Some(0.7)
        );
    }

    #[test]
    fn ranked_asic_regressions_head_matches_best_on_ties() {
        let zoo = hand_zoo(&[
            (MlModelId::Ml1, 0.5),
            (MlModelId::Ml2, 0.5),
            (MlModelId::Ml3, 0.5),
        ]);
        let best = zoo.best_asic_regression(FpgaParam::Area).unwrap();
        let ranked = zoo.ranked_asic_regressions(FpgaParam::Area);
        assert_eq!(ranked[0], best);
        assert_eq!(ranked.len(), 3);
    }

    #[test]
    fn all_nan_fidelities_still_rank_totally() {
        let zoo = hand_zoo(&[(MlModelId::Ml11, f64::NAN), (MlModelId::Ml14, f64::NAN)]);
        // No panic, deterministic order (stable sort keeps row order).
        assert_eq!(
            zoo.top_models(FpgaParam::Area, 5, false),
            vec![MlModelId::Ml11, MlModelId::Ml14]
        );
    }

    #[test]
    fn the_memo_key_covers_every_training_input_and_nothing_else() {
        let lib = build_library(&LibrarySpec::new(ArithKind::Adder, 8, 60));
        let mut records = characterize_library(
            &lib,
            &afp_asic::AsicConfig::default(),
            &afp_fpga::FpgaConfig::default(),
            &afp_error::ErrorConfig::default(),
        );
        let subset = sample_subset(records.len(), 0.4, 20, 3);
        let (train, val) = train_validate_split(&subset, 0.8, 3);
        let models = [MlModelId::Ml1, MlModelId::Ml16];
        let cov = [(ArithKind::Adder, 8)];
        let key = |records: &[CircuitRecord]| {
            TrainingSet::new(records, &train, &val, |i| records[i].fpga)
                .memo_key(1, &models, false, 0.01, "t", &cov)
                .expect("every Table I model saves its unfitted state")
        };
        let set = TrainingSet::new(&records, &train, &val, |i| records[i].fpga);
        let base = key(&records);
        assert_eq!(base, key(&records), "the key is deterministic");
        let variants = [
            set.memo_key(2, &models, false, 0.01, "t", &cov),
            set.memo_key(1, &models[..1], false, 0.01, "t", &cov),
            set.memo_key(1, &[models[1], models[0]], false, 0.01, "t", &cov),
            set.memo_key(1, &models, true, 0.01, "t", &cov),
            set.memo_key(1, &models, false, 0.02, "t", &cov),
            set.memo_key(1, &models, false, 0.01, "u", &cov),
            set.memo_key(1, &models, false, 0.01, "t", &[(ArithKind::Adder, 16)]),
        ];
        for (i, variant) in variants.iter().enumerate() {
            assert_ne!(variant.unwrap(), base, "variant {i}");
        }
        // One bit of one feature of one training row, and one bit of one
        // validation target, each change the key.
        let mut flipped = records.clone();
        let area = &mut flipped[train[0]].asic.area_um2;
        *area = f64::from_bits(area.to_bits() ^ 1);
        assert_ne!(key(&flipped), base);
        let mut flipped = records.clone();
        let delay = &mut flipped[val[0]].fpga.delay_ns;
        *delay = f64::from_bits(delay.to_bits() ^ 1);
        assert_ne!(key(&flipped), base);
        // A record outside the split is not a training input.
        let outside = (0..records.len()).find(|i| !subset.contains(i)).unwrap();
        records[outside].asic.area_um2 += 1.0;
        assert_eq!(key(&records), base);
    }

    #[test]
    fn a_trained_zoo_reproduces_itself_and_nothing_else() {
        let lib = build_library(&LibrarySpec::new(ArithKind::Adder, 8, 60));
        let records = characterize_library(
            &lib,
            &afp_asic::AsicConfig::default(),
            &afp_fpga::FpgaConfig::default(),
            &afp_error::ErrorConfig::default(),
        );
        let subset = sample_subset(records.len(), 0.4, 20, 3);
        let (train, val) = train_validate_split(&subset, 0.8, 3);
        let models = [MlModelId::Ml1, MlModelId::Ml16];
        let set = TrainingSet::new(&records, &train, &val, |i| records[i].fpga);
        let rt = Runtime::serial();
        let zoo = set
            .train(&models, false, 0.01, &rt, &Recorder::disabled())
            .0;
        assert!(set.reproduces(&zoo, &models, 0.01));
        assert!(!set.reproduces(&zoo, &models[..1], 0.01));
        let mut stale = set
            .train(&models, false, 0.01, &rt, &Recorder::disabled())
            .0;
        stale.fidelities[1].mae = f64::from_bits(stale.fidelities[1].mae.to_bits() ^ 1);
        assert!(!set.reproduces(&stale, &models, 0.01));
        let other = TrainingSet::new(&records, &val, &train, |i| records[i].fpga);
        assert!(!other.reproduces(&zoo, &models, 0.01));
    }

    #[test]
    fn estimates_correlate_with_truth() {
        let (records, zoo) = small_zoo();
        let est = zoo.estimate_all(MlModelId::Ml18, FpgaParam::Area, &records);
        let truth: Vec<f64> = records
            .iter()
            .map(|r| r.fpga_param(FpgaParam::Area))
            .collect();
        assert!(afp_ml::metrics::pearson(&est, &truth) > 0.7);
    }
}
