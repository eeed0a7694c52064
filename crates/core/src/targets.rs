//! Cross-fabric exploration: per-target flow sweeps and the Xel-FPGAs
//! transfer experiment.
//!
//! The paper shows that cost rankings shift between an ASIC fabric and a
//! LUT-6 FPGA; its follow-up (Xel-FPGAs) asks the same question *between*
//! FPGA platforms. This module operationalizes both:
//!
//! * [`TargetSet`] + [`sweep_targets`] run the full methodology once per
//!   named device profile (characterize → train → estimate → peel →
//!   pareto), producing one [`FlowOutcome`] per fabric whose records all
//!   carry their target identity.
//! * [`transfer_matrix`] scores, for every (train, eval) pair of one
//!   sweep, the zoo and candidates of the train target's run against the
//!   eval target's ground truth — reporting how much estimation fidelity
//!   and pareto coverage degrade under a retarget. The diagonal is the
//!   native (train = eval) quality; the off-diagonal cells answer "does
//!   the pareto front survive a move from fabric A to fabric B?".
//!
//! Everything here is deterministic for a fixed configuration: both run
//! the flow's thread-invariant stages, which derive all sampling from
//! the base seed.

use std::collections::{BTreeMap, BTreeSet};
use std::io;

use afp_circuits::LibrarySource;
pub use afp_fpga::target::UnknownTargetError;
use afp_fpga::target::{registry, resolve, TargetProfile};
use afp_ml::metrics::fidelity;

use crate::flow::{Flow, FlowConfig, FlowOutcome};
use crate::pareto::measured_front;
use crate::record::FpgaParam;

/// A validated, ordered set of device profiles to sweep.
#[derive(Clone, Debug)]
pub struct TargetSet {
    profiles: Vec<&'static TargetProfile>,
}

impl TargetSet {
    /// Every registry profile, in registry order.
    pub fn all() -> TargetSet {
        TargetSet {
            profiles: registry().iter().collect(),
        }
    }

    /// Resolve `names` against the registry, preserving order.
    pub fn from_names<S: AsRef<str>>(names: &[S]) -> Result<TargetSet, UnknownTargetError> {
        let profiles = names
            .iter()
            .map(|name| resolve(name.as_ref()))
            .collect::<Result<_, _>>()?;
        Ok(TargetSet { profiles })
    }

    /// The resolved profiles, in sweep order.
    pub fn profiles(&self) -> &[&'static TargetProfile] {
        &self.profiles
    }

    /// Number of targets in the set.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

/// One target's completed flow inside a sweep.
pub struct TargetRun {
    /// Registry name of the device profile.
    pub target: String,
    /// The full methodology outcome on that fabric.
    pub outcome: FlowOutcome,
}

/// Run the full methodology on `source` once per profile in `set`,
/// returning one [`TargetRun`] per profile, in sweep order.
///
/// Each run clones `base`, retargets its FPGA configuration through
/// [`TargetProfile::apply`] (architecture, clock and jitter change;
/// cut budget, activity passes, seed and pruning are preserved) and runs
/// a fresh [`Flow`]. Characterization-cache keys include the target
/// identity, so per-target entries never collide even across sweeps
/// sharing one cache directory. An unusable `cache_dir` or a stored
/// `source` that cannot be streamed is an `Err`, as in [`Flow::try_new`].
pub fn sweep_targets(
    base: &FlowConfig,
    source: &LibrarySource,
    set: &TargetSet,
) -> io::Result<Vec<TargetRun>> {
    set.profiles()
        .iter()
        .map(|profile| {
            let config = FlowConfig {
                fpga: profile.apply(&base.fpga),
                ..base.clone()
            };
            Ok(TargetRun {
                target: profile.name.to_string(),
                outcome: Flow::try_new(config)?.run_source(source)?,
            })
        })
        .collect()
}

/// One cell of [`transfer_matrix`]: the zoo trained on `train_target`'s
/// subset, evaluated against `eval_target`'s ground truth.
#[derive(Clone, Debug)]
pub struct TransferOutcome {
    /// Target whose synthesized subset trained the zoo.
    pub train_target: String,
    /// Target whose ground truth evaluated the estimates.
    pub eval_target: String,
    /// Fidelity (paper Eq. 1) of the best model's whole-library estimates
    /// against the evaluation target's ground truth, per parameter.
    pub fidelity: BTreeMap<FpgaParam, f64>,
    /// Pareto coverage of the evaluation target's true front by the
    /// candidates peeled from the train-target zoo's estimates, per
    /// parameter.
    pub coverage: BTreeMap<FpgaParam, f64>,
    /// Number of candidate circuits the transferred flow would
    /// re-synthesize on the evaluation target (union over parameters).
    pub candidates: usize,
}

impl TransferOutcome {
    /// Mean estimation fidelity across parameters.
    pub fn mean_fidelity(&self) -> f64 {
        mean(self.fidelity.values())
    }

    /// Mean pareto coverage across parameters.
    pub fn mean_coverage(&self) -> f64 {
        mean(self.coverage.values())
    }
}

fn mean<'a>(values: impl Iterator<Item = &'a f64>) -> f64 {
    let v: Vec<f64> = values.copied().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Every (train, eval) pair over `set`, in row-major sweep order — the
/// full cross-target coverage matrix.
///
/// One [`sweep_targets`] runs the flow once per fabric; each cell then
/// moves the train run's method onto the eval run's fabric. With
/// `train == eval` a cell is the native quality (the diagonal); the
/// degradation of off-diagonal cells is the Xel-FPGAs question.
pub fn transfer_matrix(
    base: &FlowConfig,
    source: &LibrarySource,
    set: &TargetSet,
) -> io::Result<Vec<TransferOutcome>> {
    let runs = sweep_targets(base, source, set)?;
    let mut cells = Vec::with_capacity(runs.len() * runs.len());
    for train in &runs {
        for eval in &runs {
            cells.push(transfer_cell(train, eval, base.fidelity_tolerance));
        }
    }
    Ok(cells)
}

/// Score `train`'s method against `eval`'s fabric. The zoo, subset and
/// candidates are the train run's: its selection happened entirely in
/// estimate space, so it is exactly what the flow would re-synthesize
/// on the new fabric. The cell scores the best model's whole-library
/// fidelity against the eval fabric's ground truth, and the coverage of
/// the eval fabric's true pareto front by what the transferred flow
/// would have measured there (the subset it already paid for plus the
/// candidates).
fn transfer_cell(train: &TargetRun, eval: &TargetRun, tolerance: f64) -> TransferOutcome {
    let (method, truth) = (&train.outcome, &eval.outcome);
    let mut fid = BTreeMap::new();
    let mut cov = BTreeMap::new();
    for &param in &FpgaParam::ALL {
        let eval_points = truth.points(param);
        if let Some(&best) = method.selected_models[&param].first() {
            let est = method.zoo.estimate_all(best, param, &method.records);
            let truth_eval: Vec<f64> = eval_points.iter().map(|&(cost, _)| cost).collect();
            fid.insert(param, fidelity(&est, &truth_eval, tolerance));
        }
        let mut synthesized: BTreeSet<usize> = method.subset.iter().copied().collect();
        synthesized.extend(&method.candidates[&param]);
        cov.insert(param, measured_front(&eval_points, &synthesized).coverage);
    }
    let union: BTreeSet<&usize> = method.candidates.values().flatten().collect();
    TransferOutcome {
        train_target: train.target.clone(),
        eval_target: eval.target.clone(),
        fidelity: fid,
        coverage: cov,
        candidates: union.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuits::{ArithKind, LibrarySpec};
    use afp_ml::MlModelId;

    fn tiny_source() -> LibrarySource {
        LibrarySource::Generated(LibrarySpec::new(ArithKind::Adder, 8, 70))
    }

    fn tiny_config() -> FlowConfig {
        FlowConfig {
            min_subset: 24,
            models: vec![
                MlModelId::Ml4,
                MlModelId::Ml11,
                MlModelId::Ml13,
                MlModelId::Ml18,
            ],
            ..FlowConfig::default()
        }
    }

    #[test]
    fn target_set_resolves_and_rejects() {
        let all = TargetSet::all();
        assert!(all.len() >= 4);
        assert!(!all.is_empty());
        let two = TargetSet::from_names(&["lut4-ice40", "alm-stratix"]).unwrap();
        assert_eq!(two.len(), 2);
        assert_eq!(two.profiles()[0].name, "lut4-ice40");
        let err = TargetSet::from_names(&["lut5-nope"]).unwrap_err();
        assert_eq!(err.name, "lut5-nope");
        assert!(err.to_string().contains("lut6-7series"), "{err}");
    }

    #[test]
    fn sweep_produces_per_target_outcomes_with_identities() {
        let set = TargetSet::from_names(&["lut6-7series", "lut4-ice40"]).unwrap();
        let runs = sweep_targets(&tiny_config(), &tiny_source(), &set).unwrap();
        assert_eq!(runs.len(), 2);
        for run in &runs {
            assert!(run.outcome.records.iter().all(|r| r.target == run.target));
            for (&param, &c) in &run.outcome.coverage {
                assert!((0.0..=1.0).contains(&c), "{}/{param:?}: {c}", run.target);
            }
        }
        // The fabrics genuinely differ: ground-truth LUT counts diverge
        // (K=6 absorbs more logic per LUT than K=4).
        let luts =
            |run: &TargetRun| -> usize { run.outcome.records.iter().map(|r| r.fpga.luts).sum() };
        assert!(
            luts(&runs[1]) > luts(&runs[0]),
            "LUT-4 should need more LUTs than LUT-6"
        );
        assert_eq!(runs[0].target, "lut6-7series");
    }

    #[test]
    fn native_transfer_matches_itself_and_is_deterministic() {
        let set = TargetSet::from_names(&["lut6-7series"]).unwrap();
        let matrix = || transfer_matrix(&tiny_config(), &tiny_source(), &set).unwrap();
        let (cells, again) = (matrix(), matrix());
        assert_eq!(cells.len(), 1);
        let (a, b) = (&cells[0], &again[0]);
        assert_eq!(
            (a.train_target.as_str(), a.eval_target.as_str()),
            ("lut6-7series", "lut6-7series")
        );
        assert_eq!(a.fidelity, b.fidelity);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.candidates, b.candidates);
        for (&param, &f) in &a.fidelity {
            assert!((0.0..=1.0).contains(&f), "{param:?}: fidelity {f}");
        }
        for (&param, &c) in &a.coverage {
            assert!((0.0..=1.0).contains(&c), "{param:?}: coverage {c}");
        }
        assert!(a.candidates > 0);
        // A competent zoo on a small adder library recovers a meaningful
        // share of its own front.
        assert!(
            a.mean_coverage() > 0.3,
            "native coverage {}",
            a.mean_coverage()
        );
    }
}
