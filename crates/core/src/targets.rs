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
//! * [`transfer_experiment`] trains the model zoo on one target's
//!   synthesized subset and evaluates its estimates against *another*
//!   target's ground truth — reporting how much estimation fidelity and
//!   pareto coverage degrade under a retarget. The diagonal of
//!   [`transfer_matrix`] is the native (train = eval) quality; the
//!   off-diagonal cells answer "does the pareto front survive a move
//!   from fabric A to fabric B?".
//!
//! Everything here is deterministic for a fixed configuration: sweeps
//! reuse the flow's thread-invariant stages, and the transfer experiment
//! derives all sampling from the base seed.

use std::collections::{BTreeMap, BTreeSet};

use afp_circuits::{build_library_with, LibrarySource};
pub use afp_fpga::target::UnknownTargetError;
use afp_fpga::target::{registry, resolve, TargetProfile};
use afp_ml::metrics::fidelity;
use afp_runtime::Runtime;

use crate::dataset::{characterize_library_with, sample_subset, train_validate_split};
use crate::fidelity::train_zoo_with;
use crate::flow::{select, Flow, FlowConfig, FlowOutcome};
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

/// Result of [`sweep_targets`]: one flow outcome per device profile.
pub struct TargetSweep {
    /// Per-target runs, in sweep order.
    pub runs: Vec<TargetRun>,
}

impl TargetSweep {
    /// Per-target mean pareto coverage, in sweep order.
    pub fn mean_coverages(&self) -> Vec<(String, f64)> {
        self.runs
            .iter()
            .map(|r| (r.target.clone(), r.outcome.mean_coverage()))
            .collect()
    }
}

/// Run the full methodology once per profile in `set`.
///
/// Each run clones `base`, retargets its FPGA configuration through
/// [`TargetProfile::apply`] (architecture, clock and jitter change;
/// cut budget, activity passes, seed and pruning are preserved) and runs
/// a fresh [`Flow`]. Characterization-cache keys include the target
/// identity, so per-target entries never collide even across sweeps
/// sharing one cache directory.
pub fn sweep_targets(base: &FlowConfig, set: &TargetSet) -> TargetSweep {
    let runs = set
        .profiles()
        .iter()
        .map(|profile| {
            let config = FlowConfig {
                fpga: profile.apply(&base.fpga),
                ..base.clone()
            };
            let source = LibrarySource::Generated(config.library.clone());
            TargetRun {
                target: profile.name.to_string(),
                outcome: Flow::new(config)
                    .run_source(&source)
                    .expect("generated libraries cannot fail to stream"),
            }
        })
        .collect();
    TargetSweep { runs }
}

/// Result of one [`transfer_experiment`] cell: the zoo trained on
/// `train_target`'s subset, evaluated against `eval_target`'s ground
/// truth.
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

/// Train the zoo on `train_target`, evaluate against `eval_target`.
///
/// The experiment mirrors the flow's estimation stage under a retarget:
///
/// 1. characterize the library for both targets (same circuits, two
///    FPGA ground truths; ASIC and error metrics are fabric-independent),
/// 2. sample the base configuration's subset and train the zoo on the
///    *train* target's reports,
/// 3. run the flow's selection stage (top models, estimate quarantine,
///    `base.fronts` pseudo-pareto fronts; no ASIC-regression slot) —
///    exactly what the flow would re-synthesize on the new fabric,
/// 4. score the transfer: best-model fidelity against the *eval* target's
///    ground truth, and coverage of the eval target's true pareto front
///    by the candidates (evaluated at the eval target's cost points).
///
/// With `train_target == eval_target` this is the native quality
/// (the matrix diagonal); the degradation of off-diagonal cells is the
/// Xel-FPGAs question.
pub fn transfer_experiment(
    base: &FlowConfig,
    train_target: &str,
    eval_target: &str,
) -> Result<TransferOutcome, UnknownTargetError> {
    let train_profile = resolve(train_target)?;
    let eval_profile = resolve(eval_target)?;
    let rt = Runtime::new(base.threads);
    let library = build_library_with(&base.library, &rt);
    let characterize = |profile: &TargetProfile| {
        characterize_library_with(
            &library,
            &base.asic,
            &profile.apply(&base.fpga),
            &base.error,
            &rt,
            None,
        )
    };
    let train_records = characterize(train_profile);
    let eval_records = if train_target == eval_target {
        train_records.clone()
    } else {
        characterize(eval_profile)
    };

    let n = train_records.len();
    let subset = sample_subset(n, base.subset_fraction, base.min_subset, base.seed);
    let (train, validate) = train_validate_split(&subset, base.train_fraction, base.seed);
    let zoo = train_zoo_with(
        &train_records,
        &train,
        &validate,
        &base.models,
        base.fidelity_tolerance,
        &rt,
        &afp_obs::Recorder::disabled(),
    );

    // Candidate selection happens entirely in estimate space — the
    // transferred flow has not synthesized anything on the eval fabric
    // yet.
    let selection = select(
        &zoo,
        &train_records,
        base.fronts,
        base.top_models,
        0,
        &rt,
        &afp_obs::Recorder::disabled(),
    );
    let mut fid = BTreeMap::new();
    let mut cov = BTreeMap::new();
    for &param in &FpgaParam::ALL {
        let truth_eval: Vec<f64> = eval_records.iter().map(|r| r.fpga_param(param)).collect();
        if let Some(&best) = selection.selected_models[&param].first() {
            let est = zoo.estimate_all(best, param, &train_records);
            fid.insert(param, fidelity(&est, &truth_eval, base.fidelity_tolerance));
        }
        // Score on the eval fabric: the front the flow would measure
        // after re-synthesizing the candidates (plus the subset it
        // already paid for) on the new target.
        let mut synthesized: BTreeSet<usize> = subset.iter().copied().collect();
        synthesized.extend(&selection.candidates[&param]);
        let eval_points: Vec<(f64, f64)> = eval_records
            .iter()
            .map(|r| (r.fpga_param(param), r.error.med))
            .collect();
        cov.insert(param, measured_front(&eval_points, &synthesized).coverage);
    }
    let union: BTreeSet<usize> = selection.candidates.into_values().flatten().collect();

    Ok(TransferOutcome {
        train_target: train_target.to_string(),
        eval_target: eval_target.to_string(),
        fidelity: fid,
        coverage: cov,
        candidates: union.len(),
    })
}

/// Every (train, eval) pair over `set`, in row-major sweep order — the
/// full cross-target coverage matrix.
pub fn transfer_matrix(
    base: &FlowConfig,
    set: &TargetSet,
) -> Result<Vec<TransferOutcome>, UnknownTargetError> {
    let mut cells = Vec::with_capacity(set.len() * set.len());
    for train in set.profiles() {
        for eval in set.profiles() {
            cells.push(transfer_experiment(base, train.name, eval.name)?);
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuits::{ArithKind, LibrarySpec};
    use afp_ml::MlModelId;

    fn tiny_config() -> FlowConfig {
        FlowConfig {
            library: LibrarySpec::new(ArithKind::Adder, 8, 70),
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
        let sweep = sweep_targets(&tiny_config(), &set);
        assert_eq!(sweep.runs.len(), 2);
        for run in &sweep.runs {
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
            luts(&sweep.runs[1]) > luts(&sweep.runs[0]),
            "LUT-4 should need more LUTs than LUT-6"
        );
        let covs = sweep.mean_coverages();
        assert_eq!(covs[0].0, "lut6-7series");
        assert_eq!(covs[0].1, sweep.runs[0].outcome.mean_coverage());
    }

    #[test]
    fn native_transfer_matches_itself_and_is_deterministic() {
        let base = tiny_config();
        let a = transfer_experiment(&base, "lut6-7series", "lut6-7series").unwrap();
        let b = transfer_experiment(&base, "lut6-7series", "lut6-7series").unwrap();
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

    #[test]
    fn transfer_rejects_unknown_targets() {
        let base = tiny_config();
        assert!(transfer_experiment(&base, "nope", "lut4-ice40").is_err());
        assert!(transfer_experiment(&base, "lut4-ice40", "nope").is_err());
    }
}
