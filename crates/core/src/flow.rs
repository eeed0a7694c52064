//! End-to-end orchestration of the ApproxFPGAs methodology, with the
//! exploration-time accounting behind Fig. 3.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use afp_circuits::{build_library_with, ArithCircuit, LibrarySource};
use afp_fpga::FpgaReport;
use afp_ml::chaos::ChaosConfig;
use afp_ml::MlModelId;
use afp_obs::Recorder;
use afp_runtime::{CounterSnapshot, Counters, Runtime};

use crate::cache::CharacterizationCache;
use crate::dataset::{characterize_shards_traced, sample_subset, train_validate_split};
use crate::fidelity::{TrainedZoo, TrainingSet};
use crate::oracle::FpgaOracle;
use crate::pareto::{measured_front, pseudo_pareto, PseudoPareto};
use crate::record::{CircuitRecord, FpgaParam};
use crate::zoo_store::{load_memo, save_memo, ZOO_MEMO_VERSION};

/// Default [`FlowConfig::shard_circuits`]: large enough to keep the
/// work-stealing pool saturated, small enough that a paper-full corpus
/// never has more than ~2% of its circuits resident.
pub const DEFAULT_SHARD_CIRCUITS: usize = 1024;

/// Configuration of one flow run.
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Fraction of the library synthesized as the training/validation
    /// subset (the paper uses 10%).
    pub subset_fraction: f64,
    /// Minimum subset size (small libraries still need enough samples).
    pub min_subset: usize,
    /// Train share of the subset (the paper uses 80%).
    pub train_fraction: f64,
    /// Number of pseudo-pareto fronts to peel (the paper evaluates 1–3).
    pub fronts: usize,
    /// How many top models (by validation fidelity) estimate each
    /// parameter (the paper uses the top-3).
    pub top_models: usize,
    /// Also include the best plain ASIC-regression model (ML1–ML3) in the
    /// union, as Fig. 7 does for comparison.
    pub include_asic_regression: bool,
    /// Which models compete (default: all 18).
    pub models: Vec<MlModelId>,
    /// Run the Fig. 2 hyperparameter-modification loop: train each model
    /// once per grid configuration and keep the best by validation
    /// fidelity (slower; default off — the defaults are already tuned).
    pub tune_models: bool,
    /// Relative tolerance used by the fidelity pair comparison.
    pub fidelity_tolerance: f64,
    /// Worker threads for the parallel stages (0 = one per available
    /// core). Results are bit-identical for any thread count.
    pub threads: usize,
    /// Circuits per shard when streaming a stored corpus through
    /// [`Flow::run_source`] (default [`DEFAULT_SHARD_CIRCUITS`]; 0 = the
    /// whole corpus as one shard, as [`LibrarySource::shards`] defines
    /// it). Smaller shards lower peak circuit residency; normalized
    /// outcomes are bit-identical for any shard size.
    pub shard_circuits: usize,
    /// Memoize characterization results keyed by circuit structure and
    /// configuration (default on; repeated circuits and repeated runs of
    /// one [`Flow`] skip synthesis entirely).
    pub use_cache: bool,
    /// Persist the characterization cache (`characterization.afps`) and
    /// the zoo memos (`zoo-<training key>.afpm`) under `cache_dir`, so
    /// hits survive across processes. `None` keeps the cache in memory.
    pub cache_dir: Option<PathBuf>,
    /// Master seed for sampling/splitting.
    pub seed: u64,
    /// Fault injection for the numeric-robustness harness: corrupt model
    /// *estimates* (never training or ground truth) with NaN/inf/huge
    /// values. `None` (the default) disables injection entirely.
    pub chaos: Option<ChaosSpec>,
    /// ASIC synthesis model configuration.
    pub asic: afp_asic::AsicConfig,
    /// FPGA synthesis model configuration.
    pub fpga: afp_fpga::FpgaConfig,
    /// Error analysis configuration.
    pub error: afp_error::ErrorConfig,
}

/// Fault-injection specification for a flow run (see
/// [`afp_ml::chaos::ChaosRegressor`]). Injection is a pure function of
/// the feature row and seed, so chaos runs stay bit-identical across
/// thread counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosSpec {
    /// Rate, seed and corruption kind.
    pub config: ChaosConfig,
    /// Restrict injection to one `(model, parameter)` pair; `None`
    /// corrupts every trained model.
    pub only: Option<(MlModelId, FpgaParam)>,
}

impl ChaosSpec {
    /// Mixed-kind injection of every model at `rate` with `seed`.
    pub fn mixed(rate: f64, seed: u64) -> ChaosSpec {
        ChaosSpec {
            config: ChaosConfig::new(rate, seed),
            only: None,
        }
    }
}

impl Default for FlowConfig {
    fn default() -> FlowConfig {
        FlowConfig {
            subset_fraction: 0.10,
            min_subset: 40,
            train_fraction: 0.80,
            fronts: 3,
            top_models: 3,
            include_asic_regression: false,
            models: MlModelId::ALL.to_vec(),
            tune_models: false,
            fidelity_tolerance: 0.01,
            threads: 0,
            shard_circuits: DEFAULT_SHARD_CIRCUITS,
            use_cache: true,
            cache_dir: None,
            seed: 0xDAC_2020,
            chaos: None,
            asic: afp_asic::AsicConfig::default(),
            fpga: afp_fpga::FpgaConfig::default(),
            error: afp_error::ErrorConfig::default(),
        }
    }
}

/// Exploration-time bookkeeping (modeled synthesis seconds).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeAccounting {
    /// Time to synthesize the whole library exhaustively.
    pub exhaustive_s: f64,
    /// Time the flow spent synthesizing the training/validation subset.
    pub subset_s: f64,
    /// Time the flow spent re-synthesizing pseudo-pareto candidates.
    pub candidates_s: f64,
    /// Modeled model-training + estimation time (seconds; small).
    pub ml_s: f64,
    /// Circuits synthesized exhaustively (= library size).
    pub exhaustive_count: usize,
    /// Circuits the flow synthesized (subset + candidates).
    pub flow_count: usize,
}

impl TimeAccounting {
    /// Total flow exploration time in seconds.
    pub fn flow_s(&self) -> f64 {
        self.subset_s + self.candidates_s + self.ml_s
    }

    /// Exhaustive / flow speed-up factor.
    ///
    /// `None` when the flow time is zero (e.g. a fully warm-cache run of
    /// an empty model set): the ratio is undefined, and reports render it
    /// as `--` instead of `inf`/`NaN`.
    pub fn speedup(&self) -> Option<f64> {
        let flow = self.flow_s();
        if flow > 0.0 && self.exhaustive_s.is_finite() {
            Some(self.exhaustive_s / flow)
        } else {
            None
        }
    }

    /// Synthesized-circuit reduction factor (the paper's ~9.9x).
    ///
    /// `None` when the flow synthesized nothing — the ratio is undefined
    /// rather than infinite.
    pub fn synth_reduction(&self) -> Option<f64> {
        if self.flow_count > 0 {
            Some(self.exhaustive_count as f64 / self.flow_count as f64)
        } else {
            None
        }
    }
}

/// Result of a flow run.
pub struct FlowOutcome {
    /// Every library circuit, fully characterized. The FPGA halves are
    /// ground truth the method saw only for `synthesized`; the scoring
    /// step rejoins the rest after the method is done.
    pub records: Vec<CircuitRecord>,
    /// Indices of the synthesized subset.
    pub subset: Vec<usize>,
    /// Subset split used for training.
    pub train: Vec<usize>,
    /// Subset split used for validation.
    pub validate: Vec<usize>,
    /// The trained model zoo with validation fidelities.
    pub zoo: TrainedZoo,
    /// Models selected per parameter (top-k by fidelity, after estimate
    /// quarantine: a model whose estimates were all non-finite is dropped
    /// and the next-best fidelity model promoted in its place).
    pub selected_models: BTreeMap<FpgaParam, Vec<MlModelId>>,
    /// Models dropped by the quarantine stage per parameter (every
    /// estimate non-finite), in the order they were tried.
    pub dropped_models: BTreeMap<FpgaParam, Vec<MlModelId>>,
    /// Union of pseudo-pareto candidate indices per parameter.
    pub candidates: BTreeMap<FpgaParam, Vec<usize>>,
    /// Every index the flow synthesized (subset ∪ all candidates): the
    /// FPGA oracle's call log, so the method read no other FPGA report.
    pub synthesized: BTreeSet<usize>,
    /// Measured pareto front per parameter, computed over synthesized
    /// circuits only (what the flow can see).
    pub final_fronts: BTreeMap<FpgaParam, Vec<usize>>,
    /// Ground-truth pareto front per parameter over the whole library.
    pub true_fronts: BTreeMap<FpgaParam, Vec<usize>>,
    /// Pareto coverage per parameter (the paper reports ~71% on average).
    pub coverage: BTreeMap<FpgaParam, f64>,
    /// Exploration-time accounting.
    pub time: TimeAccounting,
    /// Runtime counters for this run: tasks executed, steals, cache
    /// hits/misses, synthesis counts and bytes simulated. `steals` is the
    /// only non-deterministic field; everything else is thread-invariant.
    pub runtime: CounterSnapshot,
    /// The last cache disk-append failure message, `None` when every
    /// entry persisted cleanly. Pairs with `runtime.cache_write_errors`:
    /// the count says the warm tier is degraded, this says why.
    pub cache_last_error: Option<String>,
}

impl FlowOutcome {
    /// Mean pareto coverage across parameters.
    pub fn mean_coverage(&self) -> f64 {
        if self.coverage.is_empty() {
            return 0.0;
        }
        self.coverage.values().sum::<f64>() / self.coverage.len() as f64
    }

    /// The `(cost, error)` points of the library for `param` (cost =
    /// ground-truth FPGA parameter, error = MED).
    pub fn points(&self, param: FpgaParam) -> Vec<(f64, f64)> {
        self.records
            .iter()
            .map(|r| (r.fpga_param(param), r.error.med))
            .collect()
    }
}

/// The ApproxFPGAs flow runner.
pub struct Flow {
    config: FlowConfig,
    cache: Option<CharacterizationCache>,
}

impl Flow {
    /// [`Flow::try_new`] for a config whose cache directory must work.
    ///
    /// # Panics
    ///
    /// If `use_cache` is set and `cache_dir` cannot be opened.
    pub fn new(config: FlowConfig) -> Flow {
        Flow::try_new(config).expect("cannot open the flow's cache_dir")
    }

    /// Create a flow with `config`. If caching is enabled, the cache lives
    /// as long as the `Flow` — repeated runs on the same instance hit it.
    /// A `cache_dir` that cannot be created or opened is an error, never a
    /// silent fall-back to a memory-only cache.
    pub fn try_new(config: FlowConfig) -> std::io::Result<Flow> {
        let cache = match (config.use_cache, &config.cache_dir) {
            (false, _) => None,
            (true, Some(dir)) => Some(CharacterizationCache::try_with_disk(dir)?),
            (true, None) => Some(CharacterizationCache::in_memory()),
        };
        Ok(Flow { config, cache })
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Run the full methodology (see the crate docs for the pipeline) on
    /// a library obtained from `source`.
    ///
    /// `source` is the one place a run's circuits are named.
    /// [`LibrarySource::Generated`] builds the library in process as one
    /// resident shard.
    /// [`LibrarySource::Stored`] streams the corpus shard-at-a-time
    /// ([`FlowConfig::shard_circuits`] circuits per shard), keeping only
    /// one shard plus the surviving records resident. Normalized outcomes
    /// are bit-identical for any source, shard size and thread count. A
    /// missing, foreign-version, or torn corpus is an `Err` — never a
    /// silently smaller run.
    pub fn run_source(&self, source: &LibrarySource) -> std::io::Result<FlowOutcome> {
        self.run_source_traced(source, &Recorder::disabled())
    }

    /// [`Flow::run_source`] with structured tracing: every pipeline stage
    /// (library generation, characterization, subset split, zoo training,
    /// model estimation, front peeling) records a span into `recorder`,
    /// plus per-model `train/<id>` and `estimate/<id>` stages.
    ///
    /// Tracing is strictly observational — the outcome is bit-identical to
    /// the untraced run for any thread count, and a disabled recorder
    /// costs one branch per stage.
    pub fn run_source_traced(
        &self,
        source: &LibrarySource,
        recorder: &Recorder,
    ) -> std::io::Result<FlowOutcome> {
        let cfg = &self.config;
        let rt = Runtime::new(cfg.threads);
        type Shards<'a> = Box<dyn Iterator<Item = std::io::Result<Vec<ArithCircuit>>> + 'a>;
        let shards: Shards<'_> = match source {
            LibrarySource::Generated(spec) => {
                let mut span = recorder.span("flow/build_library");
                let library = build_library_with(spec, &rt);
                span.add_items(library.len() as u64);
                Box::new(std::iter::once(Ok(library)))
            }
            LibrarySource::Stored(_) => Box::new(source.shards(cfg.shard_circuits, &rt)?),
        };
        let records = characterize_shards_traced(
            shards,
            &cfg.asic,
            &cfg.fpga,
            &cfg.error,
            &rt,
            self.cache.as_ref(),
            recorder,
        )?;
        let (records, oracle) = FpgaOracle::split(records);
        Ok(self.explore(records, oracle, &rt, recorder))
    }

    /// The method — subset, zoo, estimation and selection — on records
    /// without their FPGA half: every FPGA report it reads comes from
    /// `oracle`, which logs and charges it. The scoring step then takes
    /// the oracle back for fronts, coverage and time accounting.
    fn explore(
        &self,
        records: Vec<CircuitRecord<()>>,
        mut oracle: FpgaOracle,
        rt: &Runtime,
        recorder: &Recorder,
    ) -> FlowOutcome {
        let cfg = &self.config;
        let n = records.len();

        // 1. Subset synthesis (the only FPGA synthesis the flow "pays" for
        //    up front): the training and validation targets.
        let (subset, train, validate, observed, subset_s) = {
            let mut span = recorder.span("flow/subset_split");
            let subset = sample_subset(n, cfg.subset_fraction, cfg.min_subset, cfg.seed);
            let (train, validate) = train_validate_split(&subset, cfg.train_fraction, cfg.seed);
            let (reports, subset_s) = oracle.synthesize(&subset);
            let observed: BTreeMap<usize, FpgaReport> =
                subset.iter().copied().zip(reports).collect();
            span.add_items(subset.len() as u64);
            (subset, train, validate, observed, subset_s)
        };

        // 2. Train and score the model zoo (optionally with the Fig. 2
        //    hyperparameter-modification loop), or load it from the memo.
        let mut zoo = {
            let mut span = recorder.span("flow/train_zoo");
            span.add_items(cfg.models.len() as u64);
            let set = TrainingSet::new(&records, &train, &validate, |i| observed[&i]);
            self.zoo(&set, &records, rt, recorder)
        };

        // Fault injection (numeric-robustness harness): corrupt model
        // estimates only — training and validation fidelities stay clean,
        // and the memo holds the clean zoo.
        if let Some(spec) = &cfg.chaos {
            match spec.only {
                Some((model, param)) => zoo.inject_chaos_for(model, param, &spec.config),
                None => zoo.inject_chaos(&spec.config),
            }
        }

        // 3+4. Model selection, whole-library estimation and pseudo-pareto
        //    peeling, then one synthesis of every parameter's candidates.
        let mut span = recorder.span("flow/select_estimate");
        let asic_slots = usize::from(cfg.include_asic_regression);
        let selection = select(
            &zoo,
            &records,
            cfg.fronts,
            cfg.top_models,
            asic_slots,
            rt,
            recorder,
        );
        let union: BTreeSet<usize> = selection.candidates.values().flatten().copied().collect();
        let (_, candidates_s) = oracle.synthesize(&union.into_iter().collect::<Vec<_>>());
        span.add_items(oracle.log().len() as u64);
        drop(span);

        // 5. Scoring, after the method is done: the oracle hands back every
        //    report for the measured and true fronts, coverage and the
        //    exhaustive time, and the records get their FPGA half back.
        let mut span = recorder.span("flow/fronts");
        let (reports, synthesized) = oracle.reveal();
        let records: Vec<CircuitRecord> = (records.into_iter().zip(reports))
            .map(|(r, fpga)| r.replace_fpga(fpga).0)
            .collect();
        let mut final_fronts = BTreeMap::new();
        let mut true_fronts = BTreeMap::new();
        let mut cov = BTreeMap::new();
        for &param in &FpgaParam::ALL {
            let points: Vec<(f64, f64)> = records
                .iter()
                .map(|r| (r.fpga_param(param), r.error.med))
                .collect();
            let measured = measured_front(&points, &synthesized);
            cov.insert(param, measured.coverage);
            final_fronts.insert(param, measured.front);
            true_fronts.insert(param, measured.true_front);
        }
        let exhaustive_s: f64 = records.iter().map(|r| r.fpga.synth_time_s).sum();
        span.add_items(FpgaParam::ALL.len() as u64);
        drop(span);

        // 6. Time accounting over the modeled synthesis times. Model
        //    training/estimation: a flat modeled cost per model-target
        //    plus a per-estimate term — minutes, matching the paper's
        //    "order of seconds" estimation plus training overhead.
        let ml_s = (cfg.models.len() * FpgaParam::ALL.len()) as f64 * 20.0 + n as f64 * 3.0e-3;
        let time = TimeAccounting {
            exhaustive_s,
            subset_s,
            candidates_s,
            ml_s,
            exhaustive_count: n,
            flow_count: synthesized.len(),
        };

        // Surface persistence failures: the cache counts appends it had to
        // drop; fold the lifetime total into this run's counters so the
        // report and `afp flow` summary can show it.
        let mut cache_last_error = None;
        if let Some(cache) = &self.cache {
            let dropped = cache.write_errors();
            if dropped > 0 {
                Counters::add(&rt.counters().cache_write_errors, dropped);
                cache_last_error = cache.last_write_error();
            }
        }

        FlowOutcome {
            records,
            subset,
            train,
            validate,
            zoo,
            selected_models: selection.selected_models,
            dropped_models: selection.dropped_models,
            candidates: selection.candidates,
            synthesized,
            final_fronts,
            true_fronts,
            coverage: cov,
            time,
            runtime: rt.snapshot(),
            cache_last_error,
        }
    }

    /// The trained zoo of this run. With a persistent cache (`use_cache`
    /// and a `cache_dir`), the memo saved under this run's training key
    /// is tried first: it is used when its target and coverage are this
    /// run's and every loaded model re-predicts the validation rows to
    /// the stored fidelity table, bit for bit. Anything else — no memo, a
    /// corrupt or mismatching one — is a miss: the zoo is trained and
    /// saved under the key, and a failed save or eviction is counted,
    /// never fatal.
    fn zoo(
        &self,
        set: &TrainingSet,
        records: &[CircuitRecord<()>],
        rt: &Runtime,
        recorder: &Recorder,
    ) -> TrainedZoo {
        let cfg = &self.config;
        let train = || {
            set.train(
                &cfg.models,
                cfg.tune_models,
                cfg.fidelity_tolerance,
                rt,
                recorder,
            )
            .0
        };
        let Some(dir) = cfg.cache_dir.as_ref().filter(|_| cfg.use_cache) else {
            return train();
        };
        let coverage: Vec<(afp_circuits::ArithKind, usize)> = records
            .iter()
            .map(|r| (r.kind, r.width))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let target = &cfg.fpga.target;
        let Some(key) = set.memo_key(
            ZOO_MEMO_VERSION,
            &cfg.models,
            cfg.tune_models,
            cfg.fidelity_tolerance,
            target,
            &coverage,
        ) else {
            return train();
        };
        let counters = rt.counters();
        if let Some(saved) = load_memo(dir, key) {
            if saved.target == *target
                && saved.coverage == coverage
                && set.reproduces(&saved.zoo, &cfg.models, cfg.fidelity_tolerance)
            {
                Counters::add(&counters.zoo_memo_hits, 1);
                return saved.zoo;
            }
        }
        Counters::add(&counters.zoo_memo_misses, 1);
        let zoo = train();
        let errors = save_memo(dir, key, &zoo, target, &coverage);
        Counters::add(&counters.zoo_memo_errors, errors);
        zoo
    }
}

/// What the selection stage chose, per parameter.
struct Selection {
    /// Accepted models: the ML ranking's, then the ASIC-regression slot's.
    selected_models: BTreeMap<FpgaParam, Vec<MlModelId>>,
    /// Models dropped because every estimate was non-finite, in the
    /// order they were tried.
    dropped_models: BTreeMap<FpgaParam, Vec<MlModelId>>,
    /// Union of the accepted models' pseudo-pareto candidates, ascending.
    candidates: BTreeMap<FpgaParam, Vec<usize>>,
}

/// The selection stage: per parameter, fill `top_models` slots from the
/// ML fidelity ranking and `asic_slots` from the ASIC-regression ranking.
/// Each model estimates every record and peels `fronts` pseudo-pareto
/// fronts; [`pseudo_pareto`] quarantines non-finite estimates and counts
/// them.
///
/// Each wave estimates, in parallel, the next untried models of every
/// pool with open slots. A model whose estimates are *all* non-finite is
/// dropped, and the next model of its ranking is tried in the next wave.
/// With finite estimates (the default) wave one accepts everything and
/// this is the plain top-k. Jobs, promotions and drops follow the
/// rankings, never completion order, so the selection is
/// thread-invariant.
fn select(
    zoo: &TrainedZoo,
    records: &[CircuitRecord<()>],
    fronts: usize,
    top_models: usize,
    asic_slots: usize,
    rt: &Runtime,
    recorder: &Recorder,
) -> Selection {
    // One pool per parameter and ranking, parameter-major with the ML
    // ranking first: the job order. `untried` is the rest of the ranking.
    struct Pool {
        param: FpgaParam,
        untried: std::vec::IntoIter<MlModelId>,
        slots: usize,
        accepted: Vec<(MlModelId, BTreeSet<usize>)>,
    }
    let mut pools: Vec<Pool> = Vec::new();
    for param in FpgaParam::ALL {
        for (ranking, slots) in [
            (zoo.top_models(param, usize::MAX, false), top_models),
            (zoo.ranked_asic_regressions(param), asic_slots),
        ] {
            let (untried, accepted) = (ranking.into_iter(), Vec::new());
            pools.push(Pool {
                param,
                untried,
                slots,
                accepted,
            });
        }
    }
    // Every job estimates from one feature matrix of the library.
    let features = zoo.features(records);
    let mut dropped_models = per_param::<Vec<MlModelId>>();
    loop {
        let mut jobs: Vec<(usize, MlModelId)> = Vec::new();
        for (p, pool) in pools.iter_mut().enumerate() {
            let open = pool.slots.saturating_sub(pool.accepted.len());
            jobs.extend(pool.untried.by_ref().take(open).map(|m| (p, m)));
        }
        if jobs.is_empty() {
            break;
        }
        let results: Vec<PseudoPareto> = rt.par_map(&jobs, |_, &(p, model)| {
            let est = {
                let name = format!("estimate/{}", model.label());
                let mut span = recorder.span(&name);
                span.add_items(records.len() as u64);
                zoo.estimate_matrix(model, pools[p].param, &features)
            };
            let points: Vec<(f64, f64)> = (est.iter().zip(records))
                .map(|(&e, r)| (e, r.error.med))
                .collect();
            pseudo_pareto(&points, fronts)
        });
        for (&(p, model), picked) in jobs.iter().zip(results) {
            Counters::add(
                &rt.counters().estimates_quarantined,
                picked.quarantined as u64,
            );
            let pool = &mut pools[p];
            if picked.quarantined == records.len() {
                dropped_models.entry(pool.param).or_default().push(model);
            } else {
                pool.accepted.push((model, picked.candidates));
            }
        }
    }
    let mut selected_models = per_param::<Vec<MlModelId>>();
    let mut union = per_param::<BTreeSet<usize>>();
    for pool in pools {
        for (model, set) in pool.accepted {
            selected_models.entry(pool.param).or_default().push(model);
            union.entry(pool.param).or_default().extend(set);
        }
    }
    let candidates = union
        .into_iter()
        .map(|(p, set)| (p, set.into_iter().collect()));
    Selection {
        selected_models,
        dropped_models,
        candidates: candidates.collect(),
    }
}

/// An empty value for every parameter.
fn per_param<T: Default>() -> BTreeMap<FpgaParam, T> {
    FpgaParam::ALL.iter().map(|&p| (p, T::default())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuits::{ArithKind, LibrarySpec};

    fn spec(size: usize) -> LibrarySpec {
        LibrarySpec::new(ArithKind::Adder, 8, size)
    }

    fn tiny_config() -> FlowConfig {
        FlowConfig {
            min_subset: 24,
            // Keep tests quick: a competitive subset of the zoo.
            models: vec![
                MlModelId::Ml1,
                MlModelId::Ml2,
                MlModelId::Ml3,
                MlModelId::Ml4,
                MlModelId::Ml11,
                MlModelId::Ml13,
                MlModelId::Ml14,
                MlModelId::Ml18,
            ],
            ..FlowConfig::default()
        }
    }

    fn run(config: FlowConfig, size: usize) -> FlowOutcome {
        run_traced(config, size, &Recorder::disabled())
    }

    fn run_traced(config: FlowConfig, size: usize, recorder: &Recorder) -> FlowOutcome {
        let source = LibrarySource::Generated(spec(size));
        Flow::new(config)
            .run_source_traced(&source, recorder)
            .expect("generated source")
    }

    #[test]
    fn flow_runs_end_to_end_and_reduces_synthesis() {
        let outcome = run(tiny_config(), 120);
        assert_eq!(outcome.records.len(), outcome.time.exhaustive_count);
        // The generated library is characterized as one resident shard.
        assert_eq!(outcome.runtime.shards_streamed, 1);
        assert_eq!(
            outcome.runtime.peak_resident_circuits,
            outcome.records.len() as u64
        );
        assert!(outcome.time.flow_count < outcome.time.exhaustive_count);
        assert!(
            outcome.time.speedup().is_some_and(|s| s > 1.0),
            "no speedup"
        );
        assert!(outcome.time.synth_reduction().is_some_and(|r| r > 1.0));
        // Everything the flow reports as a front member was synthesized.
        for front in outcome.final_fronts.values() {
            for i in front {
                assert!(outcome.synthesized.contains(i));
            }
        }
    }

    #[test]
    fn coverage_is_meaningful() {
        let outcome = run(tiny_config(), 120);
        for (&param, &c) in &outcome.coverage {
            assert!((0.0..=1.0).contains(&c), "{param:?}: {c}");
        }
        // On a small library with 3 fronts the union should recover a
        // decent share of the true front.
        assert!(
            outcome.mean_coverage() > 0.4,
            "mean coverage {}",
            outcome.mean_coverage()
        );
    }

    #[test]
    fn more_fronts_synthesize_more_but_cover_more() {
        let base = tiny_config();
        let one = run(
            FlowConfig {
                fronts: 1,
                ..base.clone()
            },
            120,
        );
        let three = run(FlowConfig { fronts: 3, ..base }, 120);
        assert!(three.time.flow_count >= one.time.flow_count);
        assert!(three.mean_coverage() >= one.mean_coverage() - 1e-9);
    }

    #[test]
    fn selected_models_exclude_asic_regressions_by_default() {
        let outcome = run(tiny_config(), 100);
        for models in outcome.selected_models.values() {
            assert!(!models.is_empty());
            assert!(models.iter().all(|m| !m.is_asic_regression()));
        }
        let with_asic = run(
            FlowConfig {
                include_asic_regression: true,
                ..tiny_config()
            },
            100,
        );
        for models in with_asic.selected_models.values() {
            assert!(models.iter().any(|m| m.is_asic_regression()));
        }
    }

    #[test]
    fn the_method_never_reads_an_unsynthesized_report() {
        // Rerun the method with every report it did not synthesize
        // poisoned: what it decides must not move by a bit. The chaos and
        // ASIC-slot settings cover the drop, promotion and ASIC paths.
        use afp_ml::chaos::{ChaosConfig, ChaosKind};
        let config = FlowConfig {
            include_asic_regression: true,
            chaos: Some(ChaosSpec {
                config: ChaosConfig::always(ChaosKind::Nan, 77),
                only: Some((MlModelId::Ml4, FpgaParam::Area)),
            }),
            ..tiny_config()
        };
        let library = afp_circuits::build_library(&spec(100));
        let records = crate::dataset::characterize_library(
            &library,
            &config.asic,
            &config.fpga,
            &config.error,
        );
        let flow = Flow::new(config);
        let explore = |records: Vec<CircuitRecord>| {
            let (records, oracle) = FpgaOracle::split(records);
            flow.explore(records, oracle, &Runtime::new(0), &Recorder::disabled())
        };
        let clean = explore(records.clone());
        let mut poisoned = records;
        for r in poisoned
            .iter_mut()
            .filter(|r| !clean.synthesized.contains(&r.id))
        {
            r.fpga = FpgaReport {
                luts: usize::MAX,
                slices: usize::MAX,
                depth_levels: u32::MAX,
                delay_ns: f64::NAN,
                power_mw: f64::NAN,
                synth_time_s: f64::NAN,
            };
        }
        assert!(poisoned.len() > clean.synthesized.len());
        let blind = explore(poisoned);
        let fidelity_bits = |o: &FlowOutcome| -> Vec<_> {
            o.zoo
                .fidelities
                .iter()
                .map(|f| {
                    let bits = [f.fidelity, f.r2, f.mae, f.pearson].map(f64::to_bits);
                    (f.model, f.param, bits)
                })
                .collect()
        };
        assert!(!clean.dropped_models[&FpgaParam::Area].is_empty());
        assert_eq!(clean.subset, blind.subset);
        assert_eq!(fidelity_bits(&clean), fidelity_bits(&blind));
        assert_eq!(clean.selected_models, blind.selected_models);
        assert_eq!(clean.dropped_models, blind.dropped_models);
        assert_eq!(clean.candidates, blind.candidates);
        assert_eq!(clean.synthesized, blind.synthesized);
        assert_eq!(clean.time.subset_s.to_bits(), blind.time.subset_s.to_bits());
        let candidates_s = |o: &FlowOutcome| o.time.candidates_s.to_bits();
        assert_eq!(candidates_s(&clean), candidates_s(&blind));
        // The scoring step does see the poison.
        assert!(blind.time.exhaustive_s.is_nan());
    }

    #[test]
    fn outcome_is_deterministic() {
        let a = run(tiny_config(), 80);
        let b = run(tiny_config(), 80);
        assert_eq!(a.subset, b.subset);
        assert_eq!(a.synthesized, b.synthesized);
        assert_eq!(a.final_fronts, b.final_fronts);
        assert_eq!(a.time, b.time);
    }

    #[test]
    fn tracing_does_not_perturb_the_outcome() {
        let untraced = run(tiny_config(), 80);
        let recorder = Recorder::enabled();
        let traced = run_traced(tiny_config(), 80, &recorder);
        assert_eq!(untraced.subset, traced.subset);
        assert_eq!(untraced.synthesized, traced.synthesized);
        assert_eq!(untraced.final_fronts, traced.final_fronts);
        assert_eq!(untraced.coverage, traced.coverage);
        assert_eq!(untraced.time, traced.time);
        if recorder.is_enabled() {
            let names: Vec<String> = recorder.stages().into_iter().map(|(n, _)| n).collect();
            for stage in [
                "flow/build_library",
                "flow/characterize",
                "flow/subset_split",
                "flow/train_zoo",
                "flow/select_estimate",
                "flow/fronts",
            ] {
                assert!(names.iter().any(|n| n == stage), "missing stage {stage}");
            }
            assert!(
                names.iter().any(|n| n.starts_with("train/")),
                "no per-model training spans"
            );
            assert!(
                names.iter().any(|n| n.starts_with("estimate/")),
                "no per-model estimation spans"
            );
        }
    }

    #[test]
    fn streamed_stored_source_matches_the_in_ram_path() {
        let dir = std::env::temp_dir().join(format!("afp-flow-source-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("lib.afps");
        let cfg = tiny_config();
        let library = afp_circuits::build_library(&spec(60));
        afp_circuits::write_library(&path, &library).expect("persist corpus");

        let in_ram = run(cfg.clone(), 60);
        for (threads, shard) in [(1, 7), (4, 17), (1, 0)] {
            let flow = Flow::new(FlowConfig {
                threads,
                shard_circuits: shard,
                ..cfg.clone()
            });
            let streamed = flow
                .run_source(&LibrarySource::Stored(path.clone()))
                .expect("streamed flow");
            assert_eq!(in_ram.subset, streamed.subset, "threads={threads}");
            assert_eq!(in_ram.synthesized, streamed.synthesized);
            assert_eq!(in_ram.final_fronts, streamed.final_fronts);
            assert_eq!(in_ram.coverage, streamed.coverage);
            assert_eq!(in_ram.time, streamed.time);
            // Shard 0 is the whole corpus as one shard.
            let cap = if shard == 0 { library.len() } else { shard };
            assert_eq!(
                streamed.runtime.shards_streamed,
                library.len().div_ceil(cap) as u64
            );
            assert!(
                streamed.runtime.peak_resident_circuits <= cap as u64,
                "peak {} > shard {cap}",
                streamed.runtime.peak_resident_circuits
            );
        }
        // A missing corpus is a loud error, not an empty run.
        match Flow::new(cfg.clone()).run_source(&LibrarySource::Stored(dir.join("nope.afps"))) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            Ok(_) => panic!("missing corpus must not run"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn undefined_time_ratios_are_none_not_inf() {
        // A flow that synthesized nothing in zero time: both ratios are
        // undefined, not inf/NaN.
        let zero = TimeAccounting::default();
        assert_eq!(zero.speedup(), None);
        assert_eq!(zero.synth_reduction(), None);
        let nonfinite = TimeAccounting {
            exhaustive_s: f64::INFINITY,
            subset_s: 1.0,
            flow_count: 3,
            exhaustive_count: 30,
            ..TimeAccounting::default()
        };
        assert_eq!(nonfinite.speedup(), None);
        assert_eq!(nonfinite.synth_reduction(), Some(10.0));
    }

    #[test]
    fn try_new_rejects_unusable_cache_dir() {
        let dir = std::env::temp_dir().join(format!("afp-flow-trynew-{}", std::process::id()));
        let file = dir.join("occupied");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        std::fs::write(&file, b"x").expect("write blocker file");
        // A *file* where the cache dir should go cannot be created as a
        // directory: try_new must surface the error.
        let config = FlowConfig {
            cache_dir: Some(file.clone()),
            ..tiny_config()
        };
        assert!(Flow::try_new(config).is_err());
        // And a usable directory succeeds.
        let ok = FlowConfig {
            cache_dir: Some(dir.join("cache")),
            ..tiny_config()
        };
        assert!(Flow::try_new(ok).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
