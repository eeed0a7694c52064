//! `explore_cold` and `explore_warm`: the paper-full exploration flow over
//! a stored corpus, with an empty or a filled characterization store.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use afp_circuits::{paper_full_specs, write_library_specs, LibrarySource, LibrarySpec};
use afp_ml::MlModelId;
use afp_obs::Recorder;
use afp_runtime::{Counters, Runtime};
use approxfpgas::cache::STORE_FILE;
use approxfpgas::dataset::{sample_subset, train_validate_split};
use approxfpgas::{
    coverage, pareto_front, peel_fronts, CharacterizationCache, CircuitRecord, Flow, FlowConfig,
    FlowOutcome, FpgaParam, TimeAccounting, DEFAULT_SHARD_CIRCUITS,
};

use crate::layers::{same_record, Configs, Worker};
use crate::stats::{derive, median, peak_rss_mib, reset_peak_rss};
use crate::trace::{Summary, Tracer};
use crate::{Run, Size};

/// Threads of the explored flow. One: on a two-core host shared with
/// other work, two-thread reps varied about twice as much from run to
/// run (±8% against ±3.4% over six alternating runs of one seed), and
/// the flow's outcome is identical for any thread count.
const FLOW_THREADS: usize = 1;

/// The stored corpus of one run.
struct Corpus {
    path: PathBuf,
    circuits: usize,
    bytes: u64,
}

/// The six paper-full libraries at `scale`, each with a seed derived
/// from the run's seed.
fn corpus_specs(seed: u64, scale: f64) -> Vec<LibrarySpec> {
    paper_full_specs(scale)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| LibrarySpec {
            seed: derive(seed, 100 + i as u64),
            ..spec
        })
        .collect()
}

fn flow_config(seed: u64, cache_dir: &Path) -> FlowConfig {
    FlowConfig {
        threads: FLOW_THREADS,
        cache_dir: Some(cache_dir.to_path_buf()),
        seed: derive(seed, 1),
        ..FlowConfig::default()
    }
}

fn io(context: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// One set-up: write the corpus and, for the warm workload, fill the
/// characterization store with one cold flow. Returns that cold outcome.
fn setup(
    seed: u64,
    size: &Size,
    dir: &Path,
    warm: bool,
) -> Result<(Corpus, Option<FlowOutcome>), String> {
    std::fs::create_dir_all(dir).map_err(io("creating the set-up directory"))?;
    let path = dir.join("corpus.afps");
    let summary = write_library_specs(
        &path,
        &corpus_specs(seed, size.corpus_scale),
        &Runtime::new(FLOW_THREADS),
    )
    .map_err(io("writing the corpus"))?;
    let corpus = Corpus {
        path,
        circuits: summary.written as usize,
        bytes: summary.bytes,
    };
    let cold = if warm {
        Some(run_flow(seed, &corpus, &dir.join("cache"))?.0)
    } else {
        None
    };
    Ok((corpus, cold))
}

/// `Flow::try_new` plus `run_source` on the stored corpus; returns the
/// outcome and the wall time of both calls.
fn run_flow(seed: u64, corpus: &Corpus, cache: &Path) -> Result<(FlowOutcome, f64), String> {
    let t = Instant::now();
    let flow = Flow::try_new(flow_config(seed, cache)).map_err(io("opening the cache"))?;
    let outcome = flow
        .run_source(&LibrarySource::Stored(corpus.path.clone()))
        .map_err(io("streaming the corpus"))?;
    let wall = t.elapsed().as_secs_f64();
    if outcome.runtime.cache_write_errors > 0 {
        return Err(format!(
            "the characterization store dropped {} appends: {:?}",
            outcome.runtime.cache_write_errors, outcome.cache_last_error
        ));
    }
    Ok((outcome, wall))
}

/// `Err` naming the first decision on which two flow outcomes differ
/// (run counters and timings are not decisions).
fn check_same(a: &FlowOutcome, b: &FlowOutcome, what: &str) -> Result<(), String> {
    let field = if a.records.len() != b.records.len()
        || !a
            .records
            .iter()
            .zip(&b.records)
            .all(|(x, y)| same_record(x, y))
    {
        "records"
    } else if a.subset != b.subset {
        "subset"
    } else if (&a.train, &a.validate) != (&b.train, &b.validate) {
        "train/validate split"
    } else if a.selected_models != b.selected_models {
        "selected models"
    } else if a.candidates != b.candidates {
        "candidates"
    } else if a.synthesized != b.synthesized {
        "synthesized"
    } else if (&a.final_fronts, &a.true_fronts) != (&b.final_fronts, &b.true_fronts) {
        "fronts"
    } else if a.coverage != b.coverage {
        "coverage"
    } else if a.time != b.time {
        "time accounting"
    } else {
        return Ok(());
    };
    Err(format!("{what}: `{field}` differs"))
}

/// Gates on one outcome before any of its numbers are reported.
fn check_outcome(o: &FlowOutcome, corpus: &Corpus, warm: bool) -> Result<(), String> {
    if o.records.len() != corpus.circuits {
        return Err(format!(
            "flow characterized {} of {} circuits",
            o.records.len(),
            corpus.circuits
        ));
    }
    if warm && (o.runtime.asic_synths != 0 || o.runtime.cache_misses != 0) {
        return Err(format!(
            "warm flow synthesized {} circuits ({} cache misses); expected 0",
            o.runtime.asic_synths, o.runtime.cache_misses
        ));
    }
    if !warm && o.runtime.asic_synths == 0 {
        return Err("cold flow synthesized nothing".to_string());
    }
    let cov = o.mean_coverage();
    let speedup = o.time.speedup().unwrap_or(0.0);
    if o.synthesized.len() >= corpus.circuits || !(cov > 0.0 && cov <= 1.0) || speedup <= 1.0 {
        return Err(format!(
            "implausible exploration: {} of {} synthesized, coverage {cov}, speedup {speedup}",
            o.synthesized.len(),
            corpus.circuits
        ));
    }
    Ok(())
}

fn outcome_info(o: &FlowOutcome, corpus: &Corpus) -> Vec<String> {
    vec![
        format!("corpus_circuits {}", corpus.circuits),
        format!("flow_synthesized {}", o.synthesized.len()),
        format!("flow_mean_coverage {}", o.mean_coverage()),
        format!("flow_modeled_speedup {}", o.time.speedup().unwrap_or(0.0)),
    ]
}

/// Untraced run: median set-up over `size.explore_setups`, then flow
/// reps until `seconds` have passed. `peak_rss_mib` is the peak of the
/// first rep, as in a process that explores once: later reps start from
/// a heap the earlier ones fragmented, and peak about a quarter higher.
pub fn measure(
    warm: bool,
    seed: u64,
    seconds: f64,
    size: &Size,
    work: &Path,
) -> Result<Run, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..size.explore_setups {
        let dir = work.join(format!("setup-{i}"));
        let t = Instant::now();
        let done = setup(seed, size, &dir, warm)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((_, dir)) = kept.replace((done, dir)) {
            std::fs::remove_dir_all(dir).map_err(io("removing a set-up"))?;
        }
    }
    let ((corpus, cold), dir) = kept.expect("at least one set-up");
    let cold_cache = dir.join("cache");

    reset_peak_rss();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut peak = None;
    let mut first: Option<FlowOutcome> = None;
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let cache = if warm {
            cold_cache.clone()
        } else {
            dir.join(format!("rep-{}", walls.len()))
        };
        let (outcome, wall) = run_flow(seed, &corpus, &cache)?;
        if peak.is_none() {
            peak = Some(peak_rss_mib()?);
        }
        walls.push(wall);
        check_outcome(&outcome, &corpus, warm)?;
        match &first {
            Some(f) => check_same(&outcome, f, "reps disagree")?,
            None => first = Some(outcome),
        }
        if !warm {
            std::fs::remove_dir_all(&cache).map_err(io("removing a rep's cache"))?;
        }
    }
    let first = first.expect("at least one rep");
    if let Some(cold) = &cold {
        check_same(&first, cold, "warm flow differs from cold flow")?;
    }

    let mut run = Run::new((walls.len() * corpus.circuits) as u64);
    run.set("setup_s", median(&setup_s));
    run.set("throughput_per_s", corpus.circuits as f64 / median(&walls));
    run.set("latency_p50_ms", median(&walls) * 1e3);
    run.set("peak_rss_mib", peak.expect("at least one rep"));
    let reps: Vec<String> = walls.iter().map(|w| format!("{:.1}", w * 1e3)).collect();
    run.info.push(format!("rep_ms {}", reps.join(",")));
    run.info.extend(outcome_info(&first, &corpus));
    Ok(run)
}

/// Worker-summed zoo training seconds per model label.
type TrainSeconds = Vec<(String, f64)>;

/// `Flow::run_source` on a stored corpus, rebuilt from the layers'
/// public stages with a span around each call. Only the flow
/// configuration this benchmark uses is replayed: no tuning, no chaos,
/// no ASIC-regression slot.
fn replay(
    tracer: &Tracer,
    cfg: &FlowConfig,
    corpus: &Path,
) -> Result<(FlowOutcome, TrainSeconds), String> {
    assert!(!cfg.tune_models && cfg.chaos.is_none() && !cfg.include_asic_regression);
    let rt = Runtime::new(cfg.threads);
    let configs = Configs {
        asic: &cfg.asic,
        fpga: &cfg.fpga,
        error: &cfg.error,
    };
    let mut main = tracer.thread(None);
    main.open("bench.replay", 0);
    let dir = cfg
        .cache_dir
        .as_deref()
        .expect("explore flows persist their cache");
    let cache = main
        .time("store.cache_open", 0, || {
            CharacterizationCache::try_with_disk(dir)
        })
        .map_err(io("opening the cache"))?;

    // Characterization, shard by shard, as `characterize_shards_traced`.
    let mut shards = main
        .time("circuits.corpus_stream", 0, || {
            LibrarySource::Stored(corpus.to_path_buf()).shards(DEFAULT_SHARD_CIRCUITS, &rt)
        })
        .map_err(io("opening the corpus"))?;
    let mut seen: HashMap<(afp_circuits::ArithKind, usize, u64), usize> = HashMap::new();
    let mut rep_records: Vec<CircuitRecord> = Vec::new();
    let mut fanout: Vec<(String, usize)> = Vec::new();
    for shard_ix in 0u64.. {
        let Some(shard) = main.time("circuits.corpus_stream", shard_ix, || shards.next()) else {
            break;
        };
        let shard = shard.map_err(io("streaming the corpus"))?;
        Counters::add(&rt.counters().shards_streamed, 1);
        Counters::max(&rt.counters().peak_resident_circuits, shard.len() as u64);
        let mut fresh = Vec::new();
        let mut dedup_hits = 0;
        main.open("netlist.structural_hash", shard_ix);
        for c in shard {
            let next = rep_records.len() + fresh.len();
            match seen.entry((c.kind(), c.width(), c.netlist().structural_hash())) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    dedup_hits += 1;
                    fanout.push((c.name().to_string(), *e.get()));
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(next);
                    fanout.push((c.name().to_string(), next));
                    fresh.push((fanout.len() - 1, c));
                }
            }
        }
        main.close();
        if dedup_hits > 0 {
            Counters::add(&rt.counters().structural_dedup_hits, dedup_hits);
        }
        main.open("bench.characterize_shard", shard_ix);
        let parent = main.current();
        rep_records.extend(rt.par_map_init(
            &fresh,
            || Worker::new(tracer.thread(parent)),
            |w, _, (id, c)| w.characterize(*id, c, configs, &rt, &cache),
        ));
        main.close();
    }
    let records: Vec<CircuitRecord> = main.time("bench.fanout", 0, || {
        fanout
            .into_iter()
            .enumerate()
            .map(|(i, (name, rep))| CircuitRecord {
                id: i,
                name,
                ..rep_records[rep].clone()
            })
            .collect()
    });
    drop(rep_records);
    let n = records.len();

    let (subset, train, validate) = main.time("core.sample_split", 0, || {
        let subset = sample_subset(n, cfg.subset_fraction, cfg.min_subset, cfg.seed);
        let (train, validate) = train_validate_split(&subset, cfg.train_fraction, cfg.seed);
        (subset, train, validate)
    });
    let recorder = Recorder::enabled();
    let zoo = main.time("core.train_zoo", 0, || {
        approxfpgas::fidelity::train_zoo_with(
            &records,
            &train,
            &validate,
            &cfg.models,
            cfg.fidelity_tolerance,
            &rt,
            &recorder,
        )
    });

    // Selection waves with quarantine, as in `Flow`.
    let ranked: BTreeMap<FpgaParam, Vec<MlModelId>> = FpgaParam::ALL
        .iter()
        .map(|&p| (p, zoo.top_models(p, usize::MAX, false)))
        .collect();
    let mut cursor: BTreeMap<FpgaParam, usize> = FpgaParam::ALL.iter().map(|&p| (p, 0)).collect();
    let mut accepted: BTreeMap<FpgaParam, Vec<(MlModelId, BTreeSet<usize>)>> =
        FpgaParam::ALL.iter().map(|&p| (p, Vec::new())).collect();
    let mut dropped: BTreeMap<FpgaParam, Vec<MlModelId>> =
        FpgaParam::ALL.iter().map(|&p| (p, Vec::new())).collect();
    main.open("bench.select_estimate", 0);
    let parent = main.current();
    loop {
        let mut jobs: Vec<(FpgaParam, MlModelId)> = Vec::new();
        for &param in &FpgaParam::ALL {
            let cur = cursor.get_mut(&param).expect("every param has a cursor");
            let mut missing = cfg.top_models.saturating_sub(accepted[&param].len());
            while missing > 0 && *cur < ranked[&param].len() {
                jobs.push((param, ranked[&param][*cur]));
                *cur += 1;
                missing -= 1;
            }
        }
        if jobs.is_empty() {
            break;
        }
        let results = rt.par_map_init(
            &jobs,
            || tracer.thread(parent),
            |spans, i, &(param, model)| {
                let est = spans.time("ml.estimate_all", i as u64, || {
                    zoo.estimate_all(model, param, &records)
                });
                let (keep, points): (Vec<usize>, Vec<(f64, f64)>) = est
                    .iter()
                    .zip(&records)
                    .enumerate()
                    .filter(|(_, (e, _))| e.is_finite())
                    .map(|(i, (&e, r))| (i, (e, r.error.med)))
                    .unzip();
                let fronts = spans.time("core.peel_fronts", i as u64, || {
                    peel_fronts(&points, cfg.fronts)
                });
                let set: BTreeSet<usize> =
                    fronts.into_iter().flatten().map(|li| keep[li]).collect();
                (set, keep.len(), (est.len() - keep.len()) as u64)
            },
        );
        for (&(param, model), (set, finite, quarantined)) in jobs.iter().zip(results) {
            Counters::add(&rt.counters().estimates_quarantined, quarantined);
            if finite > 0 {
                accepted
                    .get_mut(&param)
                    .expect("every param")
                    .push((model, set));
            } else {
                dropped.get_mut(&param).expect("every param").push(model);
            }
        }
    }
    main.close();
    let mut synthesized: BTreeSet<usize> = subset.iter().copied().collect();
    let mut candidates = BTreeMap::new();
    let mut selected_models = BTreeMap::new();
    for (param, sets) in accepted {
        let union: BTreeSet<usize> = sets.iter().flat_map(|(_, set)| set).copied().collect();
        synthesized.extend(union.iter().copied());
        candidates.insert(param, union.into_iter().collect::<Vec<usize>>());
        selected_models.insert(param, sets.into_iter().map(|(m, _)| m).collect());
    }

    let mut final_fronts = BTreeMap::new();
    let mut true_fronts = BTreeMap::new();
    let mut cov = BTreeMap::new();
    let synth_list: Vec<usize> = synthesized.iter().copied().collect();
    for (pi, &param) in FpgaParam::ALL.iter().enumerate() {
        main.open("core.pareto", pi as u64);
        let all: Vec<(f64, f64)> = records
            .iter()
            .map(|r| (r.fpga_param(param), r.error.med))
            .collect();
        let local: Vec<(f64, f64)> = synth_list.iter().map(|&i| all[i]).collect();
        let found: Vec<usize> = pareto_front(&local)
            .iter()
            .map(|&li| synth_list[li])
            .collect();
        let truth = pareto_front(&all);
        cov.insert(param, coverage(&truth, &found, &all));
        final_fronts.insert(param, found);
        true_fronts.insert(param, truth);
        main.close();
    }
    let time = main.time("bench.time_accounting", 0, || {
        let subset_set: BTreeSet<usize> = subset.iter().copied().collect();
        TimeAccounting {
            exhaustive_s: records.iter().map(|r| r.fpga.synth_time_s).sum(),
            subset_s: subset.iter().map(|&i| records[i].fpga.synth_time_s).sum(),
            candidates_s: synthesized
                .iter()
                .filter(|i| !subset_set.contains(i))
                .map(|&i| records[i].fpga.synth_time_s)
                .sum(),
            ml_s: (cfg.models.len() * FpgaParam::ALL.len()) as f64 * 20.0 + n as f64 * 3.0e-3,
            exhaustive_count: n,
            flow_count: synthesized.len(),
        }
    });
    main.close();
    drop(cache);
    let train_s = recorder
        .stages()
        .into_iter()
        .filter_map(|(name, st)| Some((name.strip_prefix("train/")?.to_string(), st.wall_s())))
        .collect();
    let outcome = FlowOutcome {
        records,
        subset,
        train,
        validate,
        zoo,
        selected_models,
        dropped_models: dropped,
        candidates,
        synthesized,
        final_fronts,
        true_fronts,
        coverage: cov,
        time,
        runtime: rt.snapshot(),
        cache_last_error: None,
    };
    Ok((outcome, train_s))
}

/// Traced run: one set-up, one `Flow::run_source` as the reference, then
/// the traced replay, which must decide exactly what the flow decided.
pub fn trace(warm: bool, seed: u64, size: &Size, work: &Path) -> Result<Run, String> {
    let dir = work.join("setup");
    let (corpus, cold) = setup(seed, size, &dir, warm)?;
    let (ref_cache, replay_cache) = if warm {
        (dir.join("cache"), dir.join("cache"))
    } else {
        (dir.join("ref-cache"), dir.join("replay-cache"))
    };
    let (reference, ref_wall) = run_flow(seed, &corpus, &ref_cache)?;
    check_outcome(&reference, &corpus, warm)?;
    if let Some(cold) = &cold {
        check_same(&reference, cold, "warm flow differs from cold flow")?;
    }

    let tracer = Tracer::new(true);
    let t = Instant::now();
    let (replayed, train_s) = replay(&tracer, &flow_config(seed, &replay_cache), &corpus.path)?;
    let wall = t.elapsed().as_secs_f64();
    let spans = tracer.finish();
    check_same(
        &replayed,
        &reference,
        "replay differs from Flow::run_source",
    )?;
    let c = &replayed.runtime;
    let r = &reference.runtime;
    if (c.asic_synths, c.cache_hits, c.structural_dedup_hits)
        != (r.asic_synths, r.cache_hits, r.structural_dedup_hits)
    {
        return Err(format!(
            "replay counters differ from the flow's: synths {} vs {}, hits {} vs {}, dedup {} vs {}",
            c.asic_synths, r.asic_synths, c.cache_hits, r.cache_hits, c.structural_dedup_hits,
            r.structural_dedup_hits
        ));
    }

    let summary = Summary::new(&spans);
    let mut run = Run::new(corpus.circuits as u64);
    run.layer_common(&summary, wall);
    let cache_bytes = std::fs::metadata(replay_cache.join(STORE_FILE)).map_or(0, |m| m.len());
    run.set("store.cache_bytes", cache_bytes as f64);
    run.set("store.corpus_bytes", corpus.bytes as f64);
    run.counters(c);
    run.set(
        "runtime.characterizations_per_request",
        c.asic_synths as f64 / corpus.circuits as f64,
    );
    let train_total: f64 = train_s.iter().map(|(_, s)| s).sum();
    for (label, s) in &train_s {
        run.set(
            &format!("ml.train.{label}.pct"),
            100.0 * s / train_total.max(f64::MIN_POSITIVE),
        );
    }
    run.set("core.flow_synthesized", reference.synthesized.len() as f64);
    run.set("core.flow_mean_coverage", reference.mean_coverage());
    run.set(
        "core.flow_modeled_speedup",
        reference.time.speedup().unwrap_or(0.0),
    );
    run.set("trace.overhead", wall / ref_wall - 1.0);
    run.info.extend(outcome_info(&reference, &corpus));
    run.info.push(format!("reference_wall_s {ref_wall}"));
    run.trace = Some((spans, summary));
    Ok(run)
}
