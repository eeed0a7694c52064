//! The zoo memo: a flow with a persistent cache saves its trained zoo to
//! `cache_dir/zoo-<key>.afpm`, named after a hash of its training inputs,
//! and a later flow with the same inputs loads it instead of training. A
//! hit must change nothing but the work done; every input of the key must
//! turn a hit into a miss; memos of other inputs (other targets) live
//! side by side; a memo that is corrupt, truncated, of a foreign version
//! or out of step with its fidelity table, target or coverage is a miss
//! that re-trains and overwrites it — never an error; and the memo files
//! stay within their byte bound.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use approxfpgas_suite::circuits::{ArithKind, LibrarySource, LibrarySpec};
use approxfpgas_suite::flow::record::FpgaParam;
use approxfpgas_suite::flow::{
    load_zoo, save_zoo, sweep_targets, Flow, FlowConfig, FlowOutcome, TargetSet,
    AFPM_RECORD_VERSION, ZOO_MEMO_BYTES,
};
use approxfpgas_suite::ml::MlModelId;
use approxfpgas_suite::obs::Recorder;
use approxfpgas_suite::store::{FrameStream, StoreWriter};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afp-suite-memo-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The 60-circuit 8-bit adder library every run explores.
fn source() -> LibrarySource {
    LibrarySource::Generated(LibrarySpec::new(ArithKind::Adder, 8, 60))
}

fn config(dir: &Path) -> FlowConfig {
    FlowConfig {
        min_subset: 24,
        // Every model family the memo has to restore: linear, kernel
        // (the GP's lazily rebuilt factor), neighbours, trees, the MLP.
        models: vec![
            MlModelId::Ml1,
            MlModelId::Ml8,
            MlModelId::Ml13,
            MlModelId::Ml16,
            MlModelId::Ml17,
            MlModelId::Ml18,
        ],
        cache_dir: Some(dir.to_path_buf()),
        ..FlowConfig::default()
    }
}

fn run(config: &FlowConfig) -> FlowOutcome {
    run_traced(config, &Recorder::disabled())
}

fn run_traced(config: &FlowConfig, recorder: &Recorder) -> FlowOutcome {
    Flow::try_new(config.clone())
        .unwrap()
        .run_source_traced(&source(), recorder)
        .expect("generated libraries stream")
}

/// The memo files in `dir`, by name.
fn memo_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_str().unwrap();
            name.starts_with("zoo-") && name.ends_with(".afpm")
        })
        .collect();
    files.sort();
    files
}

/// The one memo file in `dir`.
fn only_memo(dir: &Path) -> PathBuf {
    let files = memo_files(dir);
    assert_eq!(files.len(), 1, "{files:?}");
    files[0].clone()
}

/// `(hits, misses, save errors)` of one run.
fn memo(o: &FlowOutcome) -> (u64, u64, u64) {
    let rt = &o.runtime;
    (rt.zoo_memo_hits, rt.zoo_memo_misses, rt.zoo_memo_errors)
}

const HIT: (u64, u64, u64) = (1, 0, 0);
const MISS: (u64, u64, u64) = (0, 1, 0);

fn train_spans(recorder: &Recorder) -> usize {
    recorder
        .stages()
        .into_iter()
        .filter(|(name, _)| name.starts_with("train/"))
        .count()
}

/// Every decision and every estimate of two outcomes, bit for bit.
fn assert_same_outcome(a: &FlowOutcome, b: &FlowOutcome) {
    assert_eq!(a.subset, b.subset);
    assert_eq!((&a.train, &a.validate), (&b.train, &b.validate));
    assert_eq!(a.selected_models, b.selected_models);
    assert_eq!(a.dropped_models, b.dropped_models);
    assert_eq!(a.candidates, b.candidates);
    assert_eq!(a.synthesized, b.synthesized);
    assert_eq!(a.final_fronts, b.final_fronts);
    assert_eq!(a.true_fronts, b.true_fronts);
    let bits = |o: &FlowOutcome| -> Vec<u64> { o.coverage.values().map(|c| c.to_bits()).collect() };
    assert_eq!(bits(a), bits(b));
    assert_eq!(a.time, b.time);
    assert_eq!(a.zoo.fidelities.len(), b.zoo.fidelities.len());
    for (fa, fb) in a.zoo.fidelities.iter().zip(&b.zoo.fidelities) {
        assert_eq!((fa.model, fa.param), (fb.model, fb.param));
        let scores = |f: &approxfpgas_suite::flow::FidelityRecord| {
            [f.fidelity, f.r2, f.mae, f.pearson].map(f64::to_bits)
        };
        assert_eq!(scores(fa), scores(fb), "{} {:?}", fa.model, fa.param);
        if !a.zoo.has_model(fa.model, fa.param) {
            assert!(!b.zoo.has_model(fa.model, fa.param));
            continue;
        }
        let est = |o: &FlowOutcome| -> Vec<u64> {
            o.zoo
                .estimate_all(fa.model, fa.param, &o.records)
                .into_iter()
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(est(a), est(b), "{} {:?} estimates", fa.model, fa.param);
    }
}

#[test]
fn a_warm_run_loads_a_bit_identical_zoo_and_trains_nothing() {
    let dir = temp_dir("warm");
    let cfg = config(&dir);
    let cold_rec = Recorder::enabled();
    let cold = run_traced(&cfg, &cold_rec);
    assert_eq!(memo(&cold), MISS);
    let name = only_memo(&dir)
        .file_name()
        .unwrap()
        .to_str()
        .unwrap()
        .to_string();
    let hex = &name["zoo-".len()..name.len() - ".afpm".len()];
    assert_eq!(hex.len(), 32, "{name}");
    assert!(
        hex.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)),
        "{name}"
    );
    let warm_rec = Recorder::enabled();
    let warm = run_traced(&cfg, &warm_rec);
    assert_eq!(memo(&warm), HIT);
    assert_same_outcome(&cold, &warm);
    if cold_rec.is_enabled() {
        assert!(train_spans(&cold_rec) > 0);
        assert_eq!(train_spans(&warm_rec), 0, "a memo hit trained a model");
        assert!(warm_rec.stages().iter().any(|(n, _)| n == "flow/train_zoo"));
    }
    // A second thread count hits the same memo.
    let warm4 = run(&FlowConfig { threads: 4, ..cfg });
    assert_eq!(memo(&warm4), HIT);
    assert_same_outcome(&cold, &warm4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_memo_is_a_servable_zoo_with_its_target_and_coverage() {
    let dir = temp_dir("servable");
    let cfg = config(&dir);
    let cold = run(&cfg);
    let path = only_memo(&dir);
    let saved = load_zoo(&path).expect("the memo is a valid .afpm");
    assert_eq!(saved.target, cfg.fpga.target);
    assert_eq!(saved.coverage, vec![(ArithKind::Adder, 8)]);
    assert_eq!(saved.zoo.fidelities.len(), cold.zoo.fidelities.len());
    // One writer: the memo's bytes are `save_zoo`'s for the same zoo.
    let plain = temp_dir("servable-plain").join("zoo.afpm");
    save_zoo(&plain, &cold.zoo, &cfg.fpga.target, &saved.coverage).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&plain).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(plain.parent().unwrap());
}

#[test]
fn a_target_sweep_hits_every_memo_on_its_second_pass() {
    let dir = temp_dir("sweep");
    let set = TargetSet::all();
    let sweep = || sweep_targets(&config(&dir), &source(), &set).unwrap();
    let cold = sweep();
    assert_eq!(cold.len(), 4);
    for run in &cold {
        assert_eq!(memo(&run.outcome), MISS, "{}: first pass", run.target);
    }
    assert_eq!(memo_files(&dir).len(), 4, "one memo per target");
    let warm = sweep();
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(memo(&w.outcome), HIT, "{}: second pass", w.target);
        assert_eq!(w.outcome.runtime.fpga_synths, 0, "{}", w.target);
        assert_same_outcome(&c.outcome, &w.outcome);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_key_input_turns_a_hit_into_a_miss() {
    let dir = temp_dir("key");
    let base = config(&dir);
    let target = approxfpgas_suite::fpga::target::named("lut4-ice40").unwrap();
    let changed: Vec<(&str, FlowConfig)> = vec![
        (
            "seed",
            FlowConfig {
                seed: base.seed + 1,
                ..base.clone()
            },
        ),
        (
            "models",
            FlowConfig {
                models: base.models[..5].to_vec(),
                ..base.clone()
            },
        ),
        (
            "model order",
            FlowConfig {
                models: base.models.iter().rev().copied().collect(),
                ..base.clone()
            },
        ),
        (
            "tolerance",
            FlowConfig {
                fidelity_tolerance: base.fidelity_tolerance * 2.0,
                ..base.clone()
            },
        ),
        (
            "tune flag",
            FlowConfig {
                tune_models: true,
                ..base.clone()
            },
        ),
        (
            "target",
            FlowConfig {
                fpga: target.apply(&base.fpga),
                ..base.clone()
            },
        ),
    ];
    run(&base);
    for (what, cfg) in changed {
        assert_eq!(memo(&run(&base)), HIT, "{what}: base");
        assert_eq!(memo(&run(&cfg)), MISS, "{what}: changed input hit");
        assert_eq!(memo(&run(&cfg)), HIT, "{what}: second changed run");
        // The changed run saved beside the base memo, not over it.
        assert_eq!(memo(&run(&base)), HIT, "{what}: base after the change");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrite the memo at `path` record by record, as record version
/// `version`, passing each `(key.hi, payload)` through `edit`.
fn rewrite_memo(path: &Path, version: u32, edit: impl Fn(u64, &mut Vec<u8>)) {
    let records: Vec<_> = FrameStream::open(path).unwrap().collect();
    let mut writer = StoreWriter::create_atomic(path, version).unwrap();
    for mut record in records {
        edit(record.key.hi, &mut record.payload);
        writer.append(record.key, &record.payload).unwrap();
    }
    writer.finish_sealed().unwrap();
}

/// One way to damage the memo file in place.
type Corruption<'a> = Box<dyn Fn() + 'a>;

#[test]
fn a_bad_memo_is_a_miss_that_retrains_and_overwrites() {
    let dir = temp_dir("bad");
    let cfg = config(&dir);
    let cold = run(&cfg);
    let path = only_memo(&dir);
    let good = std::fs::read(&path).unwrap();
    // Another run's memo: the same library explored on another target.
    let other_dir = temp_dir("bad-other");
    let target = approxfpgas_suite::fpga::target::named("lut4-ice40").unwrap();
    run(&FlowConfig {
        fpga: target.apply(&cfg.fpga),
        ..config(&other_dir)
    });
    let other = std::fs::read(only_memo(&other_dir)).unwrap();
    let coverage = [(ArithKind::Adder, 8)];
    let corruptions: Vec<(&str, Corruption)> = vec![
        (
            "flipped byte",
            Box::new(|| {
                let mut bytes = good.clone();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x40;
                std::fs::write(&path, bytes).unwrap();
            }),
        ),
        (
            "truncated",
            Box::new(|| std::fs::write(&path, &good[..good.len() / 2]).unwrap()),
        ),
        ("empty", Box::new(|| std::fs::write(&path, b"").unwrap())),
        (
            "foreign record version",
            Box::new(|| rewrite_memo(&path, AFPM_RECORD_VERSION + 1, |_, _| {})),
        ),
        (
            // The key matches and the file loads, but the last Pearson
            // score of the meta record's fidelity table lost a bit: the
            // check on a hit re-predicts and refuses it.
            "stale fidelity table",
            Box::new(|| {
                rewrite_memo(&path, AFPM_RECORD_VERSION, |hi, payload| {
                    if hi == 0 {
                        let last = payload.len() - 8;
                        payload[last] ^= 1;
                    }
                })
            }),
        ),
        (
            "another run's memo copied under this run's name",
            Box::new(|| std::fs::write(&path, &other).unwrap()),
        ),
        (
            // The models reproduce their scores, but the metadata names
            // another target or another coverage.
            "this zoo saved for another target",
            Box::new(|| {
                save_zoo(&path, &cold.zoo, "lut4-ice40", &coverage).unwrap();
            }),
        ),
        (
            "this zoo saved for another coverage",
            Box::new(|| {
                let wider = [(ArithKind::Adder, 8), (ArithKind::Adder, 16)];
                save_zoo(&path, &cold.zoo, &cfg.fpga.target, &wider).unwrap();
            }),
        ),
    ];
    for (what, corrupt) in corruptions {
        std::fs::write(&path, &good).unwrap();
        assert_eq!(memo(&run(&cfg)), HIT, "{what}: the good memo");
        corrupt();
        let retrained = run(&cfg);
        assert_eq!(memo(&retrained), MISS, "{what}");
        assert_same_outcome(&cold, &retrained);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            good,
            "{what}: the re-trained zoo overwrites the memo byte for byte"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&other_dir);
}

#[test]
fn a_failed_save_is_counted_and_the_flow_succeeds() {
    let named = temp_dir("unsavable-name");
    run(&config(&named));
    let name = only_memo(&named).file_name().unwrap().to_owned();
    let dir = temp_dir("unsavable");
    let cfg = config(&dir);
    // A directory where the memo file should go: reading finds no memo
    // and the atomic rename onto it fails.
    std::fs::create_dir_all(dir.join(&name).join("occupied")).unwrap();
    let outcome = run(&cfg);
    assert_eq!(memo(&outcome), (0, 1, 1));
    // The failed save leaves no temp sibling behind.
    let mut tmp = name.clone();
    tmp.push(".tmp");
    let tmp = dir.join(tmp);
    assert!(!tmp.exists(), "{} left behind", tmp.display());
    let reference = run(&FlowConfig {
        cache_dir: None,
        ..cfg.clone()
    });
    assert_same_outcome(&reference, &outcome);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&named);
}

#[test]
fn flows_without_a_persistent_cache_neither_read_nor_write_the_memo() {
    let dir = temp_dir("nocache");
    let cfg = config(&dir);
    let no_cache = FlowConfig {
        use_cache: false,
        ..cfg.clone()
    };
    let recorder = Recorder::enabled();
    assert_eq!(memo(&run_traced(&no_cache, &recorder)), (0, 0, 0));
    assert!(memo_files(&dir).is_empty(), "--no-cache wrote a memo");
    if recorder.is_enabled() {
        assert!(train_spans(&recorder) > 0);
    }
    // With a memo present, a no-cache run still trains and leaves it be.
    let cold = run(&cfg);
    let path = only_memo(&dir);
    let before = std::fs::read(&path).unwrap();
    let recorder = Recorder::enabled();
    let again = run_traced(&no_cache, &recorder);
    assert_eq!(memo(&again), (0, 0, 0));
    if recorder.is_enabled() {
        assert!(train_spans(&recorder) > 0, "--no-cache read the memo");
    }
    assert_same_outcome(&cold, &again);
    assert_eq!(std::fs::read(&path).unwrap(), before);
    assert_eq!(memo_files(&dir), [path]);
    // An in-memory cache has no memo either.
    let in_memory = run(&FlowConfig {
        cache_dir: None,
        ..cfg
    });
    assert_eq!(memo(&in_memory), (0, 0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_runs_save_the_clean_zoo_and_corrupt_a_loaded_one() {
    let dir = temp_dir("chaos");
    let clean = config(&dir);
    let chaotic = FlowConfig {
        chaos: Some(approxfpgas_suite::flow::ChaosSpec::mixed(0.2, 7)),
        ..clean.clone()
    };
    let cold = run(&chaotic);
    assert_eq!(
        memo(&cold),
        MISS,
        "the clean zoo is saved before chaos wraps it"
    );
    // The memo holds the clean zoo: a clean run hits it and matches a
    // clean run without any memo.
    let warm_clean = run(&clean);
    assert_eq!(memo(&warm_clean), HIT);
    let reference = run(&FlowConfig {
        cache_dir: None,
        ..clean.clone()
    });
    assert_same_outcome(&reference, &warm_clean);
    // Chaos is applied after a load: a warm chaos run equals the cold one.
    let warm = run(&chaotic);
    assert_eq!(memo(&warm), HIT);
    assert_eq!(warm.selected_models, cold.selected_models);
    assert_eq!(warm.dropped_models, cold.dropped_models);
    assert_eq!(warm.synthesized, cold.synthesized);
    assert_eq!(
        warm.runtime.estimates_quarantined,
        cold.runtime.estimates_quarantined
    );
    assert!(cold.runtime.estimates_quarantined > 0);
    let first = cold.zoo.fidelities[0].model;
    let est = |o: &FlowOutcome| -> Vec<u64> {
        o.zoo
            .estimate_all(first, FpgaParam::Latency, &o.records)
            .into_iter()
            .map(f64::to_bits)
            .collect()
    };
    assert_eq!(est(&cold), est(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_memo_files_stay_within_their_byte_bound() {
    let dir = temp_dir("bound");
    let cfg = config(&dir);
    // Fill the characterization store, so the bounded run appends nothing.
    run(&FlowConfig {
        seed: cfg.seed + 1,
        ..cfg.clone()
    });
    // Sparse old memos past the bound, oldest first by mtime, not by name.
    let old = |tag: char| dir.join(format!("zoo-{}.afpm", tag.to_string().repeat(32)));
    let half = ZOO_MEMO_BYTES / 2;
    for (tag, len, age_s) in [
        ('c', half, 3_000),
        ('a', half, 2_000),
        ('b', half / 2, 1_000),
    ] {
        let file = File::create(old(tag)).unwrap();
        file.set_len(len).unwrap();
        file.set_modified(SystemTime::now() - Duration::from_secs(age_s))
            .unwrap();
    }
    std::fs::write(dir.join("zoo.afpm"), b"a memo of an earlier release").unwrap();
    std::fs::write(dir.join("notes.txt"), b"not a memo").unwrap();
    let others = ["characterization.afps", "zoo.afpm", "notes.txt"];
    // Older than every memo, so only the name can spare them.
    for name in others {
        let file = File::options().write(true).open(dir.join(name)).unwrap();
        file.set_modified(SystemTime::now() - Duration::from_secs(9_000))
            .unwrap();
    }
    let keep = |dir: &Path| -> Vec<(PathBuf, Vec<u8>)> {
        others
            .into_iter()
            .map(|name| (dir.join(name), std::fs::read(dir.join(name)).unwrap()))
            .collect()
    };
    let before = keep(&dir);
    let memos_before = memo_files(&dir);

    assert_eq!(memo(&run(&cfg)), MISS);
    let memos = memo_files(&dir);
    let total: u64 = memos
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    assert!(total <= ZOO_MEMO_BYTES, "{total} bytes of memos");
    assert!(!old('c').exists(), "the oldest memo stays");
    assert!(old('a').exists() && old('b').exists(), "a newer memo went");
    let new: Vec<_> = memos.iter().filter(|p| !memos_before.contains(p)).collect();
    assert_eq!(new.len(), 1, "the new memo is present");
    assert_eq!(keep(&dir), before, "a file that is not a memo changed");
    let _ = std::fs::remove_dir_all(&dir);
}
