//! Circuit-store scaling measurement: cache warm-start and circuit-corpus
//! round-trips through the binary frame store.
//!
//! This is the regenerator behind EXPERIMENTS.md "Circuit store" and the
//! `BENCH_store.json` pins. Three measurements, each timing the
//! store path as `store_us`:
//!
//! * `warm_start_mul8` — loading a fully-characterized mul8 cache from
//!   disk ([`StoreTier::open`]). The cache is populated by a real flow
//!   run, and its decoded entries are checked against the flow's records
//!   before any timing.
//! * `stream_mul8` — reopening a generated mul8 circuit corpus by
//!   streaming the sealed store file
//!   ([`afp_circuits::store::read_library`]), against re-parsing the same
//!   corpus as structural Verilog (`verilog_us`, and `speedup` over it).
//!   `size_ratio` is the on-disk ratio (Verilog bytes / store bytes).
//! * `cold_open_mul8` — answering "how many records, which version?"
//!   without a prior open, by reading the sealed store's index footer
//!   ([`afp_store::inspect`]).
//!
//! Usage: `cargo run --release -p afp-bench --bin store_scaling [--quick]`
//!
//! Writes `results/store_scaling.csv` (`case,metric,value`).

use std::path::{Path, PathBuf};

use afp_bench::{emit, time_us};
use afp_circuits::store::read_library;
use afp_circuits::{build_library, ArithKind, LibrarySource, LibrarySpec};
use afp_netlist::export::to_verilog;
use afp_netlist::parse::from_verilog;
use afp_runtime::Counters;
use afp_store::StoreTier;
use approxfpgas::cache::STORE_FILE;
use approxfpgas::{CachedCharacterization, CharacterizationCache, Flow, FlowConfig, FlowOutcome};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afp-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Populate a characterization cache directory by running the real flow
/// on the library of `spec`; returns the flow's outcome and configuration.
fn populate_cache(dir: &Path, spec: &LibrarySpec) -> (FlowOutcome, FlowConfig) {
    let config = FlowConfig {
        min_subset: 24,
        threads: 1,
        cache_dir: Some(dir.to_path_buf()),
        ..FlowConfig::default()
    };
    let outcome = Flow::new(config.clone())
        .run_source(&LibrarySource::Generated(spec.clone()))
        .expect("generated libraries stream");
    assert!(!outcome.records.is_empty(), "flow produced no records");
    (outcome, config)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (iters, runs) = if quick { (3, 3) } else { (20, 5) };
    println!("store_scaling: {iters} iters x {runs} runs (median)\n");

    // ---- warm_start_mul8: characterization cache load --------------------
    let store_dir = temp_dir("store");
    let spec = LibrarySpec::new(ArithKind::Multiplier, 8, 320);
    let (outcome, config) = populate_cache(&store_dir, &spec);
    // One settling open: the store tier compacts an append-heavy file into
    // block frames on first open, which is the steady state every later
    // warm start sees.
    drop(StoreTier::<CachedCharacterization>::open(&store_dir, STORE_FILE).unwrap());

    // Equivalence gate: the reopened store serves exactly the reports the
    // flow computed, for every circuit (record ids are library indices).
    let library = build_library(&spec);
    let cache = CharacterizationCache::try_with_disk(&store_dir).unwrap();
    let entries = cache.len();
    assert!(entries > 0, "cache ended up empty");
    let counters = Counters::default();
    for record in &outcome.records {
        let key = CharacterizationCache::key(
            &library[record.id],
            &config.asic,
            &config.fpga,
            &config.error,
        );
        assert_eq!(
            cache.get(key, &counters),
            Some(CachedCharacterization {
                asic: record.asic,
                error: record.error,
                fpga: record.fpga,
            }),
            "store entry for {} differs from the flow's record",
            record.name
        );
    }
    drop(cache);
    let warm_store_us = time_us(iters, runs, || {
        std::hint::black_box(
            StoreTier::<CachedCharacterization>::open(std::hint::black_box(&store_dir), STORE_FILE)
                .unwrap(),
        );
    });

    // ---- stream_mul8: circuit corpus round-trip --------------------------
    let corpus_dir = temp_dir("corpus");
    let verilog: Vec<String> = library.iter().map(|c| to_verilog(c.netlist())).collect();
    let verilog_path = corpus_dir.join("library.v");
    std::fs::write(&verilog_path, verilog.join("\n")).unwrap();
    let store_path = corpus_dir.join("library.afps");
    let summary = afp_circuits::store::write_library(&store_path, &library).unwrap();
    assert_eq!(
        summary.written + summary.deduplicated,
        library.len(),
        "write_library lost circuits"
    );

    // Equivalence gate, store side: streaming back is structurally exact
    // (modulo the store's structural dedup — compare deduplicated hash
    // sets against the generated library itself).
    let streamed = read_library(&store_path).unwrap();
    let hashes = |ns: &[&afp_netlist::Netlist]| {
        let mut h: Vec<u64> = ns.iter().map(|n| n.structural_hash()).collect();
        h.sort_unstable();
        h.dedup();
        h
    };
    assert_eq!(
        hashes(&streamed.iter().map(|c| c.netlist()).collect::<Vec<_>>()),
        hashes(&library.iter().map(|c| c.netlist()).collect::<Vec<_>>()),
        "store round trip lost circuit structures"
    );
    // Verilog side: parsing rebuilds an equivalent but not gate-identical
    // netlist, so check behaviour on sampled operand pairs instead.
    let parsed: Vec<_> = verilog
        .iter()
        .map(|v| from_verilog(v).expect("exported verilog parses"))
        .collect();
    assert_eq!(parsed.len(), library.len());
    let mut rng_state = 0x5EEDu64;
    let mut next = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    for (circuit, back) in library.iter().zip(&parsed) {
        let n_in = circuit.netlist().num_inputs();
        assert_eq!(n_in, back.num_inputs());
        for _ in 0..16 {
            let sample = next();
            let bits: Vec<bool> = (0..n_in).map(|i| (sample >> (i % 64)) & 1 == 1).collect();
            assert_eq!(
                circuit.netlist().eval_bits(&bits),
                back.eval_bits(&bits),
                "verilog round trip changed behaviour for {}",
                circuit.name()
            );
        }
    }

    let verilog_bytes = file_len(&verilog_path);
    let corpus_ratio = verilog_bytes as f64 / summary.bytes as f64;
    let stream_verilog_us = time_us(iters, runs, || {
        let text = std::fs::read_to_string(std::hint::black_box(&verilog_path)).unwrap();
        for module in text.split("\nmodule ") {
            let src = if module.starts_with("module ") {
                module.to_string()
            } else {
                format!("module {module}")
            };
            std::hint::black_box(from_verilog(&src).unwrap());
        }
    });
    let stream_store_us = time_us(iters, runs, || {
        std::hint::black_box(read_library(std::hint::black_box(&store_path)).unwrap());
    });

    // ---- cold_open_mul8: record count without a warm cache ---------------
    let cold_store_us = time_us(iters, runs, || {
        let info = afp_store::inspect(std::hint::black_box(&store_path)).unwrap();
        std::hint::black_box(info.records);
    });

    emit(
        "store_scaling",
        &[
            ("warm_start_mul8", "entries", entries as f64),
            ("warm_start_mul8", "store_us", warm_store_us),
            ("stream_mul8", "circuits", streamed.len() as f64),
            ("stream_mul8", "store_us", stream_store_us),
            ("stream_mul8", "verilog_us", stream_verilog_us),
            (
                "stream_mul8",
                "speedup",
                stream_verilog_us / stream_store_us,
            ),
            ("stream_mul8", "size_ratio", corpus_ratio),
            ("cold_open_mul8", "store_us", cold_store_us),
        ],
    );

    for dir in [store_dir, corpus_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
