//! Dataset assembly: parallel circuit characterization, 10% subset
//! sampling and the 80/20 train/validation split.

use std::borrow::Borrow;
use std::collections::HashMap;

use afp_circuits::{plan_batches, ArithCircuit, ArithKind};
use afp_obs::Recorder;
use afp_runtime::{Counters, Runtime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cache::CharacterizationCache;
use crate::record::{assemble_record, characterize_batch, CharacterizeScratch, CircuitRecord};

/// Characterize every circuit in `library` in parallel (one worker per
/// available core, work-stealing).
///
/// Record ids equal library indices.
pub fn characterize_library(
    library: &[ArithCircuit],
    asic_config: &afp_asic::AsicConfig,
    fpga_config: &afp_fpga::FpgaConfig,
    error_config: &afp_error::ErrorConfig,
) -> Vec<CircuitRecord> {
    characterize_library_with(
        library,
        asic_config,
        fpga_config,
        error_config,
        &Runtime::new(0),
        None,
    )
}

/// [`characterize_library`] on an explicit [`Runtime`], optionally through
/// the characterization cache: the resident library is one shard of
/// [`characterize_shards_traced`], borrowed rather than cloned.
pub fn characterize_library_with(
    library: &[ArithCircuit],
    asic_config: &afp_asic::AsicConfig,
    fpga_config: &afp_fpga::FpgaConfig,
    error_config: &afp_error::ErrorConfig,
    rt: &Runtime,
    cache: Option<&CharacterizationCache>,
) -> Vec<CircuitRecord> {
    characterize_shards_traced(
        [Ok(library)],
        asic_config,
        fpga_config,
        error_config,
        rt,
        cache,
        &Recorder::disabled(),
    )
    .expect("a resident library has no shard that can fail")
}

/// Characterize a library delivered as a sequence of shards, with a
/// `flow/characterize` tracing span (items = circuits characterized).
///
/// This is the one characterization engine. A shard is anything that
/// yields circuits, owned or borrowed: a resident library is a single
/// shard, and a sealed `.afps` corpus streams through
/// [`afp_circuits::LibrarySource::shards`]. Shards are pulled one at a
/// time. Each shard's not-yet-seen structures are looked up in the cache
/// in parallel, and the misses are characterized as simulation batches
/// ([`afp_circuits::plan_batches`]) through the work-stealing runtime: a
/// worker hash-conses a batch, runs error analysis and both power models'
/// signal probabilities once on its DAG, then synthesizes each member (one [`afp_fpga::Mapper`] per worker, so repeated FPGA
/// synthesis reuses warm buffers). The shard's netlists are dropped
/// before the next shard is pulled — peak circuit
/// residency is one shard, tracked by the `peak_resident_circuits`
/// gauge, with `shards_streamed` counting the pulls. Only the
/// per-circuit [`CircuitRecord`]s (and the structural-dedup index) stay
/// resident.
///
/// Structurally identical circuits (same kind, width and
/// [`afp_netlist::Netlist::structural_hash`] — approximate variants of one
/// generator are frequently gate-identical after simplification) are
/// simulated and synthesized **once**, even across shard boundaries: each
/// duplicate's record is copied from its representative with the
/// duplicate's own id and name. Every report is a pure function of the
/// netlist structure and the configs, so records come back in library
/// order, bit-identical for any thread count and any shard size; the
/// skipped work is surfaced as the `structural_dedup_hits` counter.
///
/// The first shard error (torn corpus, undecodable record) aborts and is
/// returned; a damaged corpus never silently characterizes as a smaller
/// library.
#[allow(clippy::too_many_arguments)]
pub fn characterize_shards_traced<S, C>(
    shards: impl IntoIterator<Item = std::io::Result<S>>,
    asic_config: &afp_asic::AsicConfig,
    fpga_config: &afp_fpga::FpgaConfig,
    error_config: &afp_error::ErrorConfig,
    rt: &Runtime,
    cache: Option<&CharacterizationCache>,
    recorder: &Recorder,
) -> std::io::Result<Vec<CircuitRecord>>
where
    S: IntoIterator<Item = C>,
    C: Borrow<ArithCircuit> + Sync,
{
    let mut span = recorder.span("flow/characterize");

    let mut seen: HashMap<(ArithKind, usize, u64), usize> = HashMap::new();
    let mut rep_records: Vec<CircuitRecord> = Vec::new();
    // Per circuit, in library order: its name and its representative's
    // index into `rep_records` — everything the fan-out needs after the
    // shard's netlists are gone.
    let mut fanout: Vec<(String, usize)> = Vec::new();

    for shard in shards {
        let first = fanout.len();
        // Representatives new in this shard, each with its global library
        // index (which becomes its record id) and its structural hash.
        let mut fresh: Vec<(usize, C, u64)> = Vec::new();
        for c in shard? {
            let circuit = c.borrow();
            let hash = circuit.netlist().structural_hash();
            let key = (circuit.kind(), circuit.width(), hash);
            let next = rep_records.len() + fresh.len();
            let rep = *seen.entry(key).or_insert(next);
            fanout.push((circuit.name().to_string(), rep));
            if rep == next {
                fresh.push((fanout.len() - 1, c, hash));
            }
        }
        let len = fanout.len() - first;
        if len == 0 {
            continue;
        }
        span.add_items(len as u64);
        Counters::add(&rt.counters().shards_streamed, 1);
        Counters::max(&rt.counters().peak_resident_circuits, len as u64);
        let dedup_hits = (len - fresh.len()) as u64;
        if dedup_hits > 0 {
            Counters::add(&rt.counters().structural_dedup_hits, dedup_hits);
        }

        // Netlist statistics and cache lookups, per representative.
        let mut looked_up = rt.par_map(&fresh, |_, (_, c, hash)| {
            let circuit = c.borrow();
            let key = cache.map(|_| {
                CharacterizationCache::key_hashed(
                    circuit.kind(),
                    circuit.width(),
                    *hash,
                    asic_config,
                    fpga_config,
                    error_config,
                )
            });
            let hit = key.and_then(|k| cache.and_then(|cache| cache.get(k, rt.counters())));
            (afp_netlist::analyze::stats(circuit.netlist()), key, hit)
        });
        // The misses, characterized in parallel batch by batch, one
        // scratch per worker.
        let misses: Vec<usize> = (0..fresh.len())
            .filter(|&i| looked_up[i].2.is_none())
            .collect();
        let miss_circuits: Vec<&ArithCircuit> =
            misses.iter().map(|&i| fresh[i].1.borrow()).collect();
        let batches = plan_batches(&miss_circuits);
        let computed = rt.par_map_init(
            &batches,
            CharacterizeScratch::default,
            |scratch, _, members| {
                let circuits: Vec<&ArithCircuit> =
                    members.iter().map(|&m| miss_circuits[m]).collect();
                characterize_batch(
                    &circuits,
                    asic_config,
                    fpga_config,
                    error_config,
                    rt,
                    scratch,
                )
            },
        );
        for (members, reports) in batches.iter().zip(computed) {
            for (&m, reports) in members.iter().zip(reports) {
                let (_, key, slot) = &mut looked_up[misses[m]];
                if let (Some(cache), Some(key)) = (cache, *key) {
                    cache.insert_counted(key, reports, rt.counters());
                }
                *slot = Some(reports);
            }
        }
        rep_records.extend(
            fresh
                .iter()
                .zip(looked_up)
                .map(|((id, c, _), (stats, _, reports))| {
                    let reports = reports.expect("every miss was characterized");
                    assemble_record(*id, c.borrow(), fpga_config, stats, reports)
                }),
        );
        // Dropping `fresh` here releases this shard's netlists before the
        // next shard is pulled.
    }

    Ok(fanout
        .into_iter()
        .enumerate()
        .map(|(i, (name, rep))| {
            let mut record = rep_records[rep].clone();
            record.id = i;
            record.name = name;
            record
        })
        .collect())
}

/// Deterministically sample `fraction` of `n` indices (at least
/// `min_count`, at most `n`), the paper's "10% subset".
pub fn sample_subset(n: usize, fraction: f64, min_count: usize, seed: u64) -> Vec<usize> {
    let want = ((n as f64 * fraction).round() as usize)
        .max(min_count)
        .min(n);
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5AB5E7);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx.truncate(want);
    idx.sort_unstable();
    idx
}

/// Split `subset` into (train, validation) with the given train fraction,
/// deterministically shuffled.
///
/// Degenerate inputs are explicit rather than accidental: with fewer
/// than two elements there is nothing to divide, so **both** halves get
/// the whole subset. A one-element subset therefore trains and validates
/// on its single sample (fidelity is computed over at least one pair
/// instead of zero), and an empty subset yields two empty halves. With
/// two or more elements the validation half is never empty.
pub fn train_validate_split(
    subset: &[usize],
    train_fraction: f64,
    seed: u64,
) -> (Vec<usize>, Vec<usize>) {
    if subset.len() < 2 {
        return (subset.to_vec(), subset.to_vec());
    }
    let mut idx = subset.to_vec();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7EA1);
    for i in (1..idx.len()).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    let cut = ((idx.len() as f64 * train_fraction).round() as usize)
        .clamp(1, idx.len().saturating_sub(1).max(1));
    let (train, val) = idx.split_at(cut.min(idx.len()));
    (train.to_vec(), val.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::characterize;
    use afp_circuits::{build_library, ArithKind, LibrarySpec};

    #[test]
    fn characterization_is_parallel_safe_and_ordered() {
        let lib = build_library(&LibrarySpec::new(ArithKind::Adder, 8, 20));
        let recs = characterize_library(
            &lib,
            &afp_asic::AsicConfig::default(),
            &afp_fpga::FpgaConfig::default(),
            &afp_error::ErrorConfig::default(),
        );
        assert_eq!(recs.len(), lib.len());
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.id, i);
            assert_eq!(r.name, lib[i].name());
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let lib = build_library(&LibrarySpec::new(ArithKind::Adder, 8, 12));
        let asic = afp_asic::AsicConfig::default();
        let fpga = afp_fpga::FpgaConfig::default();
        let err = afp_error::ErrorConfig::default();
        let par = characterize_library(&lib, &asic, &fpga, &err);
        for (i, c) in lib.iter().enumerate() {
            let s = characterize(i, c, &asic, &fpga, &err);
            assert_eq!(s.fpga, par[i].fpga);
            assert_eq!(s.asic, par[i].asic);
            assert_eq!(s.error, par[i].error);
        }
    }

    #[test]
    fn structural_duplicates_are_characterized_once_and_fanned_out() {
        let base = build_library(&LibrarySpec::new(ArithKind::Adder, 8, 6));
        // Interleave a renamed structural copy behind every circuit.
        let mut lib: Vec<ArithCircuit> = Vec::new();
        for c in &base {
            lib.push(c.clone());
            let mut copy = c.clone();
            copy.set_name(format!("{}_copy", c.name()));
            lib.push(copy);
        }
        let asic = afp_asic::AsicConfig::default();
        let fpga = afp_fpga::FpgaConfig::default();
        let err = afp_error::ErrorConfig::default();
        let rt = Runtime::serial();
        let recs = characterize_library_with(&lib, &asic, &fpga, &err, &rt, None);
        assert_eq!(recs.len(), lib.len());
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.id, i, "ids follow library order");
            assert_eq!(r.name, lib[i].name(), "names stay per-duplicate");
        }
        for pair in recs.chunks(2) {
            assert_eq!(pair[0].asic, pair[1].asic);
            assert_eq!(pair[0].error, pair[1].error);
            assert_eq!(pair[0].fpga, pair[1].fpga);
            assert_eq!(pair[0].stats, pair[1].stats);
        }
        let snap = rt.snapshot();
        assert_eq!(snap.structural_dedup_hits, base.len() as u64);
        // Only the representatives were actually analyzed.
        assert_eq!(snap.error_analyses, base.len() as u64);
        assert_eq!(snap.asic_synths, base.len() as u64);
        assert_eq!(snap.fpga_synths, base.len() as u64);
        // The duplicated-library records match the plain library's.
        let plain = characterize_library_with(&base, &asic, &fpga, &err, &Runtime::serial(), None);
        for (i, p) in plain.iter().enumerate() {
            assert_eq!(p.fpga, recs[2 * i].fpga);
            assert_eq!(p.error, recs[2 * i].error);
        }
    }

    #[test]
    fn shard_streaming_matches_serial_characterization() {
        let base = build_library(&LibrarySpec::new(ArithKind::Adder, 8, 9));
        // Append renamed structural copies so dedup must span shards.
        let mut lib: Vec<ArithCircuit> = base.clone();
        for c in &base {
            let mut copy = c.clone();
            copy.set_name(format!("{}_again", c.name()));
            lib.push(copy);
        }
        let asic = afp_asic::AsicConfig::default();
        let fpga = afp_fpga::FpgaConfig::default();
        let err = afp_error::ErrorConfig::default();
        // The oracle: the plain serial per-circuit loop, no dedup, no shards.
        let expect: Vec<CircuitRecord> = lib
            .iter()
            .enumerate()
            .map(|(i, c)| characterize(i, c, &asic, &fpga, &err))
            .collect();
        for threads in [1, 4] {
            for shard in [1, 4, lib.len(), 500] {
                let rt = Runtime::new(threads);
                let shards = lib.chunks(shard).map(|c| Ok(c.to_vec()));
                let got = characterize_shards_traced(
                    shards,
                    &asic,
                    &fpga,
                    &err,
                    &rt,
                    None,
                    &Recorder::disabled(),
                )
                .unwrap();
                assert_eq!(
                    format!("{got:?}"),
                    format!("{expect:?}"),
                    "threads={threads} shard={shard}"
                );
                let snap = rt.snapshot();
                assert_eq!(snap.shards_streamed, lib.len().div_ceil(shard) as u64);
                assert_eq!(snap.peak_resident_circuits, shard.min(lib.len()) as u64);
                assert_eq!(snap.structural_dedup_hits, base.len() as u64);
                assert_eq!(snap.fpga_synths, base.len() as u64);
            }
        }
    }

    #[test]
    fn shard_errors_abort_characterization() {
        let lib = build_library(&LibrarySpec::new(ArithKind::Adder, 4, 4));
        let shards = vec![
            Ok(lib.clone()),
            Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "torn")),
            Ok(lib),
        ];
        let err = characterize_shards_traced(
            shards,
            &afp_asic::AsicConfig::default(),
            &afp_fpga::FpgaConfig::default(),
            &afp_error::ErrorConfig::default(),
            &Runtime::serial(),
            None,
            &Recorder::disabled(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn subset_is_deterministic_and_right_sized() {
        let a = sample_subset(1000, 0.1, 40, 7);
        let b = sample_subset(1000, 0.1, 40, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        let c = sample_subset(100, 0.1, 40, 7);
        assert_eq!(c.len(), 40, "min_count should apply");
        let d = sample_subset(10, 0.1, 40, 7);
        assert_eq!(d.len(), 10, "cannot exceed n");
        // No duplicates.
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), a.len());
    }

    #[test]
    fn different_seeds_sample_differently() {
        assert_ne!(
            sample_subset(500, 0.1, 10, 1),
            sample_subset(500, 0.1, 10, 2)
        );
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let subset: Vec<usize> = (0..50).collect();
        let (train, val) = train_validate_split(&subset, 0.8, 3);
        assert_eq!(train.len(), 40);
        assert_eq!(val.len(), 10);
        let mut all: Vec<usize> = train.iter().chain(&val).copied().collect();
        all.sort_unstable();
        assert_eq!(all, subset);
    }

    #[test]
    fn split_never_leaves_empty_validation_for_reasonable_sets() {
        let subset: Vec<usize> = (0..10).collect();
        let (train, val) = train_validate_split(&subset, 0.8, 3);
        assert_eq!(train.len(), 8);
        assert_eq!(val.len(), 2);
    }

    #[test]
    fn split_validation_is_never_empty_for_any_size_ge_two() {
        for n in 2..20 {
            let subset: Vec<usize> = (0..n).collect();
            for frac in [0.0, 0.5, 0.8, 0.99, 1.0] {
                let (train, val) = train_validate_split(&subset, frac, 5);
                assert!(!val.is_empty(), "n={n} frac={frac}: empty validation");
                assert!(!train.is_empty(), "n={n} frac={frac}: empty train");
                assert_eq!(train.len() + val.len(), n);
            }
        }
    }

    #[test]
    fn degenerate_splits_are_explicit() {
        // One element: both halves see the single sample, so downstream
        // fidelity is computed over one pair instead of zero.
        let (train, val) = train_validate_split(&[42], 0.8, 3);
        assert_eq!(train, vec![42]);
        assert_eq!(val, vec![42]);
        // Empty subset: two empty halves, no panic.
        let (train, val) = train_validate_split(&[], 0.8, 3);
        assert!(train.is_empty() && val.is_empty());
    }
}
