//! The content-addressed characterization cache.
//!
//! Characterizing a circuit — ASIC synthesis, FPGA synthesis, behavioural
//! error analysis — is the dominant cost of a flow run, yet its result is
//! a pure function of the circuit *structure* and the three model
//! configurations. This module keys that computation by a 128-bit
//! fingerprint of exactly those inputs and memoizes the three reports, in
//! memory and optionally on disk, so repeated runs (or repeated circuits)
//! skip synthesis entirely.
//!
//! The memory tier is afp-runtime's byte-bounded CLOCK ring
//! ([`afp_runtime::ClockCache`]) under [`MEMO_BYTES`]. An evicted entry
//! only turns a later hit into a counted miss: it is recomputed bit for
//! bit, and a run assembles its records from its own lookups and results.
//!
//! The disk tier is the binary store ([`afp_store::StoreTier`], compact
//! frames + fast decode). It is lossless — float fields round-trip
//! bit-exactly — so a warm run's outcome is identical to a cold one's.

use std::path::Path;

use afp_asic::AsicReport;
use afp_circuits::{ArithCircuit, ArithKind};
use afp_error::ErrorMetrics;
use afp_fpga::FpgaReport;
use afp_runtime::{ClockCache, Counters, Fingerprint, Key128, StableHasher};
use afp_store::bytes::{put_f64, put_ivarint, put_uvarint, ByteReader};
use afp_store::{BinRecord, StoreTier};

/// The memoized result of characterizing one circuit under one
/// configuration triple: everything expensive, nothing circuit-identity
/// specific (name, id and stats are recomputed cheaply on a hit).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CachedCharacterization {
    /// ASIC synthesis report.
    pub asic: AsicReport,
    /// Behavioural error metrics.
    pub error: ErrorMetrics,
    /// FPGA synthesis report.
    pub fpga: FpgaReport,
}

/// Binary payload layout (see `DESIGN.md` "Circuit store"): raw-bits
/// `f64` for full-entropy model outputs, varints for counts, and a
/// rational reconstruction for the error metrics, which are almost always
/// exact multiples of `1/samples` — those collapse from 8 bytes to a flag
/// byte plus a short varint while staying bit-exact.
impl BinRecord for CachedCharacterization {
    const VERSION: u32 = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.asic.area_um2);
        put_f64(out, self.asic.delay_ns);
        put_f64(out, self.asic.power_mw);
        put_f64(out, self.asic.dynamic_mw);
        put_f64(out, self.asic.leakage_mw);
        put_uvarint(out, self.asic.cells as u64);
        put_uvarint(out, self.error.samples);
        out.push(self.error.exhaustive as u8);
        let den = self.error.samples;
        put_metric(out, self.error.med, den);
        put_metric(out, self.error.mae, den);
        put_uvarint(out, self.error.wce);
        put_metric(out, self.error.wce_rel, den);
        put_metric(out, self.error.mre, den);
        put_metric(out, self.error.error_prob, den);
        put_metric(out, self.error.mse, den);
        put_metric(out, self.error.bias, den);
        put_uvarint(out, self.fpga.luts as u64);
        put_uvarint(out, self.fpga.slices as u64);
        put_uvarint(out, self.fpga.depth_levels as u64);
        put_f64(out, self.fpga.delay_ns);
        put_f64(out, self.fpga.power_mw);
        put_f64(out, self.fpga.synth_time_s);
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<CachedCharacterization> {
        let asic = AsicReport {
            area_um2: r.f64_le()?,
            delay_ns: r.f64_le()?,
            power_mw: r.f64_le()?,
            dynamic_mw: r.f64_le()?,
            leakage_mw: r.f64_le()?,
            cells: usize::try_from(r.uvarint()?).ok()?,
        };
        let samples = r.uvarint()?;
        let exhaustive = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let error = ErrorMetrics {
            samples,
            exhaustive,
            med: read_metric(r, samples)?,
            mae: read_metric(r, samples)?,
            wce: r.uvarint()?,
            wce_rel: read_metric(r, samples)?,
            mre: read_metric(r, samples)?,
            error_prob: read_metric(r, samples)?,
            mse: read_metric(r, samples)?,
            bias: read_metric(r, samples)?,
        };
        let fpga = FpgaReport {
            luts: usize::try_from(r.uvarint()?).ok()?,
            slices: usize::try_from(r.uvarint()?).ok()?,
            depth_levels: u32::try_from(r.uvarint()?).ok()?,
            delay_ns: r.f64_le()?,
            power_mw: r.f64_le()?,
            synth_time_s: r.f64_le()?,
        };
        Some(CachedCharacterization { asic, error, fpga })
    }
}

/// Encode a metric that is usually an exact rational `n / den`: flag 1 +
/// signed varint numerator when the reconstruction is bit-exact, flag 0 +
/// raw 8 bytes otherwise. Decoding recomputes `n as f64 / den as f64`,
/// which [`exact_ratio`] already verified reproduces the original bits.
fn put_metric(out: &mut Vec<u8>, v: f64, den: u64) {
    match exact_ratio(v, den) {
        Some(n) => {
            out.push(1);
            put_ivarint(out, n);
        }
        None => {
            out.push(0);
            put_f64(out, v);
        }
    }
}

fn read_metric(r: &mut ByteReader<'_>, den: u64) -> Option<f64> {
    match r.u8()? {
        1 => {
            let n = r.ivarint()?;
            if den == 0 {
                return None;
            }
            Some(n as f64 / den as f64)
        }
        0 => r.f64_le(),
        _ => None,
    }
}

/// The numerator `n` such that `n as f64 / den as f64` is bit-identical
/// to `v`, when one exists in safe integer range.
fn exact_ratio(v: f64, den: u64) -> Option<i64> {
    if den == 0 {
        return None;
    }
    let den_f = den as f64;
    let scaled = v * den_f;
    if !scaled.is_finite() || scaled.abs() >= 9_007_199_254_740_992.0 {
        return None; // out of exact-integer f64 range (2^53)
    }
    let n = scaled.round() as i64;
    // Bit comparison (not `==`) so -0.0 and 0.0 stay distinct.
    if (n as f64 / den_f).to_bits() == v.to_bits() {
        Some(n)
    } else {
        None
    }
}

/// Bytes the memory tier charges per entry: its measured resident cost.
/// By layout a ring slot is 200 B (the 176-byte
/// [`CachedCharacterization`], its 16-byte key and the reference bit) and
/// an index entry 24 B plus hash-table slack; filling a ring with 5,034 to
/// 209,715 entries grew the resident set by 232–269 B per entry (see
/// `DESIGN.md`, "Characterization cache").
const ENTRY_BYTES: usize = 256;

/// Byte budget of the characterization memory tier: 262,144 entries at
/// 256 B each. Four targets' full paper corpus (4 × 50,340 circuits)
/// sharing one cache directory fill 77% of it, so no workload in this
/// repository evicts.
pub const MEMO_BYTES: usize = 64 << 20;

/// Two-tier (memory + optional disk) cache of [`CachedCharacterization`]s.
#[derive(Debug)]
pub struct CharacterizationCache {
    memo: ClockCache<CachedCharacterization>,
    disk: Option<StoreTier<CachedCharacterization>>,
}

/// File name of the binary store disk tier inside the cache directory.
pub const STORE_FILE: &str = "characterization.afps";

impl CharacterizationCache {
    /// A memory-only cache (per-process; hits across runs of one
    /// [`crate::flow::Flow`] instance).
    pub fn in_memory() -> CharacterizationCache {
        CharacterizationCache {
            memo: ClockCache::new(MEMO_BYTES, |_| ENTRY_BYTES),
            disk: None,
        }
    }

    /// A cache persisted to `dir/characterization.afps`; existing
    /// entries are loaded into the memory tier immediately. An unusable
    /// cache directory (cannot be created, or the cache file cannot be
    /// opened for append) is returned as the underlying I/O error.
    pub fn try_with_disk(dir: &Path) -> std::io::Result<CharacterizationCache> {
        CharacterizationCache::with_budget(dir, MEMO_BYTES)
    }

    /// [`CharacterizationCache::try_with_disk`] with a memory tier of
    /// `budget` bytes. A store larger than the budget keeps the entries
    /// it loads last.
    pub(crate) fn with_budget(dir: &Path, budget: usize) -> std::io::Result<CharacterizationCache> {
        let mut disk = StoreTier::open(dir, STORE_FILE)?;
        let memo = ClockCache::new(budget, |_| ENTRY_BYTES);
        for (key, value) in disk.take_loaded() {
            memo.insert(key, value);
        }
        Ok(CharacterizationCache {
            memo,
            disk: Some(disk),
        })
    }

    /// Entries whose disk append failed since this cache was opened (the
    /// run kept the values in memory; persistence was lost). Always zero
    /// for a memory-only cache.
    pub fn write_errors(&self) -> u64 {
        self.disk.as_ref().map_or(0, StoreTier::write_errors)
    }

    /// The most recent disk-append failure message, if any. The disk
    /// tier only warns on stderr for the *first* failure; this carries
    /// the last one into reports so an operator can see why the warm
    /// tier is degraded. Always `None` for a memory-only cache.
    pub fn last_write_error(&self) -> Option<String> {
        self.disk.as_ref().and_then(StoreTier::last_write_error)
    }

    /// The content key of one characterization: circuit structure (not
    /// name) plus every configuration field that affects the reports.
    pub fn key(
        circuit: &ArithCircuit,
        asic: &afp_asic::AsicConfig,
        fpga: &afp_fpga::FpgaConfig,
        error: &afp_error::ErrorConfig,
    ) -> Key128 {
        CharacterizationCache::key_hashed(
            circuit.kind(),
            circuit.width(),
            circuit.netlist().structural_hash(),
            asic,
            fpga,
            error,
        )
    }

    /// [`CharacterizationCache::key`] of a `kind`/`width` circuit whose
    /// netlist's [`afp_netlist::Netlist::structural_hash`] is
    /// `structural_hash`, for callers that already hashed it.
    pub fn key_hashed(
        kind: ArithKind,
        width: usize,
        structural_hash: u64,
        asic: &afp_asic::AsicConfig,
        fpga: &afp_fpga::FpgaConfig,
        error: &afp_error::ErrorConfig,
    ) -> Key128 {
        let mut h = StableHasher::new();
        h.write_str("characterization");
        h.write_str(kind.mnemonic());
        h.write_usize(width);
        h.write_u64(structural_hash);
        asic.fingerprint(&mut h);
        fpga.fingerprint(&mut h);
        error.fingerprint(&mut h);
        h.finish()
    }

    /// Look up `key`, recording hit/miss in `counters`.
    pub fn get(&self, key: Key128, counters: &Counters) -> Option<CachedCharacterization> {
        let found = self.memo.get(key);
        match found {
            Some(_) => Counters::add(&counters.cache_hits, 1),
            None => Counters::add(&counters.cache_misses, 1),
        }
        found
    }

    /// Non-counting warm check: whether `key` is already in the memory
    /// tier. Used by the serve layer to label responses warm/cold
    /// without distorting hit/miss statistics or eviction order.
    pub fn contains(&self, key: Key128) -> bool {
        self.memo.peek(key).is_some()
    }

    /// Store a freshly computed entry in both tiers, counting the entries
    /// the memory tier evicts for it in `counters.cache_evictions`.
    pub fn insert_counted(&self, key: Key128, value: CachedCharacterization, counters: &Counters) {
        let admission = self.memo.insert(key, value);
        Counters::add(&counters.cache_evictions, admission.evicted);
        if let Some(tier) = &self.disk {
            tier.append(key, &value);
        }
    }

    /// [`CharacterizationCache::insert_counted`] for a caller that keeps
    /// no counters.
    pub fn insert(&self, key: Key128, value: CachedCharacterization) {
        self.insert_counted(key, value, &Counters::default());
    }

    /// Number of entries in the memory tier.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuits::adders;

    fn sample() -> CachedCharacterization {
        let c = adders::loa(8, 3);
        let asic = afp_asic::synthesize_asic(c.netlist(), &afp_asic::AsicConfig::default());
        let fpga = afp_fpga::synthesize_fpga(c.netlist(), &afp_fpga::FpgaConfig::default());
        let error = afp_error::analyze(&c, &afp_error::ErrorConfig::default());
        CachedCharacterization { asic, error, fpga }
    }

    #[test]
    fn bin_round_trip_is_lossless() {
        let v = sample();
        let mut bytes = Vec::new();
        v.encode(&mut bytes);
        let mut r = ByteReader::new(&bytes);
        let back = CachedCharacterization::decode(&mut r).unwrap();
        assert!(r.is_empty(), "decode must consume the whole payload");
        assert_eq!(v, back);
        // Varints and the rational metric packing beat 22 raw 8-byte
        // fields.
        assert!(
            bytes.len() < 22 * 8,
            "binary payload ({} bytes) should beat the fixed-width layout",
            bytes.len()
        );
    }

    #[test]
    fn bin_round_trip_survives_awkward_floats() {
        let mut v = sample();
        v.error.bias = -0.0;
        v.error.mre = f64::NAN;
        v.error.mse = 1.0 / 3.0 + 1e-18; // not an exact multiple of 1/samples
        v.fpga.delay_ns = f64::INFINITY;
        let mut bytes = Vec::new();
        v.encode(&mut bytes);
        let back = CachedCharacterization::decode(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(v.error.bias.to_bits(), back.error.bias.to_bits());
        assert!(back.error.mre.is_nan());
        assert_eq!(v.error.mse.to_bits(), back.error.mse.to_bits());
        assert_eq!(v.fpga.delay_ns, back.fpga.delay_ns);
    }

    #[test]
    fn key_ignores_name_but_not_structure_or_config() {
        let a = adders::loa(8, 3);
        let mut renamed = a.clone();
        renamed.set_name("something-else");
        let asic = afp_asic::AsicConfig::default();
        let fpga = afp_fpga::FpgaConfig::default();
        let err = afp_error::ErrorConfig::default();
        let k = |c: &ArithCircuit, e: &afp_error::ErrorConfig| {
            CharacterizationCache::key(c, &asic, &fpga, e)
        };
        assert_eq!(k(&a, &err), k(&renamed, &err));
        assert_ne!(k(&a, &err), k(&adders::loa(8, 4), &err));
        let other_err = afp_error::ErrorConfig {
            seed: err.seed ^ 1,
            ..err.clone()
        };
        assert_ne!(k(&a, &err), k(&a, &other_err));
    }

    #[test]
    fn key_pins_every_fpga_field_that_affects_reports() {
        // The power model simulates with `activity_passes` random passes
        // from `seed` — both must be part of the content key, or stale
        // entries would be served after a config change.
        let a = adders::loa(8, 3);
        let asic = afp_asic::AsicConfig::default();
        let err = afp_error::ErrorConfig::default();
        let base = afp_fpga::FpgaConfig::default();
        let k = |f: &afp_fpga::FpgaConfig| CharacterizationCache::key(&a, &asic, f, &err);
        let mut passes = base.clone();
        passes.activity_passes += 1;
        assert_ne!(k(&base), k(&passes), "activity_passes must change the key");
        let mut seed = base.clone();
        seed.seed ^= 1;
        assert_ne!(k(&base), k(&seed), "seed must change the key");
        assert_eq!(k(&base), k(&base.clone()), "key is deterministic");
    }

    #[test]
    fn default_config_key_is_pinned() {
        // Keys address persisted store records: any change to what the
        // fingerprints write (field order, a retired slot) orphans every
        // existing cache, so the default-config key is a literal.
        let key = CharacterizationCache::key(
            &adders::loa(8, 3),
            &afp_asic::AsicConfig::default(),
            &afp_fpga::FpgaConfig::default(),
            &afp_error::ErrorConfig::default(),
        );
        assert_eq!(
            key,
            Key128 {
                hi: 0xe845_8e38_b090_11a5,
                lo: 0xb71b_b687_9ca6_c561,
            }
        );
    }

    #[test]
    fn try_with_disk_surfaces_unusable_directories() {
        let dir = std::env::temp_dir().join(format!("afp-core-trydisk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A plain file where the directory should be: create_dir_all fails.
        let blocker = dir.join("not-a-dir");
        std::fs::write(&blocker, b"x").unwrap();
        assert!(CharacterizationCache::try_with_disk(&blocker).is_err());
        // A good directory works.
        assert!(CharacterizationCache::try_with_disk(&dir.join("ok")).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_evicted_entry_is_a_counted_miss_recomputed_bit_for_bit() {
        use crate::record::CharacterizeScratch;
        use crate::request::{characterize_request, request_report, RequestConfig};
        let dir = std::env::temp_dir().join(format!("afp-core-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A memory tier with room for one entry.
        let cache = CharacterizationCache::with_budget(&dir, ENTRY_BYTES).unwrap();
        let (config, rt) = (RequestConfig::default(), afp_runtime::Runtime::serial());
        let mut scratch = CharacterizeScratch::default();
        let mut report = |spec: &str| {
            let circuit = afp_circuits::from_spec_ref(spec).unwrap();
            let record = characterize_request(&circuit, &config, &rt, Some(&cache), &mut scratch);
            request_report(&record).to_json()
        };
        let cold = report("add8:loa:2");
        report("add8:loa:3");
        let again = report("add8:loa:2");
        assert_eq!(again, cold, "an evicted entry is recomputed bit for bit");
        let snap = rt.snapshot();
        assert_eq!(
            (snap.cache_hits, snap.cache_misses, snap.cache_evictions),
            (0, 3, 2)
        );
        assert_eq!(snap.asic_synths, 3);
        drop(cache);

        // The recomputed entry was appended twice; the next open keeps
        // the last write and compacts the duplicate away.
        let store = dir.join(STORE_FILE);
        assert_eq!(afp_store::inspect(&store).unwrap().records, 3);
        let reopened = CharacterizationCache::try_with_disk(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(afp_store::inspect(&store).unwrap().records, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("afp-core-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let v = sample();
        let key = CharacterizationCache::key(
            &adders::loa(8, 3),
            &afp_asic::AsicConfig::default(),
            &afp_fpga::FpgaConfig::default(),
            &afp_error::ErrorConfig::default(),
        );
        {
            let cache = CharacterizationCache::try_with_disk(&dir).unwrap();
            cache.insert(key, v);
        }
        let reopened = CharacterizationCache::try_with_disk(&dir).unwrap();
        let counters = Counters::default();
        assert_eq!(reopened.get(key, &counters), Some(v));
        assert_eq!(counters.snapshot().cache_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
