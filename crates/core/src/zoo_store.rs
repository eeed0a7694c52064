//! Persisted trained zoos: the `.afpm` model container.
//!
//! A `.afpm` file is an [`afp_store`] frame file (same CRC-checked
//! framing, same sealed-index footer as the circuit store) whose records
//! carry a trained [`TrainedZoo`] instead of characterized circuits:
//!
//! * one **meta record** (`Key128 { hi: 0, lo: 0 }`) holding the feature
//!   layout's column names, the FPGA target identity the ground truth was
//!   synthesized for, the coverage list of `(kind, width)` pairs the
//!   training library spanned, and the validation fidelity table;
//! * one **model record** per trained `(model, parameter)` pair
//!   (`Key128 { hi: 1, lo: model_idx << 8 | param_idx }`) whose payload
//!   is the model's codec tag byte followed by its
//!   [`afp_ml::ModelState`] payload.
//!
//! A flow's zoo memo is a plain `.afpm` named after its training key,
//! `cache_dir/zoo-<32 hex digits>.afpm`, bounded by [`ZOO_MEMO_BYTES`].
//! [`load_zoo`] skips the reserved key space, where earlier releases'
//! memos kept their key, so those still serve under `afp serve --models`.
//!
//! Loading is deliberately loud: a record-version mismatch, an unsealed
//! (interrupted) file, a layout whose column names drifted from
//! [`FeatureLayout::standard`], or a payload the codec rejects all fail
//! with a [`ZooStoreError`] that names the problem — never a silently
//! wrong estimate. Model payloads round-trip bit-exactly (see
//! [`afp_ml::codec`]), so an estimate served from a loaded zoo equals the
//! estimate the training process would have produced, to the last bit.

use std::io;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use afp_circuits::ArithKind;
use afp_ml::{MlModelId, Regressor};
use afp_runtime::Key128;
use afp_store::bytes::{put_f64, put_uvarint};
use afp_store::{inspect, ByteReader, FrameStream, StoreWriter};

use crate::fidelity::{FidelityRecord, TrainedZoo};
use crate::record::{FeatureLayout, FpgaParam};

/// Record-payload version of the `.afpm` container. Bump when the meta
/// or model payload encoding changes; readers refuse other versions.
pub const AFPM_RECORD_VERSION: u32 = 1;

/// Byte bound on the zoo memo files of one `cache_dir`: the memos of
/// four 4-target sweeps of the full paper corpus, about 3.8 MB each
/// (measured sizes in DESIGN.md "Zoo memo").
pub const ZOO_MEMO_BYTES: u64 = 64 << 20;

/// Version hashed into every zoo memo key: bumping it turns every memo on
/// disk into a miss. Bump it whenever a trainer fits different bits from
/// the same inputs — `tests/zoo_golden.rs` pins it next to the digest of
/// its per-model goldens, so re-capturing those forces the bump.
pub const ZOO_MEMO_VERSION: u32 = 1;

/// Errors from saving or loading a `.afpm` model container.
#[derive(Debug)]
pub enum ZooStoreError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file exists but is not a usable `.afpm` container — wrong
    /// version, unsealed, corrupt, or semantically inconsistent. The
    /// message names the exact problem.
    Format(String),
}

impl std::fmt::Display for ZooStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZooStoreError::Io(e) => write!(f, "model store i/o error: {e}"),
            ZooStoreError::Format(msg) => write!(f, "model store format error: {msg}"),
        }
    }
}

impl std::error::Error for ZooStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ZooStoreError::Io(e) => Some(e),
            ZooStoreError::Format(_) => None,
        }
    }
}

impl From<io::Error> for ZooStoreError {
    fn from(e: io::Error) -> ZooStoreError {
        ZooStoreError::Io(e)
    }
}

/// A zoo loaded from (or about to be saved to) a `.afpm` container,
/// together with the serving metadata the file carries alongside the
/// models themselves.
pub struct SavedZoo {
    /// The trained models and their validation fidelities.
    pub zoo: TrainedZoo,
    /// FPGA target identity the training ground truth was synthesized
    /// for (see [`afp_fpga::target`]). Serving only answers estimate
    /// requests whose target matches.
    pub target: String,
    /// `(kind, width)` pairs the training library spanned. Requests
    /// outside this coverage fall back to full characterization.
    pub coverage: Vec<(ArithKind, usize)>,
}

impl SavedZoo {
    /// Whether the training library covered this circuit shape.
    pub fn covers(&self, kind: ArithKind, width: usize) -> bool {
        self.coverage.iter().any(|&(k, w)| k == kind && w == width)
    }
}

const META_KEY: Key128 = Key128 { hi: 0, lo: 0 };
const MODEL_KEY_HI: u64 = 1;

fn model_index(model: MlModelId) -> u64 {
    MlModelId::ALL.iter().position(|&m| m == model).unwrap_or(0) as u64
}

fn param_index(param: FpgaParam) -> u64 {
    FpgaParam::ALL.iter().position(|&p| p == param).unwrap_or(0) as u64
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_str(r: &mut ByteReader) -> Option<String> {
    let len = usize::try_from(r.uvarint()?).ok()?;
    if len > r.remaining() {
        return None;
    }
    String::from_utf8(r.bytes(len)?.to_vec()).ok()
}

fn encode_meta(zoo: &TrainedZoo, target: &str, coverage: &[(ArithKind, usize)]) -> Vec<u8> {
    let mut out = Vec::new();
    let names = zoo.layout().names();
    put_uvarint(&mut out, names.len() as u64);
    for name in names {
        put_str(&mut out, name);
    }
    put_str(&mut out, target);
    put_uvarint(&mut out, coverage.len() as u64);
    for &(kind, width) in coverage {
        out.push(kind.code());
        put_uvarint(&mut out, width as u64);
    }
    put_uvarint(&mut out, zoo.fidelities.len() as u64);
    for f in &zoo.fidelities {
        out.push(model_index(f.model) as u8);
        out.push(param_index(f.param) as u8);
        put_f64(&mut out, f.fidelity);
        put_f64(&mut out, f.r2);
        put_f64(&mut out, f.mae);
        put_f64(&mut out, f.pearson);
    }
    out
}

struct Meta {
    target: String,
    coverage: Vec<(ArithKind, usize)>,
    fidelities: Vec<FidelityRecord>,
}

fn decode_meta(payload: &[u8]) -> Result<Meta, ZooStoreError> {
    let bad = |what: &str| ZooStoreError::Format(format!("meta record: {what}"));
    let mut r = ByteReader::new(payload);
    let expected = FeatureLayout::standard();
    let n_names = r.uvarint().ok_or_else(|| bad("truncated"))? as usize;
    if n_names != expected.names().len() {
        return Err(ZooStoreError::Format(format!(
            "feature layout has {n_names} columns, this binary expects {} — \
             the zoo was trained by an incompatible build; retrain and re-save",
            expected.names().len()
        )));
    }
    for want in expected.names() {
        let got = read_str(&mut r).ok_or_else(|| bad("truncated feature name"))?;
        if got != *want {
            return Err(ZooStoreError::Format(format!(
                "feature column '{got}' where this binary expects '{want}' — \
                 the zoo was trained by an incompatible build; retrain and re-save"
            )));
        }
    }
    let target = read_str(&mut r).ok_or_else(|| bad("truncated target"))?;
    let n_cov = r.uvarint().ok_or_else(|| bad("truncated coverage"))? as usize;
    let mut coverage = Vec::with_capacity(n_cov.min(r.remaining()));
    for _ in 0..n_cov {
        let kind = ArithKind::from_code(r.u8().ok_or_else(|| bad("truncated coverage"))?)
            .ok_or_else(|| bad("unknown circuit kind code"))?;
        let width = usize::try_from(r.uvarint().ok_or_else(|| bad("truncated coverage"))?)
            .map_err(|_| bad("coverage width overflows"))?;
        coverage.push((kind, width));
    }
    let n_fid = r.uvarint().ok_or_else(|| bad("truncated fidelities"))? as usize;
    let mut fidelities = Vec::with_capacity(n_fid.min(r.remaining()));
    for _ in 0..n_fid {
        let mi = r.u8().ok_or_else(|| bad("truncated fidelity row"))? as usize;
        let pi = r.u8().ok_or_else(|| bad("truncated fidelity row"))? as usize;
        let model = *MlModelId::ALL
            .get(mi)
            .ok_or_else(|| bad("fidelity row names an unknown model"))?;
        let param = *FpgaParam::ALL
            .get(pi)
            .ok_or_else(|| bad("fidelity row names an unknown parameter"))?;
        fidelities.push(FidelityRecord {
            model,
            param,
            fidelity: r.f64_le().ok_or_else(|| bad("truncated fidelity row"))?,
            r2: r.f64_le().ok_or_else(|| bad("truncated fidelity row"))?,
            mae: r.f64_le().ok_or_else(|| bad("truncated fidelity row"))?,
            pearson: r.f64_le().ok_or_else(|| bad("truncated fidelity row"))?,
        });
    }
    if !r.is_empty() {
        return Err(bad("trailing bytes after fidelity table"));
    }
    Ok(Meta {
        target,
        coverage,
        fidelities,
    })
}

/// Save a trained zoo (plus its serving metadata) as a sealed `.afpm`
/// container at `path`. The write is atomic — a crash mid-save leaves
/// any existing file untouched. Returns the number of model records
/// written.
///
/// Every trained regressor must support persistence ([`Regressor::
/// save_state`] returns `Some`); a zoo holding a non-persistable model
/// (e.g. a chaos-wrapped regressor) fails loudly rather than silently
/// saving with holes in its coverage.
pub fn save_zoo(
    path: &Path,
    zoo: &TrainedZoo,
    target: &str,
    coverage: &[(ArithKind, usize)],
) -> Result<u64, ZooStoreError> {
    let mut writer = StoreWriter::create_atomic(path, AFPM_RECORD_VERSION)?;
    writer.append(META_KEY, &encode_meta(zoo, target, coverage))?;
    let mut saved = 0u64;
    for (model, param, reg) in zoo.trained_models() {
        let state = reg.save_state().ok_or_else(|| {
            ZooStoreError::Format(format!(
                "{} ({}) does not support persistence; refusing to save a partial zoo",
                model.label(),
                reg.name()
            ))
        })?;
        let mut payload = Vec::with_capacity(1 + state.payload.len());
        payload.push(state.tag);
        payload.extend_from_slice(&state.payload);
        let key = Key128 {
            hi: MODEL_KEY_HI,
            lo: (model_index(model) << 8) | param_index(param),
        };
        writer.append(key, &payload)?;
        saved += 1;
    }
    writer.finish_sealed()?;
    Ok(saved)
}

fn memo_path(dir: &Path, key: Key128) -> PathBuf {
    dir.join(format!("zoo-{:016x}{:016x}.afpm", key.hi, key.lo))
}

/// Whether `name` is `zoo-<32 lowercase hex digits>.afpm`.
fn is_memo_name(name: &str) -> bool {
    let hex = name
        .strip_prefix("zoo-")
        .and_then(|n| n.strip_suffix(".afpm"));
    hex.is_some_and(|h| h.len() == 32 && h.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
}

/// The memo of training key `key` in `dir`, if there is one that loads.
pub(crate) fn load_memo(dir: &Path, key: Key128) -> Option<SavedZoo> {
    load_zoo(&memo_path(dir, key)).ok()
}

/// Save `zoo` as the memo of training key `key` in `dir`, then delete
/// the oldest-modified other memos until all fit in [`ZOO_MEMO_BYTES`].
/// Returns the failures: the save, the listing, each delete. No other
/// file is ever deleted, nor the memo just written.
pub(crate) fn save_memo(
    dir: &Path,
    key: Key128,
    zoo: &TrainedZoo,
    target: &str,
    coverage: &[(ArithKind, usize)],
) -> u64 {
    let path = memo_path(dir, key);
    let saved = save_zoo(&path, zoo, target, coverage);
    let (Ok(_), Ok(entries)) = (saved, std::fs::read_dir(dir)) else {
        return 1;
    };
    let mut memos: Vec<(SystemTime, PathBuf, u64)> = entries
        .flatten()
        .filter(|entry| entry.file_name().to_str().is_some_and(is_memo_name))
        .filter_map(|entry| {
            let meta = entry.metadata().ok().filter(|m| m.is_file())?;
            let modified = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            Some((modified, entry.path(), meta.len()))
        })
        .collect();
    memos.sort();
    let mut total: u64 = memos.iter().map(|&(_, _, len)| len).sum();
    let mut errors = 0;
    for (_, old, len) in memos.into_iter().filter(|(_, old, _)| *old != path) {
        if total <= ZOO_MEMO_BYTES {
            break;
        }
        match std::fs::remove_file(&old) {
            Ok(()) => total -= len,
            Err(_) => errors += 1,
        }
    }
    errors
}

/// Load a `.afpm` container saved by [`save_zoo`].
///
/// Fails loudly on a record-version mismatch ("re-train, don't guess"),
/// an unsealed or truncated file (an interrupted save), a drifted
/// feature layout, and any model payload the codec rejects.
pub fn load_zoo(path: &Path) -> Result<SavedZoo, ZooStoreError> {
    let info = inspect(path)?;
    if info.record_version != AFPM_RECORD_VERSION {
        return Err(ZooStoreError::Format(format!(
            "{} was written with model-record version {}, this binary reads \
             version {AFPM_RECORD_VERSION}; retrain and re-save the zoo",
            path.display(),
            info.record_version
        )));
    }
    if !info.sealed || info.truncated {
        return Err(ZooStoreError::Format(format!(
            "{} is not a sealed model container (interrupted save?); \
             retrain and re-save the zoo",
            path.display()
        )));
    }
    let mut meta: Option<Meta> = None;
    let mut models: Vec<((MlModelId, FpgaParam), Box<dyn Regressor>)> = Vec::new();
    let mut stream = FrameStream::open(path)?;
    for record in stream.by_ref() {
        if record.key == META_KEY {
            meta = Some(decode_meta(&record.payload)?);
            continue;
        }
        if record.key.hi != MODEL_KEY_HI {
            // Reserved key space (an earlier release's memo key, or a
            // later release's records): skip.
            continue;
        }
        let mi = (record.key.lo >> 8) as usize;
        let pi = (record.key.lo & 0xFF) as usize;
        let (Some(&model), Some(&param)) = (MlModelId::ALL.get(mi), FpgaParam::ALL.get(pi)) else {
            return Err(ZooStoreError::Format(format!(
                "model record key {:#x} names an unknown (model, parameter) pair",
                record.key.lo
            )));
        };
        let Some((&tag, state)) = record.payload.split_first() else {
            return Err(ZooStoreError::Format(format!(
                "empty model record for {}",
                model.label()
            )));
        };
        let reg = afp_ml::restore(tag, state).map_err(|e| {
            ZooStoreError::Format(format!(
                "model record for {} / {}: {e}",
                model.label(),
                param.label()
            ))
        })?;
        models.push(((model, param), reg));
    }
    if stream.truncated() {
        return Err(ZooStoreError::Format(format!(
            "{} has a corrupt record frame; retrain and re-save the zoo",
            path.display()
        )));
    }
    let Some(meta) = meta else {
        return Err(ZooStoreError::Format(
            "missing meta record — not a model container".to_string(),
        ));
    };
    if models.is_empty() {
        return Err(ZooStoreError::Format(
            "container holds no model records".to_string(),
        ));
    }
    Ok(SavedZoo {
        zoo: TrainedZoo::from_parts(FeatureLayout::standard(), models, meta.fidelities),
        target: meta.target,
        coverage: meta.coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{characterize_library, sample_subset, train_validate_split};
    use crate::fidelity::train_zoo;
    use crate::record::{extract_features, CircuitRecord};
    use afp_circuits::{build_library, LibrarySpec};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("afp-zoo-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn trained() -> (Vec<CircuitRecord>, TrainedZoo) {
        let lib = build_library(&LibrarySpec::new(ArithKind::Adder, 8, 60));
        let records = characterize_library(
            &lib,
            &afp_asic::AsicConfig::default(),
            &afp_fpga::FpgaConfig::default(),
            &afp_error::ErrorConfig::default(),
        );
        let subset = sample_subset(records.len(), 0.5, 24, 7);
        let (train, val) = train_validate_split(&subset, 0.8, 7);
        let models = [
            MlModelId::Ml1,
            MlModelId::Ml4,
            MlModelId::Ml14,
            MlModelId::Ml16,
            MlModelId::Ml18,
        ];
        let zoo = train_zoo(&records, &train, &val, &models, 0.01);
        (records, zoo)
    }

    #[test]
    fn round_trip_preserves_every_estimate_bit_exactly() {
        let (records, zoo) = trained();
        let path = tmp("roundtrip.afpm");
        let coverage = vec![(ArithKind::Adder, 8)];
        let saved = save_zoo(&path, &zoo, "lut6-dsp", &coverage).unwrap();
        assert_eq!(saved, 5 * 3, "every (model, param) pair persists");

        let loaded = load_zoo(&path).unwrap();
        assert_eq!(loaded.target, "lut6-dsp");
        assert!(loaded.covers(ArithKind::Adder, 8));
        assert!(!loaded.covers(ArithKind::Multiplier, 8));
        assert_eq!(loaded.zoo.fidelities.len(), zoo.fidelities.len());
        for (a, b) in zoo.fidelities.iter().zip(&loaded.zoo.fidelities) {
            assert_eq!(a.model, b.model);
            assert_eq!(a.param, b.param);
            assert_eq!(a.fidelity.to_bits(), b.fidelity.to_bits());
        }
        let layout = zoo.layout();
        for rec in records.iter().take(10) {
            let features = extract_features(rec, layout);
            for (model, param, _) in zoo.trained_models() {
                let before = zoo.estimate_row(model, param, &features).unwrap();
                let after = loaded.zoo.estimate_row(model, param, &features).unwrap();
                assert_eq!(
                    before.to_bits(),
                    after.to_bits(),
                    "{model:?}/{param:?} drifted across save/load"
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_mismatch_is_a_loud_error() {
        let path = tmp("wrong-version.afpm");
        let mut w = StoreWriter::create(&path, AFPM_RECORD_VERSION + 1).unwrap();
        w.append(META_KEY, b"whatever").unwrap();
        w.finish_sealed().unwrap();
        let Err(err) = load_zoo(&path) else {
            panic!("version mismatch must not load");
        };
        let msg = err.to_string();
        assert!(msg.contains("version"), "unhelpful error: {msg}");
        assert!(msg.contains("retrain"), "unhelpful error: {msg}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unsealed_file_is_rejected() {
        let (_, zoo) = trained();
        let path = tmp("unsealed.afpm");
        // Simulate an interrupted save: records but no seal.
        let mut w = StoreWriter::create(&path, AFPM_RECORD_VERSION).unwrap();
        w.append(META_KEY, &encode_meta(&zoo, "t", &[])).unwrap();
        w.finish().unwrap();
        let Err(err) = load_zoo(&path) else {
            panic!("unsealed file must not load");
        };
        assert!(err.to_string().contains("sealed"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_model_payload_is_rejected_not_panicking() {
        let (_, zoo) = trained();
        let path = tmp("corrupt.afpm");
        save_zoo(&path, &zoo, "t", &[(ArithKind::Adder, 8)]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the middle of the data region. The CRC layer
        // catches it as a truncated scan, which load reports loudly.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_zoo(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memo_names_are_exactly_the_keyed_layout() {
        let key = Key128 {
            hi: 0x0123_4567_89ab_cdef,
            lo: 0xfedc_ba98_7654_3210,
        };
        let path = memo_path(Path::new("dir"), key);
        let name = path.file_name().unwrap().to_str().unwrap();
        assert_eq!(name, "zoo-0123456789abcdeffedcba9876543210.afpm");
        assert!(is_memo_name(name));
        for other in [
            "zoo.afpm",
            "characterization.afps",
            "zoo-0123456789abcdeffedcba9876543210.afpm.tmp",
            "zoo-0123456789ABCDEFFEDCBA9876543210.afpm",
            "zoo-0123456789abcdeffedcba987654321.afpm",
            "zoo-0123456789abcdeffedcba987654321g.afpm",
        ] {
            assert!(!is_memo_name(other), "{other}");
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        match load_zoo(Path::new("/nonexistent/zoo.afpm")) {
            Err(ZooStoreError::Io(_)) => {}
            other => panic!("expected io error, got {:?}", other.map(|_| ())),
        }
    }
}
