//! Versioned binary persistence for fitted regressors.
//!
//! Every model of the zoo can serialize its fitted state to a
//! `(tag, payload)` pair — [`ModelState`] — and be reconstructed exactly
//! by [`restore`]. The encoding reuses the `afp-store` wire primitives
//! (LEB128 varints, raw-bits little-endian `f64`), so round trips are
//! **bit-exact**: a restored model produces byte-identical predictions,
//! including NaN payloads and signed zeros. Decoders are bounds-checked
//! and return `None`/`Err` on truncated or corrupted input — they never
//! panic — which is what lets `.afpm` model files be loaded from
//! untrusted disks.
//!
//! The payload layout is private to each model module (the fitted state
//! fields are private there); this module owns the tag registry, the
//! shared vector/scaler helpers and the [`restore`] dispatch.

use afp_store::bytes::{put_f64, put_uvarint};
use afp_store::ByteReader;

use crate::preprocess::Standardizer;
use crate::{Matrix, Regressor};

/// Codec tag for [`crate::linear::SingleFeature`] (ML1–ML3).
pub const TAG_SINGLE: u8 = 1;
/// Codec tag for [`crate::linear::Ridge`] (ML14).
pub const TAG_RIDGE: u8 = 2;
/// Codec tag for [`crate::linear::BayesianRidge`] (ML11).
pub const TAG_BAYES: u8 = 3;
/// Codec tag for [`crate::linear::Lasso`] (ML12).
pub const TAG_LASSO: u8 = 4;
/// Codec tag for [`crate::linear::LeastAngle`] (ML13).
pub const TAG_LARS: u8 = 5;
/// Codec tag for [`crate::linear::SgdRegressor`] (ML15).
pub const TAG_SGD: u8 = 6;
/// Codec tag for [`crate::pls::PlsRegression`] (ML4).
pub const TAG_PLS: u8 = 7;
/// Codec tag for [`crate::forest::RandomForest`] (ML5).
pub const TAG_FOREST: u8 = 8;
/// Codec tag for [`crate::boost::GradientBoosting`] (ML6).
pub const TAG_BOOST: u8 = 9;
/// Codec tag for [`crate::boost::AdaBoostR2`] (ML7).
pub const TAG_ADA: u8 = 10;
/// Codec tag for [`crate::kernel::GaussianProcess`] (ML8).
pub const TAG_GP: u8 = 11;
/// Codec tag for [`crate::symbolic::SymbolicRegression`] (ML9).
pub const TAG_SYMBOLIC: u8 = 12;
/// Codec tag for [`crate::kernel::KernelRidge`] (ML10).
pub const TAG_KRR: u8 = 13;
/// Codec tag for [`crate::neighbors::KNearest`] (ML16).
pub const TAG_KNN: u8 = 14;
/// Codec tag for [`crate::mlp::Mlp`] (ML17).
pub const TAG_MLP: u8 = 15;
/// Codec tag for [`crate::tree::DecisionTree`] (ML18).
pub const TAG_TREE: u8 = 16;

/// The serialized form of one fitted model: a type tag plus the model's
/// private payload bytes. Produced by [`Regressor::save_state`] and
/// consumed by [`restore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelState {
    /// Type tag (one of the `TAG_*` constants).
    pub tag: u8,
    /// Model-private payload bytes.
    pub payload: Vec<u8>,
}

/// Error restoring a serialized model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The payload was truncated or structurally invalid.
    Truncated,
    /// The tag byte names no known model type (newer writer, or garbage).
    UnknownTag(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "model payload truncated or corrupt"),
            CodecError::UnknownTag(t) => write!(f, "unknown model tag {t}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Reconstruct a model from its `(tag, payload)` pair.
///
/// The payload must be consumed exactly: trailing garbage is rejected as
/// corruption, the same as truncation.
///
/// # Errors
///
/// [`CodecError::UnknownTag`] for an unregistered tag,
/// [`CodecError::Truncated`] for any malformed payload. Never panics.
pub fn restore(tag: u8, payload: &[u8]) -> Result<Box<dyn Regressor>, CodecError> {
    let mut r = ByteReader::new(payload);
    let model: Option<Box<dyn Regressor>> = match tag {
        TAG_SINGLE => crate::linear::SingleFeature::decode_state(&mut r).map(boxed),
        TAG_RIDGE => crate::linear::Ridge::decode_state(&mut r).map(boxed),
        TAG_BAYES => crate::linear::BayesianRidge::decode_state(&mut r).map(boxed),
        TAG_LASSO => crate::linear::Lasso::decode_state(&mut r).map(boxed),
        TAG_LARS => crate::linear::LeastAngle::decode_state(&mut r).map(boxed),
        TAG_SGD => crate::linear::SgdRegressor::decode_state(&mut r).map(boxed),
        TAG_PLS => crate::pls::PlsRegression::decode_state(&mut r).map(boxed),
        TAG_FOREST => crate::forest::RandomForest::decode_state(&mut r).map(boxed),
        TAG_BOOST => crate::boost::GradientBoosting::decode_state(&mut r).map(boxed),
        TAG_ADA => crate::boost::AdaBoostR2::decode_state(&mut r).map(boxed),
        TAG_GP => crate::kernel::GaussianProcess::decode_state(&mut r).map(boxed),
        TAG_SYMBOLIC => crate::symbolic::SymbolicRegression::decode_state(&mut r).map(boxed),
        TAG_KRR => crate::kernel::KernelRidge::decode_state(&mut r).map(boxed),
        TAG_KNN => crate::neighbors::KNearest::decode_state(&mut r).map(boxed),
        TAG_MLP => crate::mlp::Mlp::decode_state(&mut r).map(boxed),
        TAG_TREE => crate::tree::DecisionTree::decode_state(&mut r).map(boxed),
        other => return Err(CodecError::UnknownTag(other)),
    };
    match model {
        Some(m) if r.is_empty() => Ok(m),
        _ => Err(CodecError::Truncated),
    }
}

fn boxed<T: Regressor + 'static>(m: T) -> Box<dyn Regressor> {
    Box::new(m)
}

// ---- shared payload helpers (used by the model modules) ----

/// Append a length-prefixed `f64` vector.
pub(crate) fn put_vec(out: &mut Vec<u8>, v: &[f64]) {
    put_uvarint(out, v.len() as u64);
    for &x in v {
        put_f64(out, x);
    }
}

/// Read a length-prefixed `f64` vector; bounds the declared length by the
/// remaining bytes so corrupt lengths cannot trigger huge allocations.
pub(crate) fn read_vec(r: &mut ByteReader) -> Option<Vec<f64>> {
    let n = r.uvarint()? as usize;
    if n.checked_mul(8)? > r.remaining() {
        return None;
    }
    (0..n).map(|_| r.f64_le()).collect()
}

/// Append a length-prefixed list of `f64` rows.
pub(crate) fn put_rows(out: &mut Vec<u8>, rows: &[Vec<f64>]) {
    put_uvarint(out, rows.len() as u64);
    for row in rows {
        put_vec(out, row);
    }
}

/// Read a length-prefixed list of `f64` rows.
pub(crate) fn read_rows(r: &mut ByteReader) -> Option<Vec<Vec<f64>>> {
    let n = r.uvarint()? as usize;
    // Each row costs at least one length byte.
    if n > r.remaining() {
        return None;
    }
    (0..n).map(|_| read_vec(r)).collect()
}

/// Append the feature-major training rows `train` (`train.row(f)[j]` is
/// feature `f` of row `j`) in the [`put_rows`] format, row by row.
pub(crate) fn put_train(out: &mut Vec<u8>, train: &Matrix) {
    put_uvarint(out, train.cols() as u64);
    for j in 0..train.cols() {
        put_uvarint(out, train.rows() as u64);
        for f in 0..train.rows() {
            put_f64(out, train.get(f, j));
        }
    }
}

/// Read rows written by [`put_train`] back into feature-major form. Rows
/// of unequal length are corrupt.
pub(crate) fn read_train(r: &mut ByteReader) -> Option<Matrix> {
    let rows = read_rows(r)?;
    let width = rows.first().map_or(0, Vec::len);
    if rows.iter().any(|row| row.len() != width) {
        return None;
    }
    Some(Matrix::from_vec(rows.len(), width, rows.concat()).transpose())
}

/// Append an optional fitted standardizer (flag byte + means + stds).
pub(crate) fn put_scaler(out: &mut Vec<u8>, scaler: &Option<Standardizer>) {
    match scaler {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_vec(out, s.means());
            put_vec(out, s.stds());
        }
    }
}

/// Read an optional standardizer written by [`put_scaler`].
pub(crate) fn read_scaler(r: &mut ByteReader) -> Option<Option<Standardizer>> {
    match r.u8()? {
        0 => Some(None),
        1 => {
            let means = read_vec(r)?;
            let stds = read_vec(r)?;
            if means.len() != stds.len() {
                return None;
            }
            Some(Some(Standardizer::from_parts(means, stds)))
        }
        _ => None,
    }
}

/// Append a `usize` as a varint.
pub(crate) fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_uvarint(out, v as u64);
}

/// Read a varint back into `usize`.
pub(crate) fn read_usize(r: &mut ByteReader) -> Option<usize> {
    let v = r.uvarint()?;
    usize::try_from(v).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{build_model, MlModelId};
    use crate::Matrix;

    fn training_set() -> (Matrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        let mut s = 99u64;
        for _ in 0..48 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = ((s >> 20) & 0x3FF) as f64 / 1023.0;
            let b = ((s >> 34) & 0x3FF) as f64 / 1023.0;
            let c = ((s >> 48) & 0x3FF) as f64 / 1023.0;
            rows.push(vec![a, b, c, a * b]);
            ys.push(3.0 * a - b + 2.0 * c * c + 0.25);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), ys)
    }

    #[test]
    fn every_zoo_model_round_trips_bit_exactly() {
        let (x, y) = training_set();
        let columns = crate::zoo::AsicColumns {
            power: 0,
            latency: 1,
            area: 2,
        };
        for id in MlModelId::ALL {
            let mut model = build_model(id, columns);
            model
                .fit(&x, &y)
                .unwrap_or_else(|e| panic!("{id:?} fit: {e}"));
            let state = model
                .save_state()
                .unwrap_or_else(|| panic!("{id:?} must support persistence"));
            let restored = restore(state.tag, &state.payload)
                .unwrap_or_else(|e| panic!("{id:?} restore: {e}"));
            for r in 0..x.rows() {
                let a = model.predict_row(x.row(r));
                let b = restored.predict_row(x.row(r));
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{id:?} row {r}: {a} vs {b} after round trip"
                );
            }
        }
    }

    #[test]
    fn truncated_payloads_error_not_panic() {
        let (x, y) = training_set();
        for id in MlModelId::ALL {
            let columns = crate::zoo::AsicColumns {
                power: 0,
                latency: 1,
                area: 2,
            };
            let mut model = build_model(id, columns);
            model.fit(&x, &y).unwrap();
            let state = model.save_state().unwrap();
            for cut in 0..state.payload.len().min(64) {
                let got = restore(state.tag, &state.payload[..cut]);
                assert!(got.is_err(), "{id:?} accepted a {cut}-byte prefix");
            }
            // Trailing garbage is corruption too.
            let mut long = state.payload.clone();
            long.push(0xAB);
            assert!(
                restore(state.tag, &long).is_err(),
                "{id:?} accepted trailing bytes"
            );
        }
    }

    #[test]
    fn unknown_tag_is_a_loud_error() {
        match restore(0, &[]) {
            Err(CodecError::UnknownTag(0)) => {}
            other => panic!("expected UnknownTag(0), got {:?}", other.err()),
        }
        match restore(200, &[1, 2, 3]) {
            Err(CodecError::UnknownTag(200)) => {}
            other => panic!("expected UnknownTag(200), got {:?}", other.err()),
        }
    }
}
