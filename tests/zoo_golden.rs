//! Per-model goldens for the 18 Table I regressors.
//!
//! Every model is fitted on one fixed feature matrix built from
//! characterized add8 and mul8 records, for each FPGA parameter, and the
//! digest of its `save_state` payload and of its prediction bits is
//! pinned. The records carry real ties (constant width and input columns,
//! two output widths, integer gate counts), which is where the tree
//! fitters' split order matters. The digests were captured before the
//! training kernels were rewritten; any change to a fitted model's bits
//! fails here. One full `train_zoo` fidelity table is pinned the same way,
//! and the zoo memo version is pinned to the digest of both.

use std::sync::OnceLock;

use approxfpgas_suite::circuits::{build_library, ArithKind, LibrarySpec};
use approxfpgas_suite::flow::dataset::{characterize_library, sample_subset};
use approxfpgas_suite::flow::fidelity::{feature_matrix, train_zoo};
use approxfpgas_suite::flow::record::{CircuitRecord, FeatureLayout, FpgaParam};
use approxfpgas_suite::flow::ZOO_MEMO_VERSION;
use approxfpgas_suite::ml::{build_model, Matrix, MlModelId};
use approxfpgas_suite::runtime::StableHasher;

fn records() -> &'static [CircuitRecord] {
    static RECORDS: OnceLock<Vec<CircuitRecord>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let mut out = Vec::new();
        for kind in [ArithKind::Adder, ArithKind::Multiplier] {
            let lib = build_library(&LibrarySpec::new(kind, 8, 80));
            out.extend(characterize_library(
                &lib,
                &approxfpgas_suite::asic::AsicConfig::default(),
                &approxfpgas_suite::fpga::FpgaConfig::default(),
                &approxfpgas_suite::error::ErrorConfig::default(),
            ));
        }
        out
    })
}

/// Hex digest of a hasher's 128-bit key.
fn hex(h: &StableHasher) -> String {
    let k = h.finish();
    format!("{:016x}{:016x}", k.hi, k.lo)
}

/// Fit `id` on the fixed training rows for every FPGA parameter and
/// digest its saved state plus its predictions on training and held-out
/// rows.
fn model_digest(id: MlModelId) -> String {
    let records = records();
    let layout = FeatureLayout::standard();
    let train = sample_subset(records.len(), 0.7, 1, 0x601D);
    let held: Vec<usize> = (0..records.len()).filter(|i| !train.contains(i)).collect();
    let x_train = feature_matrix(records, &train, &layout);
    let x_held = feature_matrix(records, &held, &layout);
    let mut h = StableHasher::new();
    for param in FpgaParam::ALL {
        let y: Vec<f64> = train
            .iter()
            .map(|&i| records[i].fpga_param(param))
            .collect();
        let mut model = build_model(id, layout.asic_columns());
        model
            .fit(&x_train, &y)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let state = model.save_state().expect("every Table I model saves");
        h.write_u8(state.tag);
        h.write_usize(state.payload.len());
        h.write_bytes(&state.payload);
        for x in [&x_train, &x_held] {
            predictions_into(&mut h, &model.predict(x), x);
        }
    }
    hex(&h)
}

fn predictions_into(h: &mut StableHasher, pred: &[f64], x: &Matrix) {
    assert_eq!(pred.len(), x.rows());
    for &p in pred {
        h.write_u64(p.to_bits());
    }
}

/// Digests captured before the training-kernel rewrite, Table I order.
const GOLDEN: [(&str, &str); 18] = [
    ("ML1", "04c9a610e1a69df1974133e82d190669"),
    ("ML2", "0d73027a4f5f4ba2cf9184d1483a4a4c"),
    ("ML3", "665e0b89ea27ee49e779ba9977bcf5b0"),
    ("ML4", "4b9c4a7f0cd0b0776f0526b7a93c14dc"),
    ("ML5", "c3d188da5a2a0597a1cacbd47b830b79"),
    ("ML6", "92ca048f2d0fcd18e564962aa82afab8"),
    ("ML7", "76b3091c522a85d3f8991c3b936c025c"),
    ("ML8", "eb9a55bf02241321df33daf75b1abe33"),
    ("ML9", "d0e03f40d5a7e24c27534b103ded5bdc"),
    ("ML10", "6f1b244cb48398352178be12b7532a3d"),
    ("ML11", "945344d1a7664ef999b0c06dd1513128"),
    ("ML12", "14cb9ab1005f0b8614889924da312c87"),
    ("ML13", "7e6795a4a84e3eda96d1d40596812892"),
    ("ML14", "97a14ca34274d9bfda7fd3cf56246e28"),
    ("ML15", "4e8962c418cbf20d59e3645d04d74375"),
    ("ML16", "8cf80a0206ef2439ee0fb4e1bf66969d"),
    ("ML17", "9c36882a00f0b48a80b85084d01bae2c"),
    ("ML18", "c8b8644a070203fe44083b3a5184f65f"),
];

#[test]
fn every_table_one_model_fits_to_its_golden_bits() {
    let got: Vec<(&str, String)> = MlModelId::ALL
        .iter()
        .map(|&id| (id.label(), model_digest(id)))
        .collect();
    for ((label, digest), (want_label, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(*label, want_label);
        assert_eq!(digest, want, "{label} changed its fitted bits");
    }
}

/// Digest of a whole `train_zoo` fidelity table (all 18 models × 3
/// parameters), every field compared by its bits.
const GOLDEN_FIDELITY_TABLE: &str = "a5b064261a69bb0ab43934ae965ca5fc";

#[test]
fn train_zoo_fidelity_table_is_bit_identical() {
    let records = records();
    let subset = sample_subset(records.len(), 0.8, 1, 0xF1DE);
    let cut = subset.len() * 3 / 4;
    let zoo = train_zoo(
        records,
        &subset[..cut],
        &subset[cut..],
        &MlModelId::ALL,
        0.01,
    );
    assert_eq!(zoo.fidelities.len(), 18 * 3);
    let mut h = StableHasher::new();
    for f in &zoo.fidelities {
        h.write_bytes(f.model.label().as_bytes());
        h.write_bytes(f.param.label().as_bytes());
        for v in [f.fidelity, f.r2, f.mae, f.pearson] {
            h.write_u64(v.to_bits());
        }
    }
    assert_eq!(hex(&h), GOLDEN_FIDELITY_TABLE);
}

/// The zoo memo version and the digest of the goldens above, pinned as a
/// pair. A memo key hashes the training inputs but not the trainers, so
/// a trainer that fits new bits must bump `ZOO_MEMO_VERSION` or warm
/// flows would keep loading zoos the old trainer fitted. Re-capturing the
/// goldens changes the digest and fails here until the version moves
/// with it.
const MEMO_VERSION_PIN: (u32, &str) = (1, "1471d863dec231b80f72b86ae31f2be1");

#[test]
fn recaptured_goldens_force_a_zoo_memo_version_bump() {
    let mut h = StableHasher::new();
    for (label, digest) in GOLDEN {
        h.write_str(label);
        h.write_str(digest);
    }
    h.write_str(GOLDEN_FIDELITY_TABLE);
    assert_eq!(
        (ZOO_MEMO_VERSION, hex(&h).as_str()),
        MEMO_VERSION_PIN,
        "the model goldens changed: bump ZOO_MEMO_VERSION and re-pin both"
    );
}
