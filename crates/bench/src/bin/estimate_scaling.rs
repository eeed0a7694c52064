//! Batch-estimation measurement: microseconds per 1,000 rows of
//! [`afp_ml::Regressor::predict`] for the zoo's slow-row models — random forest
//! (ML5), gradient boosting (ML6), k-nearest neighbours (ML16) and the
//! Gaussian process (ML8) — on the feature matrix of a characterized mul8
//! library, each model trained on 400 of its rows. `rf_rows` times the
//! forest's `predict_row` over the same rows, one at a time.
//!
//! This is the regenerator behind EXPERIMENTS.md "Batch estimation" and
//! the `BENCH_estimate.json` pins. That every batch `predict` is bit-equal
//! to `predict_row` on every row is pinned by the `afp-ml` proptest
//! `batch_predict_is_bit_equal_to_predict_row`, not here.
//!
//! Usage: `cargo run --release -p afp-bench --bin estimate_scaling [--quick]`
//!
//! Writes `results/estimate_scaling.csv` (`case,metric,value`).

use afp_bench::{emit, time_us};
use afp_circuits::{build_library, ArithKind, LibrarySpec};
use afp_ml::{build_model, MlModelId};
use approxfpgas::dataset::{characterize_library, sample_subset};
use approxfpgas::fidelity::feature_matrix;
use approxfpgas::{FeatureLayout, FpgaParam};

/// Circuits of the estimated library, in `--quick` mode too: the time
/// per row depends on the training rows, not on the library.
const LIBRARY: usize = 1000;
/// Training rows, about what the paper-full flow trains on.
const TRAIN_ROWS: usize = 400;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (iters, runs) = if quick { (3, 3) } else { (10, 5) };
    let library = build_library(&LibrarySpec::new(ArithKind::Multiplier, 8, LIBRARY));
    let records = characterize_library(
        &library,
        &Default::default(),
        &Default::default(),
        &Default::default(),
    );
    let layout = FeatureLayout::standard();
    let all: Vec<usize> = (0..records.len()).collect();
    let x = feature_matrix(&records, &all, &layout);
    let train = sample_subset(records.len(), 0.0, TRAIN_ROWS, 7);
    let x_train = feature_matrix(&records, &train, &layout);
    let y_train: Vec<f64> = train
        .iter()
        .map(|&i| records[i].fpga_param(FpgaParam::Latency))
        .collect();
    let cases = [
        ("rf", MlModelId::Ml5),
        ("gb", MlModelId::Ml6),
        ("knn", MlModelId::Ml16),
        ("gp", MlModelId::Ml8),
    ];
    let models: Vec<_> = cases
        .iter()
        .map(|&(name, id)| {
            let mut model = build_model(id, layout.asic_columns());
            model
                .fit(&x_train, &y_train)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            model
        })
        .collect();

    println!(
        "estimate_scaling: {} rows, {} training rows, {iters} iters x {runs} runs (median)\n",
        x.rows(),
        x_train.rows()
    );
    // One untimed pass first: the first timed case of a fresh process
    // read about 2x its steady state.
    for model in &models {
        std::hint::black_box(model.predict(&x));
    }
    let per_1k = 1000.0 / x.rows() as f64;
    let mut rows = Vec::new();
    for ((name, _), model) in cases.iter().zip(&models) {
        let us = time_us(iters, runs, || {
            std::hint::black_box(model.predict(std::hint::black_box(&x)));
        });
        rows.extend([
            (*name, "rows", x.rows() as f64),
            (*name, "predict_us_per_1k", us * per_1k),
        ]);
    }
    // The random forest's row-by-row walk over the same rows: the
    // lockstep batch must stay well ahead of it.
    let forest = &models[0];
    let us = time_us(iters, runs, || {
        let x = std::hint::black_box(&x);
        let rows: Vec<f64> = (0..x.rows())
            .map(|r| forest.predict_row(x.row(r)))
            .collect();
        std::hint::black_box(rows);
    });
    rows.extend([
        ("rf_rows", "rows", x.rows() as f64),
        ("rf_rows", "predict_us_per_1k", us * per_1k),
    ]);
    emit("estimate_scaling", &rows);
}
