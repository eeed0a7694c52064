//! Cross-target transfer matrix: train the model zoo on fabric A,
//! evaluate its estimates and candidate pareto coverage on fabric B.
//!
//! This is the regenerator behind EXPERIMENTS.md "Cross-target transfer"
//! — the Xel-FPGAs question asked of every (train, eval) pair in the
//! device-profile registry. One flow runs per target; each cell scores
//! the train target's zoo and candidates against the eval target's ground
//! truth. The diagonal is native quality; off-diagonal cells show how much
//! fidelity and coverage survive a retarget without re-synthesizing a new
//! training subset.
//!
//! Usage: `cargo run --release -p afp-bench --bin cross_target [--quick]`
//!
//! Writes `results/cross_target.csv`.

use afp_bench::render::table;
use afp_bench::{write_csv, Scale};
use afp_circuits::{ArithKind, LibrarySource, LibrarySpec};
use afp_ml::MlModelId;
use approxfpgas::{transfer_matrix, FlowConfig, TargetSet};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    let source = LibrarySource::Generated(LibrarySpec::new(ArithKind::Adder, 8, scale.add8));
    let config = FlowConfig {
        min_subset: 24,
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
    };

    let set = TargetSet::all();
    println!(
        "cross_target: {} targets, add8 x{} library ({} zoo models)\n",
        set.len(),
        scale.add8,
        config.models.len()
    );
    let cells = transfer_matrix(&config, &source, &set).expect("generated libraries stream");

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for cell in &cells {
        let native = cell.train_target == cell.eval_target;
        rows.push(vec![
            cell.train_target.clone(),
            cell.eval_target.clone(),
            format!("{:.3}", cell.mean_fidelity()),
            format!("{:.0}%", 100.0 * cell.mean_coverage()),
            format!("{}", cell.candidates),
            if native {
                "native".to_string()
            } else {
                String::new()
            },
        ]);
        csv_rows.push(vec![
            cell.train_target.clone(),
            cell.eval_target.clone(),
            format!("{:.6}", cell.mean_fidelity()),
            format!("{:.6}", cell.mean_coverage()),
            format!("{}", cell.candidates),
        ]);
    }
    write_csv(
        "cross_target.csv",
        &[
            "train_target",
            "eval_target",
            "mean_fidelity",
            "mean_coverage",
            "candidates",
        ],
        &csv_rows,
    );
    println!(
        "{}",
        table(
            &[
                "train on",
                "evaluate on",
                "fidelity",
                "coverage",
                "candidates",
                ""
            ],
            &rows
        )
    );

    // Summary: worst retarget degradation relative to the native diagonal.
    let native_cov = |t: &str| {
        cells
            .iter()
            .find(|c| c.train_target == t && c.eval_target == t)
            .map(|c| c.mean_coverage())
            .unwrap_or(0.0)
    };
    let mut worst: Option<(&str, &str, f64)> = None;
    for c in &cells {
        if c.train_target == c.eval_target {
            continue;
        }
        let drop = native_cov(&c.eval_target) - c.mean_coverage();
        if worst.is_none_or(|(_, _, w)| drop > w) {
            worst = Some((&c.train_target, &c.eval_target, drop));
        }
    }
    if let Some((a, b, drop)) = worst {
        println!(
            "worst retarget: train {a} -> evaluate {b}, coverage drops {:.0} points \
             vs native",
            100.0 * drop
        );
    }
}
