//! Cross-bit-width generalization (§IV text): fidelity of models trained
//! on the 8x8 multiplier library when estimating 12x12/16x16 libraries,
//! vs models trained at the native width. The paper reports an average
//! drop from 88% to 53%.
//!
//! Usage: `cargo run --release -p afp-bench --bin crossbw [--quick]`

use afp_bench::render::table;
use afp_bench::{run_flow, write_csv, Scale};
use afp_circuits::{ArithKind, LibrarySpec};
use afp_ml::metrics::fidelity;
use afp_ml::MlModelId;
use approxfpgas::record::FpgaParam;
use approxfpgas::FlowConfig;

fn main() {
    let scale = Scale::from_args();
    // The comparison models: a representative strong subset.
    let config = FlowConfig {
        models: vec![
            MlModelId::Ml4,
            MlModelId::Ml11,
            MlModelId::Ml13,
            MlModelId::Ml14,
            MlModelId::Ml18,
        ],
        ..FlowConfig::default()
    };
    let tolerance = config.fidelity_tolerance;
    println!("crossbw: characterizing mult8/mult12/mult16 libraries...");
    let explore = |library: LibrarySpec| run_flow(&config, library);
    // Zoo trained on the 8-bit library; each other width also gets its
    // native-width zoo for the same models.
    let zoo8 = explore(scale.mul8_spec()).zoo;
    let flow12 = explore(LibrarySpec::new(ArithKind::Multiplier, 12, scale.mul12));
    let flow16 = explore(scale.mul16_spec());

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut same_sum = 0.0;
    let mut cross_sum = 0.0;
    let mut n = 0usize;
    for (label, flow) in [("mult12", &flow12), ("mult16", &flow16)] {
        let (recs, val) = (&flow.records, &flow.validate);
        for &model in &config.models {
            for param in FpgaParam::ALL {
                // Cross: 8-bit-trained model estimating this library's
                // validation circuits.
                let mes: Vec<f64> = val.iter().map(|&i| recs[i].fpga_param(param)).collect();
                let est_cross: Vec<f64> = val
                    .iter()
                    .map(|&i| zoo8.estimate(model, param, &recs[i]))
                    .collect();
                let f_cross = fidelity(&est_cross, &mes, tolerance);
                let f_native = flow.zoo.fidelity(model, param).map_or(0.0, |f| f.fidelity);
                same_sum += f_native;
                cross_sum += f_cross;
                n += 1;
                rows.push(vec![
                    label.to_string(),
                    model.label().to_string(),
                    format!("{param:?}"),
                    format!("{:.0}%", 100.0 * f_native),
                    format!("{:.0}%", 100.0 * f_cross),
                ]);
                csv.push(vec![
                    label.to_string(),
                    model.label().to_string(),
                    format!("{param:?}"),
                    format!("{f_native:.4}"),
                    format!("{f_cross:.4}"),
                ]);
            }
        }
    }
    write_csv(
        "crossbw_generalization.csv",
        &[
            "library",
            "model",
            "param",
            "fidelity_native",
            "fidelity_from_8bit",
        ],
        &csv,
    );
    println!(
        "\n{}",
        table(
            &["library", "model", "param", "native-width", "8-bit-trained"],
            &rows
        )
    );
    println!("\n=== cross-bit-width summary ===");
    println!(
        "mean fidelity: native {:.0}% vs 8-bit-trained {:.0}% (paper: 88% -> 53%)",
        100.0 * same_sum / n.max(1) as f64,
        100.0 * cross_sum / n.max(1) as f64
    );
}
