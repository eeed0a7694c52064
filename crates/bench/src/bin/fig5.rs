//! Fig. 5 — Fidelity of the 18 S/ML models for the three FPGA parameters
//! (latency, power, area), evaluated on the validation split of the 10%
//! subset of the 8x8 multiplier library.
//!
//! Usage: `cargo run --release -p afp-bench --bin fig5 [--quick]`

use afp_bench::render::table;
use afp_bench::{run_flow, write_csv, Scale};
use afp_ml::MlModelId;
use approxfpgas::record::FpgaParam;
use approxfpgas::FlowConfig;

fn main() {
    let scale = Scale::from_args();
    let spec = scale.mul8_spec();
    println!(
        "Fig. 5: characterizing {} 8x8 multipliers and training the 18-model zoo...",
        spec.target_size
    );
    let outcome = run_flow(&FlowConfig::default(), spec);
    println!(
        "trained on {} circuits, validated on {}",
        outcome.train.len(),
        outcome.validate.len()
    );
    let zoo = &outcome.zoo;

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for id in MlModelId::ALL {
        let get = |param: FpgaParam| zoo.fidelity(id, param).map_or(0.0, |f| f.fidelity);
        let (lat, pow, area) = (
            get(FpgaParam::Latency),
            get(FpgaParam::Power),
            get(FpgaParam::Area),
        );
        rows.push(vec![
            id.label().to_string(),
            id.description().to_string(),
            format!("{:.1}%", 100.0 * lat),
            format!("{:.1}%", 100.0 * pow),
            format!("{:.1}%", 100.0 * area),
        ]);
        csv.push(vec![
            id.label().to_string(),
            format!("{lat:.4}"),
            format!("{pow:.4}"),
            format!("{area:.4}"),
        ]);
    }
    write_csv(
        "fig5_fidelity.csv",
        &[
            "model",
            "fidelity_latency",
            "fidelity_power",
            "fidelity_area",
        ],
        &csv,
    );
    println!(
        "\n{}",
        table(&["Id", "Model", "Latency", "Power", "Area"], &rows)
    );
    println!("\n=== Fig. 5 observations (paper) ===");
    println!("- tree-based methods above average, ridge-family best");
    println!("- top fidelities in the high-80s/low-90s");
}
