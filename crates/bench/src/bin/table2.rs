//! Table II — top-3 ML models per FPGA parameter plus the best plain
//! ASIC-parameter regression, with their validation fidelities.
//!
//! Usage: `cargo run --release -p afp-bench --bin table2 [--quick]`

use afp_bench::render::table;
use afp_bench::{run_flow, write_csv, Scale};
use afp_ml::MlModelId;
use approxfpgas::record::FpgaParam;
use approxfpgas::FlowConfig;

fn main() {
    let scale = Scale::from_args();
    let spec = scale.mul8_spec();
    println!(
        "Table II: characterizing {} 8x8 multipliers...",
        spec.target_size
    );
    let zoo = run_flow(&FlowConfig::default(), spec).zoo;
    let fid = |m: MlModelId, p: FpgaParam| zoo.fidelity(m, p).map_or(0.0, |f| f.fidelity);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for rank in 0..3 {
        let mut row = vec![format!("top-{}", rank + 1)];
        for param in FpgaParam::ALL {
            let top = zoo.top_models(param, 3, false);
            let m = top[rank];
            row.push(format!("{} ({:.0}%)", m.label(), 100.0 * fid(m, param)));
            csv.push(vec![
                format!("{param:?}"),
                format!("{}", rank + 1),
                m.label().to_string(),
                format!("{:.4}", fid(m, param)),
            ]);
        }
        rows.push(row);
    }
    // The best plain ASIC regression per parameter (the paper's last row).
    let mut row = vec!["ASIC-regr".to_string()];
    for param in FpgaParam::ALL {
        let m = zoo.best_asic_regression(param).expect("ML1-ML3 trained");
        row.push(format!("{} ({:.0}%)", m.label(), 100.0 * fid(m, param)));
        csv.push(vec![
            format!("{param:?}"),
            "asic_regression".to_string(),
            m.label().to_string(),
            format!("{:.4}", fid(m, param)),
        ]);
    }
    rows.push(row);

    write_csv(
        "table2_top_models.csv",
        &["param", "rank", "model", "fidelity"],
        &csv,
    );
    println!(
        "\n{}",
        table(&["rank", "FPGA Latency", "FPGA Power", "FPGA Area"], &rows)
    );
    println!("\npaper reference: ML11/ML4/ML10 (latency ~87-90%), ML11/ML13/ML4 (power ~89-91%), ML4/ML13/ML11 (area ~86-89%)");
}
