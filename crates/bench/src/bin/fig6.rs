//! Fig. 6 — Correlation of estimated vs measured FPGA parameters for the
//! top-3 models on the 16x16 multiplier library (including the latency
//! bias observation).
//!
//! Usage: `cargo run --release -p afp-bench --bin fig6 [--quick]`

use afp_bench::render::{scatter, table, Series};
use afp_bench::{run_flow, write_csv, Scale};
use afp_ml::metrics::pearson;
use approxfpgas::record::FpgaParam;
use approxfpgas::FlowConfig;

fn main() {
    let scale = Scale::from_args();
    let spec = scale.mul16_spec();
    println!(
        "Fig. 6: characterizing {} 16x16 multipliers...",
        spec.target_size
    );
    let outcome = run_flow(&FlowConfig::default(), spec);
    let (records, zoo) = (&outcome.records, &outcome.zoo);

    let mut summary_rows = Vec::new();
    let mut csv = Vec::new();
    for param in FpgaParam::ALL {
        let mut top = zoo.top_models(param, 3, false);
        if let Some(asic_model) = zoo.best_asic_regression(param) {
            top.push(asic_model);
        }
        for model in top {
            let est = zoo.estimate_all(model, param, records);
            let mes: Vec<f64> = records.iter().map(|r| r.fpga_param(param)).collect();
            let corr = pearson(&est, &mes);
            let bias: f64 = est
                .iter()
                .zip(&mes)
                .map(|(e, m)| (e - m) / m.max(1e-9))
                .sum::<f64>()
                / est.len() as f64;
            summary_rows.push(vec![
                format!("{param:?}"),
                model.label().to_string(),
                format!("{corr:.3}"),
                format!("{:+.1}%", 100.0 * bias),
            ]);
            for (i, (e, m)) in est.iter().zip(&mes).enumerate().take(400) {
                csv.push(vec![
                    format!("{param:?}"),
                    model.label().to_string(),
                    format!("{i}"),
                    format!("{e:.5}"),
                    format!("{m:.5}"),
                ]);
            }
            if model == zoo.top_models(param, 1, false)[0] {
                let pts: Vec<(f64, f64)> = mes.iter().zip(&est).map(|(&m, &e)| (m, e)).collect();
                let diag_hi = pts.iter().map(|p| p.0.max(p.1)).fold(0.0f64, f64::max);
                println!(
                    "\n{param:?} — {} estimated vs measured ('*', diagonal '+'):\n{}",
                    model.label(),
                    scatter(
                        &[
                            Series {
                                glyph: '*',
                                label: "circuits".into(),
                                points: pts
                            },
                            Series {
                                glyph: '+',
                                label: "ideal".into(),
                                points: (0..20)
                                    .map(|k| {
                                        let v = diag_hi * k as f64 / 19.0;
                                        (v, v)
                                    })
                                    .collect(),
                            },
                        ],
                        64,
                        14,
                        "measured",
                        "estimated",
                    )
                );
            }
        }
    }
    write_csv(
        "fig6_correlation.csv",
        &["param", "model", "circuit", "estimated", "measured"],
        &csv,
    );
    println!(
        "\n{}",
        table(
            &["param", "model", "pearson", "mean rel. bias"],
            &summary_rows
        )
    );
    println!("\npaper observation: Bayesian Ridge / PLS usable standalone; latency estimates carry a bias (~30% in the paper's setup).");
}
