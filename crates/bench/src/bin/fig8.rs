//! Fig. 8 — The pareto-optimal FPGA-ACs obtained by the full flow on the
//! 8-/16-bit adder and 8x8/16x16 multiplier libraries: synthesized
//! points, recovered fronts, coverage (~71% avg in the paper) and the
//! ~10x exploration-time reduction.
//!
//! Usage: `cargo run --release -p afp-bench --bin fig8 [--quick]`

use afp_bench::render::{scatter, table, Series};
use afp_bench::{human_time, run_flow, write_csv, Scale};
use afp_circuits::{ArithKind, LibrarySpec};
use approxfpgas::record::FpgaParam;
use approxfpgas::FlowConfig;

fn main() {
    let scale = Scale::from_args();
    let libs = [
        LibrarySpec::new(ArithKind::Adder, 8, scale.add8),
        LibrarySpec::new(ArithKind::Adder, 16, scale.add16),
        LibrarySpec::new(ArithKind::Multiplier, 8, scale.mul8),
        LibrarySpec::new(ArithKind::Multiplier, 16, scale.mul16),
    ];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut cov_sum = 0.0;
    let mut cov_n = 0usize;
    for spec in libs {
        let label = format!("{}{}", spec.kind.mnemonic(), spec.width);
        println!("flow on {label} ({} circuits)...", spec.target_size);
        let outcome = run_flow(&FlowConfig::default(), spec);
        for (&param, front) in &outcome.final_fronts {
            let cov = outcome.coverage[&param];
            cov_sum += cov;
            cov_n += 1;
            rows.push(vec![
                label.clone(),
                format!("{param:?}"),
                format!("{}", outcome.true_fronts[&param].len()),
                format!("{}", front.len()),
                format!("{:.0}%", 100.0 * cov),
                afp_obs::fmt_ratio(outcome.time.speedup()),
            ]);
            for &i in front {
                let r = &outcome.records[i];
                csv.push(vec![
                    label.clone(),
                    format!("{param:?}"),
                    r.name.clone(),
                    format!("{:.5}", r.fpga_param(param)),
                    format!("{:.6}", r.error.med),
                    format!("{}", r.fpga.luts),
                ]);
            }
        }
        // One scatter per library: area vs MED, synthesized vs front.
        let param = FpgaParam::Area;
        let synth_pts: Vec<(f64, f64)> = outcome
            .synthesized
            .iter()
            .map(|&i| {
                (
                    outcome.records[i].fpga_param(param),
                    outcome.records[i].error.med.min(0.2),
                )
            })
            .collect();
        let front_pts: Vec<(f64, f64)> = outcome.final_fronts[&param]
            .iter()
            .map(|&i| {
                (
                    outcome.records[i].fpga_param(param),
                    outcome.records[i].error.med.min(0.2),
                )
            })
            .collect();
        println!(
            "\n{label}: synthesized ('.') and pareto FPGA-ACs ('#'), area vs MED\n{}",
            scatter(
                &[
                    Series {
                        glyph: '.',
                        label: "synthesized".into(),
                        points: synth_pts
                    },
                    Series {
                        glyph: '#',
                        label: "pareto FPGA-ACs".into(),
                        points: front_pts
                    },
                ],
                70,
                14,
                "#LUTs",
                "MED",
            )
        );
        println!(
            "{label}: synthesized {}/{} circuits, flow {} vs exhaustive {}",
            outcome.time.flow_count,
            outcome.time.exhaustive_count,
            human_time(outcome.time.flow_s()),
            human_time(outcome.time.exhaustive_s),
        );
    }
    write_csv(
        "fig8_pareto_fpga_acs.csv",
        &["library", "param", "circuit", "cost", "med", "luts"],
        &csv,
    );
    println!(
        "\n{}",
        table(
            &[
                "library",
                "param",
                "true front",
                "found",
                "coverage",
                "speedup"
            ],
            &rows
        )
    );
    println!("\n=== Fig. 8 summary ===");
    println!(
        "mean pareto coverage: {:.0}% (paper: ~71%)",
        100.0 * cov_sum / cov_n.max(1) as f64
    );
}
