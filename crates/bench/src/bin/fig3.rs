//! Fig. 3 — Exploration time: exhaustive synthesis vs the ApproxFPGAs
//! flow, per library and cumulative (the paper's 82.4 d → 8.2 d, ~10x).
//!
//! Usage: `cargo run --release -p afp-bench --bin fig3 [--quick]`

use afp_bench::render::table;
use afp_bench::{human_time, run_flow, write_csv, Scale};
use afp_obs::fmt_ratio;
use approxfpgas::FlowConfig;

fn main() {
    let scale = Scale::from_args();
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut cum_exhaustive = 0.0f64;
    let mut cum_flow = 0.0f64;
    for spec in scale.all_specs() {
        let label = format!("{}{}-bit", spec.kind.mnemonic(), spec.width);
        println!("running flow on {label} ({} circuits)...", spec.target_size);
        let outcome = run_flow(&FlowConfig::default(), spec);
        let t = outcome.time;
        cum_exhaustive += t.exhaustive_s;
        cum_flow += t.flow_s();
        rows.push(vec![
            label.clone(),
            format!("{}", t.exhaustive_count),
            human_time(t.exhaustive_s),
            format!("{}", t.flow_count),
            human_time(t.flow_s()),
            fmt_ratio(t.speedup()),
        ]);
        csv_rows.push(vec![
            label,
            format!("{}", t.exhaustive_count),
            format!("{:.1}", t.exhaustive_s),
            format!("{}", t.flow_count),
            format!("{:.1}", t.flow_s()),
            match t.speedup() {
                Some(s) => format!("{s:.3}"),
                None => String::new(),
            },
        ]);
    }
    write_csv(
        "fig3_exploration_time.csv",
        &[
            "library",
            "exhaustive_circuits",
            "exhaustive_s",
            "flow_circuits",
            "flow_s",
            "speedup",
        ],
        &csv_rows,
    );
    println!(
        "\n{}",
        table(
            &[
                "library",
                "#circuits",
                "exhaustive",
                "#synthesized",
                "ApproxFPGAs",
                "speedup"
            ],
            &rows
        )
    );
    println!("\n=== Fig. 3 summary ===");
    println!(
        "cumulative exhaustive: {}   (paper: 82.4 d)",
        human_time(cum_exhaustive)
    );
    println!(
        "cumulative ApproxFPGAs: {}  (paper: 8.2 d)",
        human_time(cum_flow)
    );
    let overall = if cum_flow > 0.0 {
        Some(cum_exhaustive / cum_flow)
    } else {
        None
    };
    println!(
        "overall exploration-time reduction: {} (paper: ~10x)",
        fmt_ratio(overall)
    );
}
