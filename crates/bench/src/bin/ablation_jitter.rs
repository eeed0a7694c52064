//! Ablation: how the place&route noise floor caps model fidelity.
//!
//! Re-characterizes one library under increasing deterministic P&R jitter
//! and re-trains the top models. As jitter grows, even a perfect model
//! cannot order circuit pairs whose true costs differ by less than the
//! noise — reproducing why the paper's fidelities plateau around 90%
//! rather than approaching 100%.
//!
//! Usage: `cargo run --release -p afp-bench --bin ablation_jitter [--quick]`

use afp_bench::render::table;
use afp_bench::{run_flow, write_csv, Scale};
use afp_ml::MlModelId;
use approxfpgas::record::FpgaParam;
use approxfpgas::FlowConfig;

fn main() {
    let scale = Scale::from_args();
    let mut library = scale.mul8_spec();
    library.target_size = library.target_size.min(1500);
    println!(
        "ablation_jitter: characterizing {} 8x8 multipliers per jitter level...",
        library.target_size
    );
    let config = FlowConfig {
        models: vec![
            MlModelId::Ml4,
            MlModelId::Ml11,
            MlModelId::Ml14,
            MlModelId::Ml5,
        ],
        seed: 0x717,
        ..FlowConfig::default()
    };

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for jitter in [0.0f64, 0.04, 0.08, 0.16] {
        let mut config = config.clone();
        config.fpga.pnr_jitter = jitter;
        let zoo = run_flow(&config, library.clone()).zoo;
        for param in FpgaParam::ALL {
            let best = zoo
                .fidelities
                .iter()
                .filter(|f| f.param == param)
                .map(|f| f.fidelity)
                .fold(0.0f64, f64::max);
            rows.push(vec![
                format!("{:.0}%", 100.0 * jitter),
                format!("{param:?}"),
                format!("{:.1}%", 100.0 * best),
            ]);
            csv.push(vec![
                format!("{jitter:.2}"),
                format!("{param:?}"),
                format!("{best:.4}"),
            ]);
        }
    }
    write_csv(
        "ablation_jitter.csv",
        &["pnr_jitter", "param", "best_fidelity"],
        &csv,
    );
    println!(
        "\n{}",
        table(&["P&R jitter", "param", "best fidelity"], &rows)
    );
    println!("\nreading: fidelity should fall as jitter rises — the noise floor, not\nmodel capacity, limits estimation quality (delay is hit hardest, matching\nthe paper's remark that latency is the least predictable parameter).");
}
