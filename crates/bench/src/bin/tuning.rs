//! The Fig. 2 "Modification of ML parameters" loop, quantified: validation
//! fidelity of the untuned zoo vs the hyperparameter-tuned zoo on the 8x8
//! multiplier library.
//!
//! Usage: `cargo run --release -p afp-bench --bin tuning [--quick]`

use afp_bench::render::table;
use afp_bench::{run_flow, write_csv, Scale};
use afp_ml::MlModelId;
use approxfpgas::fidelity::{train_zoo_tuned, TrainedZoo};
use approxfpgas::record::FpgaParam;
use approxfpgas::FlowConfig;

fn main() {
    let scale = Scale::from_args();
    let mut spec = scale.mul8_spec();
    spec.target_size = spec.target_size.min(2000); // tuning multiplies training cost
    println!(
        "tuning: characterizing {} 8x8 multipliers and training the untuned zoo...",
        spec.target_size
    );
    let config = FlowConfig {
        seed: 0x7ED,
        ..FlowConfig::default()
    };
    let outcome = run_flow(&config, spec);
    let base = &outcome.zoo;
    println!("training tuned zoo (full hyperparameter grids)...");
    let (tuned, labels) = train_zoo_tuned(
        &outcome.records,
        &outcome.train,
        &outcome.validate,
        &MlModelId::ALL,
        config.fidelity_tolerance,
    );

    let fid = |zoo: &TrainedZoo, m: MlModelId, p: FpgaParam| {
        zoo.fidelity(m, p).map_or(0.0, |f| f.fidelity)
    };
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut improved = 0usize;
    for id in MlModelId::ALL {
        for param in FpgaParam::ALL {
            let b = fid(base, id, param);
            let t = fid(&tuned, id, param);
            if t > b + 1e-12 {
                improved += 1;
            }
            let label = labels
                .iter()
                .find(|((m, p), _)| *m == id && *p == param)
                .map(|(_, l)| l.as_str())
                .unwrap_or("-");
            if id == MlModelId::Ml14 || t > b + 0.005 {
                rows.push(vec![
                    id.label().to_string(),
                    format!("{param:?}"),
                    format!("{:.1}%", 100.0 * b),
                    format!("{:.1}%", 100.0 * t),
                    label.to_string(),
                ]);
            }
            csv.push(vec![
                id.label().to_string(),
                format!("{param:?}"),
                format!("{b:.4}"),
                format!("{t:.4}"),
                label.to_string(),
            ]);
        }
    }
    write_csv(
        "tuning_gains.csv",
        &[
            "model",
            "param",
            "fidelity_untuned",
            "fidelity_tuned",
            "chosen_config",
        ],
        &csv,
    );
    println!(
        "\n{}",
        table(
            &["model", "param", "untuned", "tuned", "chosen config"],
            &rows
        )
    );
    let mean = |zoo: &TrainedZoo| -> f64 {
        zoo.fidelities.iter().map(|f| f.fidelity).sum::<f64>() / zoo.fidelities.len().max(1) as f64
    };
    println!("\n=== tuning summary ===");
    println!("mean fidelity untuned: {:.1}%", 100.0 * mean(base));
    println!("mean fidelity tuned:   {:.1}%", 100.0 * mean(&tuned));
    println!("(model, param) pairs improved: {improved}/54");
    println!("\nreading: the Fig. 2 feedback loop buys a consistent but modest gain —\ntuning never hurts (the default is in every grid) and mostly helps the\nkernel/tree models whose bandwidth/depth actually bind.");
}
