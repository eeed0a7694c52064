//! The ApproxFPGAs methodology end to end on a small 8-bit adder library:
//! subset synthesis, model training, pseudo-pareto construction, and the
//! final pareto-optimal FPGA-ACs.
//!
//! Run with: `cargo run --release --example pareto_exploration`

use approxfpgas_suite::circuits::{ArithKind, LibrarySource, LibrarySpec};
use approxfpgas_suite::flow::record::FpgaParam;
use approxfpgas_suite::flow::{Flow, FlowConfig};

fn main() {
    let spec = LibrarySpec::new(ArithKind::Adder, 8, 200);
    let config = FlowConfig::default();
    println!(
        "exploring a {}-circuit 8-bit adder library (subset fraction {:.0}%)...",
        spec.target_size,
        100.0 * config.subset_fraction
    );
    let source = LibrarySource::Generated(spec);
    let outcome = Flow::new(config)
        .run_source(&source)
        .expect("generated libraries stream");

    println!("\nselected models per FPGA parameter:");
    for (param, models) in &outcome.selected_models {
        let labels: Vec<&str> = models.iter().map(|m| m.label()).collect();
        println!("  {param:?}: {}", labels.join(", "));
    }

    println!("\nvalidation fidelity of the winners:");
    for (param, models) in &outcome.selected_models {
        for model in models {
            if let Some(f) = outcome.zoo.fidelity(*model, *param) {
                println!(
                    "  {param:?} / {}: fidelity {:.1}%, r2 {:.3}",
                    model.label(),
                    100.0 * f.fidelity,
                    f.r2
                );
            }
        }
    }

    let t = &outcome.time;
    println!("\nexploration accounting:");
    println!(
        "  exhaustive: {} circuits, {:.1} h (modeled)",
        t.exhaustive_count,
        t.exhaustive_s / 3600.0
    );
    println!(
        "  this flow:  {} circuits, {:.1} h -> {} faster",
        t.flow_count,
        t.flow_s() / 3600.0,
        approxfpgas::obs::fmt_ratio(t.speedup())
    );

    println!("\npareto-optimal FPGA-ACs (area vs MED):");
    let front = &outcome.final_fronts[&FpgaParam::Area];
    for &i in front.iter().take(10) {
        let r = &outcome.records[i];
        println!(
            "  {:<28} {:>4} LUTs  MED {:.6}",
            r.name, r.fpga.luts, r.error.med
        );
    }
    println!(
        "  ... {} front members, covering {:.0}% of the true front",
        front.len(),
        100.0 * outcome.coverage[&FpgaParam::Area]
    );
}
