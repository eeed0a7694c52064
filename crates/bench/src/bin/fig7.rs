//! Fig. 7 — Constructing multiple pseudo-pareto fronts (n = 1, 2, 3) for
//! the 8x8 multiplier library w.r.t. FPGA latency: circuits to
//! re-synthesize and true-front coverage per model, plus the union, plus
//! the overall synthesized-circuit reduction (the paper's ~9.9x / 4,548).
//!
//! Usage: `cargo run --release -p afp-bench --bin fig7 [--quick]`

use std::collections::BTreeSet;

use afp_bench::render::table;
use afp_bench::{run_flow, write_csv, Scale};
use afp_ml::MlModelId;
use approxfpgas::pareto::{measured_front, pseudo_pareto};
use approxfpgas::record::FpgaParam;
use approxfpgas::FlowConfig;

/// Front counts of the figure (n = 1, 2, 3).
const FRONTS: [usize; 3] = [1, 2, 3];

fn main() {
    let scale = Scale::from_args();
    let spec = scale.mul8_spec();
    println!(
        "Fig. 7: characterizing {} 8x8 multipliers...",
        spec.target_size
    );
    let outcome = run_flow(&FlowConfig::default(), spec);
    let (records, subset, zoo) = (&outcome.records, &outcome.subset, &outcome.zoo);

    let param = FpgaParam::Latency;
    let true_points = outcome.points(param);
    let subset_set: BTreeSet<usize> = subset.iter().copied().collect();
    // What re-synthesizing `candidates` buys on top of the subset: the
    // extra circuits synthesized and the true-front coverage.
    let score = |candidates: &BTreeSet<usize>| {
        let new_synth = candidates.difference(&subset_set).count();
        let synthesized: BTreeSet<usize> = candidates.union(&subset_set).copied().collect();
        (
            new_synth,
            measured_front(&true_points, &synthesized).coverage,
        )
    };

    // Models of the paper's figure: top-3 by latency fidelity + the plain
    // ASIC-latency regression (ML2). Each is estimated once; its
    // candidates at n fronts are the first n peeled fronts.
    let mut models = zoo.top_models(param, 3, false);
    models.push(MlModelId::Ml2);
    let candidates: Vec<(MlModelId, Vec<BTreeSet<usize>>)> = models
        .iter()
        .map(|&model| {
            let est = zoo.estimate_all(model, param, records);
            let points: Vec<(f64, f64)> = est
                .iter()
                .zip(records)
                .map(|(&e, r)| (e, r.error.med))
                .collect();
            let per_n = FRONTS
                .iter()
                .map(|&n| pseudo_pareto(&points, n).candidates)
                .collect();
            (model, per_n)
        })
        .collect();

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut push = |model: &str, shown: &str, n: usize, new_synth: usize, cov: f64| {
        rows.push(vec![
            shown.to_string(),
            format!("{n}"),
            format!("{new_synth}"),
            format!("{:.0}%", 100.0 * cov),
        ]);
        csv.push(vec![
            model.to_string(),
            format!("{n}"),
            format!("{new_synth}"),
            format!("{cov:.4}"),
        ]);
    };
    for (model, per_n) in &candidates {
        for (&n, set) in FRONTS.iter().zip(per_n) {
            let (new_synth, cov) = score(set);
            push(model.label(), model.label(), n, new_synth, cov);
        }
    }
    // Union across the ML models (excluding the plain ASIC regression),
    // the paper's "combine the pseudo-pareto fronts of multiple models".
    for (k, &n) in FRONTS.iter().enumerate() {
        let union: BTreeSet<usize> = candidates
            .iter()
            .filter(|(m, _)| !m.is_asic_regression())
            .flat_map(|(_, per_n)| per_n[k].iter().copied())
            .collect();
        let (new_synth, cov) = score(&union);
        push("union", "union(ML)", n, new_synth, cov);
        if n == 3 {
            let total_synth = subset.len() + new_synth;
            println!("\n=== Fig. 7 summary (3 fronts, ML union) ===");
            println!("library size:               {}", records.len());
            println!("subset synthesized:         {}", subset.len());
            println!("pseudo-pareto re-synthesis: {new_synth}");
            println!("total synthesized:          {total_synth}");
            println!(
                "reduction factor:           {:.1}x (paper: ~9.9x)",
                records.len() as f64 / total_synth as f64
            );
            println!("true-front coverage:        {:.0}%", 100.0 * cov);
        }
    }
    write_csv(
        "fig7_pseudo_pareto.csv",
        &["model", "fronts", "extra_synthesized", "coverage"],
        &csv,
    );
    println!(
        "\n{}",
        table(&["model", "#fronts", "extra synth", "coverage"], &rows)
    );
    println!("\npaper observation: the ASIC-latency regression roughly doubles the circuits to re-synthesize vs Bayesian ridge (164 vs 79).");
}
