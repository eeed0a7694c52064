//! Estimator-driven DSE validated against exhaustive ground truth.
//!
//! The Sobel accelerator's adder-only configuration space (8^5 = 32,768)
//! is small enough to enumerate completely — something the paper could
//! not afford for its 4.95e14-point Gaussian space. This binary:
//!
//! 1. measures *every* configuration (true SSIM + true cost),
//! 2. runs the AutoAx-style loop (random training sample → estimators →
//!    estimate all → peel 3 pseudo-pareto fronts → "synthesize" those),
//! 3. reports exactly how much of the true pareto front the estimator
//!    flow recovers and at what synthesis budget — closing the loop the
//!    paper leaves to trust.
//!
//! Usage: `cargo run --release -p afp-bench --bin sobel_exhaustive [--quick]`

use afp_autoax::image::{plasma, Image};
use afp_autoax::sobel::{exact_sobel, SobelAccelerator, SobelConfig};
use afp_autoax::ssim::ssim;
use afp_autoax::ComponentLibrary;
use afp_bench::render::table;
use afp_bench::write_csv;
use afp_ml::forest::RandomForest;
use afp_ml::linear::Ridge;
use afp_ml::{Matrix, Regressor};
use approxfpgas::pareto::{measured_front, pareto_front, pseudo_pareto};

fn features(cfg: &SobelConfig, n_adders: usize) -> Vec<f64> {
    let mut f = vec![0.0; 5 * n_adders];
    for (slot, &c) in cfg.adder_slots.iter().enumerate() {
        f[slot * n_adders + c] = 1.0;
    }
    f
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let library = ComponentLibrary::paper_defaults(&afp_fpga::FpgaConfig::default());
    let accel = SobelAccelerator::new(&library);
    let img: Image = plasma(if quick { 16 } else { 24 }, 77);
    let reference = exact_sobel(&img);

    let mut all = SobelConfig::enumerate(&library);
    if quick {
        // Deterministic subsample: every 11th configuration.
        all = all.into_iter().step_by(11).collect();
    }
    println!(
        "measuring {} Sobel configurations exhaustively...",
        all.len()
    );
    let measured: Vec<(f64, f64)> = all
        .iter()
        .map(|cfg| {
            let s = ssim(&accel.filter(cfg, &img), &reference);
            let c = accel.hw_cost(cfg);
            (c.luts as f64, 1.0 - s)
        })
        .collect();
    let truth = pareto_front(&measured);
    println!(
        "true pareto front: {} / {} configurations",
        truth.len(),
        all.len()
    );

    // AutoAx-style estimator flow on the same space.
    let n_adders = library.adders().len();
    let train_n = if quick { 150 } else { 800 };
    let mut s = 0xD05Eu64;
    let mut pick = || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        (s >> 33) as usize % all.len()
    };
    let train_idx: Vec<usize> = (0..train_n).map(|_| pick()).collect();
    let rows: Vec<Vec<f64>> = train_idx
        .iter()
        .map(|&i| features(&all[i], n_adders))
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let x = Matrix::from_rows(&refs);
    let y_err: Vec<f64> = train_idx.iter().map(|&i| measured[i].1).collect();
    let y_cost: Vec<f64> = train_idx.iter().map(|&i| measured[i].0).collect();
    // The composed cost is *linear* in the one-hot features, so ridge
    // recovers it (nearly) exactly; quality needs the nonlinear forest.
    let mut qor = RandomForest::new(60, Default::default(), 0x50B3);
    let mut cost = Ridge::new(1e-6);
    qor.fit(&x, &y_err).expect("qor estimator");
    cost.fit(&x, &y_cost).expect("cost estimator");

    // Estimate the whole space (cheap) and peel pseudo-pareto fronts.
    let est: Vec<(f64, f64)> = all
        .iter()
        .map(|cfg| {
            let f = features(cfg, n_adders);
            (cost.predict_row(&f), qor.predict_row(&f))
        })
        .collect();
    let mut rows_out = Vec::new();
    let mut csv = Vec::new();
    for fronts in 1..=3usize {
        let mut selected: std::collections::BTreeSet<usize> = train_idx.iter().copied().collect();
        selected.extend(pseudo_pareto(&est, fronts).candidates);
        let scored = measured_front(&measured, &selected);
        let (found, cov) = (scored.front, scored.coverage);
        // Near-coverage: a true-front point counts when some found point
        // is within 2% cost and 0.002 of its error — the practically
        //-equivalent-design notion a dense space calls for.
        let near = truth
            .iter()
            .filter(|&&t| {
                found.iter().any(|&f| {
                    (measured[f].0 - measured[t].0).abs() <= 0.02 * measured[t].0.max(1.0)
                        && (measured[f].1 - measured[t].1).abs() <= 0.002
                })
            })
            .count() as f64
            / truth.len().max(1) as f64;
        rows_out.push(vec![
            format!("{fronts}"),
            format!("{}", selected.len()),
            format!("{:.1}%", 100.0 * selected.len() as f64 / all.len() as f64),
            format!("{:.0}%", 100.0 * cov),
            format!("{:.0}%", 100.0 * near),
        ]);
        csv.push(vec![
            format!("{fronts}"),
            format!("{}", selected.len()),
            format!("{cov:.4}"),
            format!("{near:.4}"),
        ]);
    }
    write_csv(
        "sobel_exhaustive.csv",
        &["fronts", "synthesized", "coverage", "near_coverage"],
        &csv,
    );
    println!(
        "\n{}",
        table(
            &[
                "pseudo-fronts",
                "synthesized",
                "% of space",
                "exact coverage",
                "near coverage"
            ],
            &rows_out
        )
    );
    println!("\nreading: the ground truth exposes what coverage numbers hide — in a\ndense space, exact front membership is mostly luck (a few percent), and\neven near-coverage stays partial at this budget. The estimator flow's\nreal product is a good *approximation* of the trade-off curve, not the\nexact pareto set; the paper's ~71% coverage on sparse circuit libraries\nis the easier regime.");
}
