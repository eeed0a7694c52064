//! Simulation-kernel measurement: absolute error-analysis time per circuit
//! (exhaustive 8-bit and sampled 16-bit) and activity-estimation time.
//!
//! This is the regenerator behind EXPERIMENTS.md "Simulation kernel" and
//! the `BENCH_sim.json` baseline. Every case runs a production entry point
//! ([`afp_error::analyze`] or [`SimScratch::signal_probabilities`]); the
//! bit-identity of those paths against the per-gate reference interpreter
//! and the per-pair accumulator is pinned by `tests/sim_kernel.rs`, not
//! here.
//!
//! Usage: `cargo run --release -p afp-bench --bin sim_scaling [--quick]`
//!
//! Writes `results/sim_scaling.csv` (`case, work, metric, us`; `metric`
//! names the `BENCH_sim.json` field the row is gated against).

use afp_bench::render::table;
use afp_bench::{time_us, write_csv};
use afp_circuits::{adders, multipliers, ArithCircuit};
use afp_error::{analyze, ErrorConfig};
use afp_netlist::SimScratch;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (iters, runs) = if quick { (3, 3) } else { (20, 5) };
    let cfg = ErrorConfig::default();
    let cases: Vec<(&str, ArithCircuit)> = vec![
        ("add8_rca", adders::ripple_carry(8)),
        ("add8_loa4", adders::loa(8, 4)),
        ("mul8_wallace", multipliers::wallace_multiplier(8)),
        ("mul8_bam", multipliers::broken_array(8, 6, 2)),
        ("add16_loa8", adders::loa(16, 8)),
        ("mul16_bam", multipliers::broken_array(16, 12, 3)),
    ];

    println!("sim_scaling: {iters} iters x {runs} runs (median)\n");
    let mut rows = Vec::new();
    for (name, circuit) in &cases {
        let m = analyze(circuit, &cfg);
        let mode = if m.exhaustive {
            "exhaustive"
        } else {
            "sampled"
        };
        let us = time_us(iters, runs, || {
            std::hint::black_box(analyze(std::hint::black_box(circuit), &cfg));
        });
        println!("  {name}: {us:.0} us ({} pairs, {mode})", m.samples);
        rows.push((name.to_string(), m.samples.to_string(), "analyze_us", us));
    }

    // Activity estimation: the ASIC power model's stimulus sweep.
    let wallace = multipliers::wallace_multiplier(8);
    let nl = wallace.netlist();
    let (passes, seed) = (32usize, 0xA51Cu64);
    let mut scratch = SimScratch::new();
    let mut probs = Vec::new();
    let us = time_us(iters * 20, runs, || {
        scratch.signal_probabilities(
            std::hint::black_box(nl),
            passes,
            seed,
            std::hint::black_box(&mut probs),
        );
    });
    println!("  activity_mul8_wallace: {us:.1} us ({passes} passes)");
    rows.push((
        "activity_mul8_wallace".to_string(),
        format!("{passes}p"),
        "activity_us",
        us,
    ));

    let render = |digits: usize| -> Vec<Vec<String>> {
        rows.iter()
            .map(|(case, work, metric, us)| {
                vec![
                    case.clone(),
                    work.clone(),
                    metric.to_string(),
                    format!("{us:.digits$}"),
                ]
            })
            .collect()
    };
    let header = ["case", "work", "metric", "us"];
    write_csv("sim_scaling.csv", &header, &render(2));
    println!("\n{}", table(&header, &render(1)));
    println!("baseline for regression checks: BENCH_sim.json (repo root)");
}
