//! Simulation-kernel measurement: absolute error-analysis time per circuit
//! (exhaustive 8-bit and sampled 16-bit) and activity-estimation time.
//!
//! This is the regenerator behind EXPERIMENTS.md "Simulation kernel" and
//! the `BENCH_sim.json` pins. Every case runs a production entry point
//! ([`afp_error::analyze`] or [`SimScratch::signal_probabilities`]); the
//! bit-identity of those paths against the per-gate reference interpreter
//! and the per-pair accumulator is pinned by `tests/sim_kernel.rs`, not
//! here.
//!
//! Usage: `cargo run --release -p afp-bench --bin sim_scaling [--quick]`
//!
//! Writes `results/sim_scaling.csv` (`case,metric,value`).

use afp_bench::{emit, time_us};
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
        let us = time_us(iters, runs, || {
            std::hint::black_box(analyze(std::hint::black_box(circuit), &cfg));
        });
        rows.extend([
            (*name, "pairs", m.samples as f64),
            (*name, "analyze_us", us),
        ]);
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
    rows.extend([
        ("activity_mul8_wallace", "passes", passes as f64),
        ("activity_mul8_wallace", "activity_us", us),
    ]);
    emit("sim_scaling", &rows);
}
