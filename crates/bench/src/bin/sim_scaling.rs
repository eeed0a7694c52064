//! Simulation-kernel measurement: absolute error-analysis time per circuit
//! (exhaustive 8-bit and sampled 16-bit) and activity-estimation time.
//!
//! This is the regenerator behind EXPERIMENTS.md "Simulation kernel" and
//! the `BENCH_sim.json` pins. Every case runs a production entry point
//! ([`afp_error::analyze`], [`afp_error::analyze_batch`] or
//! [`SimScratch::signal_probabilities`]); the bit-identity of those paths
//! against the per-gate reference interpreter, the per-pair accumulator
//! and the per-circuit analysis is pinned by `tests/sim_kernel.rs`, not
//! here. The `batch_mul8` case times a 256-circuit mul8 library analyzed
//! in its simulation batches (hash-consing included) against
//! `loop_mul8`, the per-circuit loop over the same circuits.
//!
//! Usage: `cargo run --release -p afp-bench --bin sim_scaling [--quick]`
//!
//! Writes `results/sim_scaling.csv` (`case,metric,value`).

use afp_bench::{emit, time_us};
use afp_circuits::{
    adders, build_library, multipliers, plan_batches, simulation_batch, ArithCircuit, ArithKind,
    LibrarySpec,
};
use afp_error::{analyze, analyze_batch, ErrorConfig};
use afp_netlist::SimScratch;
use afp_runtime::Runtime;

/// Alternating runs of each of `batch_mul8` and `loop_mul8`.
const PAIRED_RUNS: usize = 9;

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
    // One untimed pass first: the first timed case of a fresh process
    // read about 2x its steady state.
    for (_, circuit) in &cases {
        std::hint::black_box(analyze(circuit, &cfg));
    }
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

    // Shard-batched analysis against the per-circuit loop over the same
    // circuits, per circuit. The two alternate run by run, so drift of
    // the host's speed hits both alike, and each reports its median of
    // `PAIRED_RUNS` runs, as many at `--quick` as at full scale because
    // the gate compares the two.
    let library = build_library(&LibrarySpec::new(ArithKind::Multiplier, 8, 256));
    let n = library.len() as f64;
    let rt = Runtime::serial();
    let batches = plan_batches(&library);
    let (mut loop_runs, mut batch_runs) = (Vec::new(), Vec::new());
    for _ in 0..PAIRED_RUNS {
        loop_runs.push(time_us(1, 1, || {
            for c in &library {
                std::hint::black_box(analyze(std::hint::black_box(c), &cfg));
            }
        }));
        batch_runs.push(time_us(1, 1, || {
            for members in &batches {
                let members: Vec<&ArithCircuit> = members.iter().map(|&m| &library[m]).collect();
                let batch = simulation_batch(std::hint::black_box(&members));
                std::hint::black_box(analyze_batch(ArithKind::Multiplier, 8, &batch, &cfg, &rt));
            }
        }));
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| afp_ord::asc(*a, *b));
        v[v.len() / 2]
    };
    let (loop_us, batch_us) = (median(loop_runs), median(batch_runs));
    rows.extend([
        ("loop_mul8", "circuits", n),
        ("loop_mul8", "per_circuit_us", loop_us / n),
        ("batch_mul8", "circuits", n),
        ("batch_mul8", "batches", batches.len() as f64),
        ("batch_mul8", "per_circuit_us", batch_us / n),
    ]);

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
