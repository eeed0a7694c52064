//! Simulation-kernel scaling measurement: exhaustive error analysis and
//! activity estimation through the legacy per-gate interpreter vs the
//! compiled-tape / wide-lane kernel.
//!
//! This is the regenerator behind EXPERIMENTS.md "Simulation kernel" and
//! the `BENCH_sim.json` baseline. The legacy column re-runs the exact
//! pre-tape hot loop (64-pair chunks through [`eval_pass_reference`] with
//! per-lane operand packing, or per-pass interpreter sweeps for activity
//! estimation); the tape column runs today's production entry points
//! ([`afp_error::analyze`] and [`SimScratch::signal_probabilities`]).
//! Both sides are checked for bit-identical results before any timing —
//! a speedup over diverging answers would be meaningless.
//!
//! Usage: `cargo run --release -p afp-bench --bin sim_scaling [--quick]`
//!
//! Writes `results/sim_scaling.csv`.

use afp_bench::render::table;
use afp_bench::{time_us, write_csv};
use afp_circuits::{adders, multipliers, ArithCircuit};
use afp_error::{analyze, ErrorConfig};
use afp_netlist::{eval_pass_reference, pack_operand, Netlist, SimScratch};

/// Exhaustive error analysis exactly as the pre-tape kernel ran it: pack
/// each 64-pair chunk lane by lane, one interpreter pass per chunk,
/// unpack outputs per lane, accumulate the integer error sums. Returns
/// `(samples, sum_abs)` so the caller can check agreement with
/// [`analyze`].
fn legacy_exhaustive(circuit: &ArithCircuit) -> (u64, u128) {
    let nl = circuit.netlist();
    let w = circuit.width();
    let mask = (1u64 << w) - 1;
    let outputs: Vec<usize> = nl.outputs().iter().map(|o| o.index()).collect();
    let n_pairs = 1u64 << (2 * w);
    let mut words = vec![0u64; nl.num_inputs()];
    let mut values: Vec<u64> = Vec::new();
    let (mut n, mut sum_abs): (u64, u128) = (0, 0);
    let mut base = 0u64;
    while base < n_pairs {
        let chunk = 64.min(n_pairs - base);
        for lane in 0..chunk {
            let p = base + lane;
            pack_operand(&mut words, 0, w, lane as usize, p >> w);
            pack_operand(&mut words, w, w, lane as usize, p & mask);
        }
        eval_pass_reference(nl, &words, &mut values);
        for lane in 0..chunk {
            let p = base + lane;
            let mut got = 0u64;
            for (b, &o) in outputs.iter().enumerate() {
                got |= ((values[o] >> lane) & 1) << b;
            }
            let exact = circuit.exact(p >> w, p & mask);
            n += 1;
            sum_abs += (got as i64 - exact as i64).unsigned_abs() as u128;
        }
        base += chunk;
    }
    (n, sum_abs)
}

/// Activity estimation exactly as the pre-tape kernel ran it: one
/// interpreter pass per 64-vector stimulus block, fresh RNG fill and
/// popcount accumulation per pass.
fn legacy_signal_probabilities(nl: &Netlist, passes: usize, seed: u64, out: &mut Vec<f64>) {
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut inputs = vec![0u64; nl.num_inputs()];
    let mut values: Vec<u64> = Vec::new();
    let mut ones = vec![0u64; nl.len()];
    let passes = passes.max(1);
    for _ in 0..passes {
        for word in inputs.iter_mut() {
            *word = next();
        }
        eval_pass_reference(nl, &inputs, &mut values);
        for (o, v) in ones.iter_mut().zip(&values) {
            *o += v.count_ones() as u64;
        }
    }
    let total = (passes * 64) as f64;
    out.clear();
    out.extend(ones.iter().map(|&o| o as f64 / total));
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (iters, runs) = if quick { (3, 3) } else { (20, 5) };
    let cfg = ErrorConfig::default();
    let cases: Vec<(&str, ArithCircuit)> = vec![
        ("add8_rca", adders::ripple_carry(8)),
        ("add8_loa4", adders::loa(8, 4)),
        ("mul8_wallace", multipliers::wallace_multiplier(8)),
        ("mul8_bam", multipliers::broken_array(8, 6, 2)),
    ];

    println!("sim_scaling: {iters} iters x {runs} runs (median)\n");
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (name, circuit) in &cases {
        // Equivalence gate: the legacy loop and the tape kernel must
        // agree on the exact integer error sum before we compare speed.
        let (n, sum_abs) = legacy_exhaustive(circuit);
        let m = analyze(circuit, &cfg);
        assert!(m.exhaustive, "{name}: expected the exhaustive path");
        assert_eq!(n, m.samples, "{name}: sample count diverged");
        assert_eq!(
            sum_abs as f64 / n as f64,
            m.mae,
            "{name}: legacy and tape kernels disagree on MAE"
        );

        let legacy_us = time_us(iters, runs, || {
            std::hint::black_box(legacy_exhaustive(std::hint::black_box(circuit)));
        });
        let tape_us = time_us(iters, runs, || {
            std::hint::black_box(analyze(std::hint::black_box(circuit), &cfg));
        });
        let speedup = legacy_us / tape_us;
        println!(
            "  {name}: legacy {legacy_us:.0} us, tape {tape_us:.0} us  ({speedup:.2}x, \
             {n} pairs)"
        );
        rows.push(vec![
            name.to_string(),
            format!("{n}"),
            format!("{legacy_us:.1}"),
            format!("{tape_us:.1}"),
            format!("{speedup:.2}"),
        ]);
        csv_rows.push(vec![
            name.to_string(),
            format!("{n}"),
            format!("{legacy_us:.2}"),
            format!("{tape_us:.2}"),
            format!("{speedup:.2}"),
        ]);
    }

    // Activity estimation: the ASIC power model's stimulus sweep.
    let wallace = multipliers::wallace_multiplier(8);
    let nl = wallace.netlist();
    let (passes, seed) = (32usize, 0xA51Cu64);
    let mut legacy_probs = Vec::new();
    legacy_signal_probabilities(nl, passes, seed, &mut legacy_probs);
    let mut scratch = SimScratch::new();
    let mut tape_probs = Vec::new();
    scratch.signal_probabilities(nl, passes, seed, &mut tape_probs);
    assert_eq!(
        legacy_probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        tape_probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        "activity: legacy and tape kernels disagree"
    );
    let act_iters = iters * 20;
    let legacy_us = time_us(act_iters, runs, || {
        legacy_signal_probabilities(
            std::hint::black_box(nl),
            passes,
            seed,
            std::hint::black_box(&mut legacy_probs),
        );
    });
    let tape_us = time_us(act_iters, runs, || {
        scratch.signal_probabilities(
            std::hint::black_box(nl),
            passes,
            seed,
            std::hint::black_box(&mut tape_probs),
        );
    });
    let speedup = legacy_us / tape_us;
    println!(
        "  activity_mul8_wallace: legacy {legacy_us:.0} us, tape {tape_us:.0} us  \
         ({speedup:.2}x, {passes} passes)"
    );
    let work = format!("{passes}p");
    rows.push(vec![
        "activity_mul8_wallace".to_string(),
        work.clone(),
        format!("{legacy_us:.1}"),
        format!("{tape_us:.1}"),
        format!("{speedup:.2}"),
    ]);
    csv_rows.push(vec![
        "activity_mul8_wallace".to_string(),
        work,
        format!("{legacy_us:.2}"),
        format!("{tape_us:.2}"),
        format!("{speedup:.2}"),
    ]);

    write_csv(
        "sim_scaling.csv",
        &["case", "work", "legacy_us", "tape_us", "speedup"],
        &csv_rows,
    );
    println!(
        "\n{}",
        table(&["case", "work", "legacy us", "tape us", "speedup"], &rows)
    );
    println!("baseline for regression checks: BENCH_sim.json (repo root)");
}
