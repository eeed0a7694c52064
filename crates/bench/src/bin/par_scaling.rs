//! Parallel-scaling and cache-warm-up measurement of the flow runtime.
//!
//! Runs the 8x8 multiplier flow (exhaustive 2^16 error space per circuit —
//! the heaviest per-circuit workload) at 1/2/4/8 worker threads, reports
//! wall-clock speedup over the serial run, then re-runs on the warm
//! characterization cache and reports the cold/warm ratio.
//!
//! Usage: `cargo run --release -p afp-bench --bin par_scaling [--quick]`
//!
//! Writes `results/par_scaling.csv`.

use std::time::Instant;

use afp_bench::render::table;
use afp_bench::{write_csv, Scale};
use afp_circuits::LibrarySource;
use approxfpgas::{Flow, FlowConfig, FlowOutcome};

fn subset_spec() -> afp_circuits::LibrarySpec {
    // A mult8 subset: large enough to keep 8 workers busy across every
    // stage, small enough for a CI-friendly run.
    let mut scale = Scale::quick();
    if std::env::args().any(|a| a == "--quick") {
        scale.mul8 = 80;
    }
    scale.mul8_spec()
}

fn config(threads: usize) -> FlowConfig {
    FlowConfig {
        threads,
        ..FlowConfig::default()
    }
}

fn timed(flow: &Flow) -> (f64, FlowOutcome) {
    let start = Instant::now();
    let source = LibrarySource::Generated(subset_spec());
    let outcome = flow
        .run_source(&source)
        .expect("generated libraries stream");
    (start.elapsed().as_secs_f64(), outcome)
}

fn main() {
    let spec = subset_spec();
    println!(
        "par_scaling: mul{} x{} ({} threads available)\n",
        spec.width,
        spec.target_size,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut serial_s = 0.0f64;
    let mut reference: Option<FlowOutcome> = None;
    for threads in [1usize, 2, 4, 8] {
        let flow = Flow::new(config(threads));
        let (secs, outcome) = timed(&flow);
        if threads == 1 {
            serial_s = secs;
        }
        let speedup = serial_s / secs;
        println!(
            "  {threads} thread(s): {secs:.2} s  ({speedup:.2}x)  \
             [{} tasks, {} steals]",
            outcome.runtime.tasks_executed, outcome.runtime.steals
        );
        // The whole point: outputs are identical regardless of threads.
        if let Some(r) = &reference {
            assert_eq!(
                r.final_fronts, outcome.final_fronts,
                "nondeterministic fronts"
            );
            assert_eq!(r.coverage, outcome.coverage, "nondeterministic coverage");
            assert_eq!(r.time, outcome.time, "nondeterministic accounting");
        } else {
            reference = Some(outcome);
        }
        rows.push(vec![
            format!("{threads}"),
            format!("{secs:.2} s"),
            format!("{speedup:.2}x"),
        ]);
        csv_rows.push(vec![
            "cold".to_string(),
            format!("{threads}"),
            format!("{secs:.4}"),
            format!("{speedup:.3}"),
        ]);
    }

    // Warm-cache run: same Flow instance, so the second run hits the
    // characterization cache for every circuit.
    let flow = Flow::new(config(8));
    let (cold_s, _) = timed(&flow);
    let (warm_s, warm) = timed(&flow);
    let ratio = cold_s / warm_s;
    println!(
        "\n  warm cache @8 threads: {cold_s:.2} s cold -> {warm_s:.2} s warm \
         ({ratio:.1}x; {} hits, {} synths)",
        warm.runtime.cache_hits, warm.runtime.fpga_synths
    );
    rows.push(vec![
        "8 (warm cache)".to_string(),
        format!("{warm_s:.2} s"),
        format!("{:.2}x", serial_s / warm_s),
    ]);
    csv_rows.push(vec![
        "warm".to_string(),
        "8".to_string(),
        format!("{warm_s:.4}"),
        format!("{:.3}", serial_s / warm_s),
    ]);

    write_csv(
        "par_scaling.csv",
        &["cache", "threads", "wall_s", "speedup_vs_serial"],
        &csv_rows,
    );
    println!("\n{}", table(&["threads", "wall clock", "speedup"], &rows));
}
