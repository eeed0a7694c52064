//! Perf regression gate: checks every `BENCH_*.json` pin at the
//! repository root against the `case,metric,value` CSV its bench wrote,
//! prints one line per pin, and exits non-zero listing every violation
//! (see [`afp_bench::gate`] for the pin schema).
//!
//! Usage: `cargo run --release -p afp-bench --bin bench_gate [--quick]`
//!
//! Reads `results/<bench>.csv`, or `target/quick/<bench>.csv` with
//! `--quick` — where the perf bins write under the same flag.

use afp_bench::{gate, results_dir, workspace_root};

fn main() {
    let verdicts = gate::run(&workspace_root(), &results_dir());
    let mut failed = Vec::new();
    for (line, ok) in &verdicts {
        println!("{line}");
        if !ok {
            failed.push(line.as_str());
        }
    }
    if !failed.is_empty() {
        eprintln!("bench regression:\n{}", failed.join("\n"));
        std::process::exit(1);
    }
    println!("bench gate: {} pins hold", verdicts.len());
}
