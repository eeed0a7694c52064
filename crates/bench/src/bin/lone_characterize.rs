//! Latency of one cold characterization as `afp serve` pays it on a
//! miss: [`characterize_request`] on a never-seen `mul8:udm` circuit,
//! with no cache and fresh scratch, called from a plain thread (not a
//! pool worker) on runtimes of 1 and 2 threads.
//!
//! Rounds alternate the thread counts, so drift of the host's speed hits
//! both alike. Every key's report must be byte-identical on both.
//!
//! Usage: `cargo run --release -p afp-bench --bin lone_characterize [--quick]`
//!
//! Prints the quartiles of the per-key wall time in µs.

use std::time::Instant;

use afp_circuits::{from_spec_ref, ArithCircuit};
use afp_runtime::Runtime;
use approxfpgas::record::CharacterizeScratch;
use approxfpgas::{characterize_request, request_report, RequestConfig};

const THREADS: [usize; 2] = [1, 2];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (keys, rounds) = if quick { (40, 2) } else { (200, 5) };
    // Distinct non-zero 16-bit masks, spread over the mask space.
    let circuits: Vec<ArithCircuit> = (0..keys)
        .map(|i| {
            let mask = 1 + (i * 0x9E37) % 0xFFFF;
            from_spec_ref(&format!("mul8:udm:{mask:x}")).expect("valid spec")
        })
        .collect();
    let config = RequestConfig::default();
    println!("lone_characterize: {keys} mul8:udm keys x {rounds} rounds\n");

    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); THREADS.len()];
    let mut bodies: Vec<Vec<String>> = vec![Vec::new(); THREADS.len()];
    for _ in 0..rounds {
        for (t, &threads) in THREADS.iter().enumerate() {
            let rt = Runtime::new(threads);
            bodies[t].clear();
            for circuit in &circuits {
                let start = Instant::now();
                let record = characterize_request(
                    circuit,
                    &config,
                    &rt,
                    None,
                    &mut CharacterizeScratch::default(),
                );
                samples[t].push(start.elapsed().as_secs_f64() * 1e6);
                bodies[t].push(request_report(&record).to_json());
            }
        }
        assert_eq!(bodies[0], bodies[1], "reports differ between thread counts");
    }

    for (samples, threads) in samples.iter_mut().zip(THREADS) {
        samples.sort_by(|a, b| afp_ord::asc(*a, *b));
        let q = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize];
        println!(
            "  {threads} thread(s): p25 {:.0} µs, p50 {:.0} µs, p75 {:.0} µs",
            q(0.25),
            q(0.5),
            q(0.75)
        );
    }
}
