//! Cut-engine scaling measurement: enumeration vs full mapping cost on
//! 8/12/16-bit adders and multipliers, fresh-mapper vs reused-mapper.
//!
//! This is the regenerator behind EXPERIMENTS.md "Cut engine" and the
//! `BENCH_map.json` pins: `enumerate_us` times priority-cut
//! enumeration into the flat arena alone, `map_us` a full
//! enumerate+cover through the one-shot API, and `map_reused_us` the
//! same covering through a single warm [`afp_fpga::Mapper`] — the flow's
//! steady state, where scratch buffers are recycled across circuits.
//!
//! Usage: `cargo run --release -p afp-bench --bin map_scaling [--quick]`
//!
//! Writes `results/map_scaling.csv` (`case,metric,value`).

use afp_bench::{emit, time_us};
use afp_circuits::{adders, multipliers};
use afp_fpga::{cuts, map, FpgaConfig, Mapper};
use afp_netlist::Netlist;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (iters, runs) = if quick { (20, 3) } else { (200, 5) };
    let cfg = FpgaConfig::default();
    let cases: Vec<(&str, Netlist)> = vec![
        ("add8_rca", adders::ripple_carry(8).into_netlist()),
        ("add16_cla", adders::carry_lookahead(16).into_netlist()),
        (
            "mul8_wallace",
            multipliers::wallace_multiplier(8).into_netlist(),
        ),
        (
            "mul12_wallace",
            multipliers::wallace_multiplier(12).into_netlist(),
        ),
        (
            "mul16_wallace",
            multipliers::wallace_multiplier(16).into_netlist(),
        ),
    ];

    println!("map_scaling: {iters} iters x {runs} runs (median)\n");
    let mut rows = Vec::new();
    let mut mapper = Mapper::new();
    // One untimed pass first, so no case pays the process's warm-up; its
    // mapper counters are discarded.
    for (_, nl) in &cases {
        std::hint::black_box(cuts::enumerate(nl, 6, 8));
        std::hint::black_box(map::map_luts(nl, &cfg));
        std::hint::black_box(mapper.map_luts(nl, &cfg));
    }
    mapper.take_stats();
    for (name, nl) in &cases {
        let enum_us = time_us(iters, runs, || {
            std::hint::black_box(cuts::enumerate(std::hint::black_box(nl), 6, 8));
        });
        let map_us = time_us(iters, runs, || {
            std::hint::black_box(map::map_luts(std::hint::black_box(nl), &cfg));
        });
        let reused_us = time_us(iters, runs, || {
            std::hint::black_box(mapper.map_luts(std::hint::black_box(nl), &cfg));
        });
        // The reused mapper's counters cover its iters x runs timed calls.
        let st = mapper.take_stats();
        let calls = f64::from(iters) * runs as f64;
        rows.extend([
            (*name, "gates", nl.num_logic_gates() as f64),
            (*name, "enumerate_us", enum_us),
            (*name, "map_us", map_us),
            (*name, "map_reused_us", reused_us),
            (*name, "cuts_merged_per_map", st.cuts_merged as f64 / calls),
            (
                *name,
                "sig_rejected_per_map",
                st.cuts_sig_rejected as f64 / calls,
            ),
        ]);
    }
    emit("map_scaling", &rows);
}
