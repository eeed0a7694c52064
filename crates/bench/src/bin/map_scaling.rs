//! Cut-engine scaling measurement: enumeration vs full mapping cost on
//! 8/12/16-bit adders and multipliers, fresh-mapper vs reused-mapper.
//!
//! This is the regenerator behind EXPERIMENTS.md "Cut engine" and the
//! `BENCH_map.json` baseline: `enumerate_us` times priority-cut
//! enumeration into the flat arena alone, `map_us` a full
//! enumerate+cover through the one-shot API, and `map_reused_us` the
//! same covering through a single warm [`afp_fpga::Mapper`] — the flow's
//! steady state, where scratch buffers are recycled across circuits.
//!
//! Usage: `cargo run --release -p afp-bench --bin map_scaling [--quick]`
//!
//! Writes `results/map_scaling.csv`.

use afp_bench::render::table;
use afp_bench::{time_us, write_csv};
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
    let mut csv_rows = Vec::new();
    let mut mapper = Mapper::new();
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
        let st = mapper.take_stats();
        println!(
            "  {name}: enumerate {enum_us:.1} us, map {map_us:.1} us, \
             map(reused) {reused_us:.1} us  [{} merges, {} sig-rejected]",
            st.cuts_merged, st.cuts_sig_rejected
        );
        rows.push(vec![
            name.to_string(),
            format!("{}", nl.num_logic_gates()),
            format!("{enum_us:.1}"),
            format!("{map_us:.1}"),
            format!("{reused_us:.1}"),
        ]);
        csv_rows.push(vec![
            name.to_string(),
            format!("{}", nl.num_logic_gates()),
            format!("{enum_us:.2}"),
            format!("{map_us:.2}"),
            format!("{reused_us:.2}"),
        ]);
    }

    write_csv(
        "map_scaling.csv",
        &[
            "circuit",
            "gates",
            "enumerate_us",
            "map_us",
            "map_reused_us",
        ],
        &csv_rows,
    );
    println!(
        "\n{}",
        table(
            &[
                "circuit",
                "gates",
                "enumerate us",
                "map us",
                "map(reused) us"
            ],
            &rows
        )
    );
    println!("baseline for regression checks: BENCH_map.json (repo root)");
}
