//! Gate-level simulation throughput: `GateSim` (event-driven oracle) vs
//! `CompiledSim`, on random netlists at the paper's circuit size band
//! (~100 / 1k / 5k cells).
//!
//! Emits `BENCH_sim.json` at the workspace root; `items_per_sec` is
//! cycles/second. Run with `cargo bench -p moss-bench --bench sim`.
//! `MOSS_BENCH_OUT` redirects the JSON report and `MOSS_BENCH_QUICK=1`
//! shrinks the timing budgets (used by `cargo xtask bench-check`).

use std::time::Duration;

use moss_benchkit::Suite;
use moss_sim::{simulate_random, simulate_random_compiled, CompiledSim, GateSim};

fn main() {
    let mut suite =
        Suite::new("sim").with_budget(Duration::from_millis(150), Duration::from_millis(600));
    if std::env::var("MOSS_BENCH_QUICK").is_ok_and(|v| v == "1") {
        suite = suite.with_budget(Duration::from_millis(50), Duration::from_millis(200));
    }

    for &cells in &[100usize, 1_000, 5_000] {
        let netlist = moss_datagen::random_netlist(0x51u64 ^ cells as u64, cells);
        // Fewer cycles per iteration on bigger circuits keeps iteration
        // times in the harness's sweet spot; throughput normalizes it out.
        let cycles: u64 = match cells {
            100 => 2_048,
            1_000 => 512,
            _ => 128,
        };

        let mut gate = GateSim::new(&netlist).expect("valid netlist");
        suite.bench_with_items(&format!("gatesim/{cells}c"), cycles, || {
            std::hint::black_box(simulate_random(&mut gate, cycles, 7));
        });

        let mut compiled = CompiledSim::new(&netlist).expect("valid netlist");
        suite.bench_with_items(&format!("compiled/{cells}c"), cycles, || {
            std::hint::black_box(simulate_random_compiled(&mut compiled, cycles, 7));
        });
    }

    let out = std::env::var("MOSS_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json").to_string()
    });
    suite.write_json(&out).expect("write sim bench JSON");

    // Speedup summary over the (gatesim, compiled) row pairs.
    let results = suite.results();
    for chunk in results.chunks(2) {
        if let [g, c] = chunk {
            let (Some(gr), Some(cr)) = (g.items_per_sec, c.items_per_sec) else {
                continue;
            };
            eprintln!(
                "{:>8}: compiled {:.1}x",
                g.name.rsplit('/').next().unwrap_or(""),
                cr / gr,
            );
        }
    }
}
