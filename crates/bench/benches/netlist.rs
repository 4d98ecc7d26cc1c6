//! The netlist frontend a cache hit pays for: `parse_verilog` over the
//! writer's output of synthesized Table I circuits (about 200, 1.4k and
//! 5k cells), and `canonical_hash` of the parsed netlist — together they
//! are `moss-serve`'s `serve.decode`. `items_per_sec` is source bytes per
//! second for the parse rows and cells per second for the hash rows.
//!
//! Emits `BENCH_netlist.json` at the workspace root. Run with
//! `cargo bench -p moss-bench --bench netlist`. `MOSS_BENCH_OUT=path`
//! redirects the JSON report and `MOSS_BENCH_QUICK=1` shrinks the timing
//! budgets (used by `cargo xtask bench-check`).

use std::time::Duration;

use moss_benchkit::Suite;
use moss_netlist::{canonical_hash, parse_verilog, write_verilog};
use moss_synth::{synthesize, SynthOptions};

/// The writer's Verilog for one Table I circuit, by name.
fn source(name: &str) -> String {
    let module = moss_datagen::benchmark_suite()
        .into_iter()
        .find(|m| m.name() == name)
        .expect("a Table I circuit");
    let synth = synthesize(&module, &SynthOptions::default()).expect("synthesizes");
    write_verilog(&synth.netlist)
}

fn main() {
    let mut suite =
        Suite::new("netlist").with_budget(Duration::from_millis(100), Duration::from_millis(500));
    if std::env::var("MOSS_BENCH_QUICK").is_ok_and(|v| v == "1") {
        suite = suite.with_budget(Duration::from_millis(50), Duration::from_millis(200));
    }

    for name in ["max_selector", "signed_mac", "mult_16x32_to_48"] {
        let src = source(name);
        suite.bench_with_items(&format!("parse_verilog/{name}"), src.len() as u64, || {
            std::hint::black_box(parse_verilog(std::hint::black_box(&src)).expect("parses"));
        });
    }
    for name in ["signed_mac", "mult_16x32_to_48"] {
        let netlist = parse_verilog(&source(name)).expect("parses");
        let cells = netlist.cell_count() as u64;
        suite.bench_with_items(&format!("canonical_hash/{name}"), cells, || {
            std::hint::black_box(canonical_hash(std::hint::black_box(&netlist)));
        });
    }

    let out = std::env::var("MOSS_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_netlist.json").to_string()
    });
    suite.write_json(&out).expect("write netlist bench JSON");
}
