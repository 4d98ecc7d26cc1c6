//! Label-determinism check: toggle/probability ground truth from the
//! compiled truth-table engine must be bit-identical to the event-driven
//! `GateSim` oracle on a fixed corpus — the eight synthesized Table I
//! benchmark circuits plus random netlists across the paper's 100–5000-cell
//! size band.
//!
//! Exits nonzero on any mismatch (CI runs this).
//!
//! Usage: `cargo run -p moss-bench --bin simcheck --release`

use std::time::{Duration, Instant};

use moss_netlist::Netlist;
use moss_sim::{simulate_random, simulate_random_compiled, CompiledSim, GateSim};
use moss_synth::{synthesize, SynthOptions};

const CYCLES: u64 = 2_048;
const SEED: u64 = 0x5eed;

/// Wall-clock totals per engine, for the EXPERIMENTS.md pre/post numbers
/// (this is exactly the quick-config label-simulation workload).
#[derive(Default)]
struct Clocks {
    gatesim: Duration,
    compiled: Duration,
}

/// Runs both engines on one netlist with identical resets and stimulus;
/// returns the number of per-node label mismatches.
fn check(
    name: &str,
    netlist: &Netlist,
    resets: &[(moss_netlist::NodeId, bool)],
    clocks: &mut Clocks,
) -> u64 {
    let mut gate = GateSim::new(netlist).expect("valid netlist");
    let mut compiled = CompiledSim::new(netlist).expect("valid netlist");
    for &(dff, v) in resets {
        gate.set_state(dff, v);
        compiled.set_state(dff, v);
    }
    gate.full_settle();
    compiled.settle();

    let t = Instant::now();
    let reference = simulate_random(&mut gate, CYCLES, SEED);
    clocks.gatesim += t.elapsed();
    let t = Instant::now();
    let candidate = simulate_random_compiled(&mut compiled, CYCLES, SEED);
    clocks.compiled += t.elapsed();

    let mut mismatches = 0u64;
    for i in 0..netlist.node_count() {
        if reference.toggles[i] != candidate.toggles[i] || reference.ones[i] != candidate.ones[i] {
            mismatches += 1;
        }
    }
    let verdict = if mismatches == 0 { "ok" } else { "MISMATCH" };
    eprintln!(
        "{name:<28} {:>6} cells {:>6} nodes  {verdict}",
        netlist.cell_count(),
        netlist.node_count()
    );
    mismatches
}

fn main() {
    let _obs = moss_obs::session();
    let mut circuits = 0u64;
    let mut bad_nodes = 0u64;
    let mut clocks = Clocks::default();

    // The synthesized Table I benchmark suite, resets from DFF bindings —
    // the exact corpus the data pipeline builds labels over.
    for module in moss_datagen::benchmark_suite() {
        let synth = synthesize(&module, &SynthOptions::default()).expect("suite synthesizes");
        let resets: Vec<_> = synth.dffs.iter().map(|b| (b.dff, b.reset)).collect();
        bad_nodes += check(module.name(), &synth.netlist, &resets, &mut clocks);
        circuits += 1;
    }

    // Random netlists across the size band, no resets (power-on zeros).
    for (i, &cells) in [100usize, 500, 1_000, 2_000, 5_000].iter().enumerate() {
        let nl = moss_datagen::random_netlist(0xc0ffee ^ i as u64, cells);
        bad_nodes += check(nl.name(), &nl, &[], &mut clocks);
        circuits += 1;
    }

    eprintln!(
        "label simulation ({CYCLES} cycles/circuit): gatesim {:.2}s, compiled {:.2}s ({:.1}x)",
        clocks.gatesim.as_secs_f64(),
        clocks.compiled.as_secs_f64(),
        clocks.gatesim.as_secs_f64() / clocks.compiled.as_secs_f64()
    );
    if bad_nodes == 0 {
        eprintln!("simcheck: {circuits} circuits, all labels bit-identical");
    } else {
        eprintln!("simcheck: FAILED — {bad_nodes} mismatching nodes across {circuits} circuits");
        std::process::exit(1);
    }
}
