//! Label-determinism check: toggle/probability ground truth from the
//! compiled truth-table engine must be bit-identical to the event-driven
//! `GateSim` oracle on a fixed corpus — the eight synthesized Table I
//! benchmark circuits, random netlists across the paper's 100–5000-cell
//! size band, and 192 synthesized `corpus_module` designs, the kind the
//! label corpus is made of, at the label pipeline's 4,096 cycles.
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
/// Cycles per `corpus_module` design (`labelgen`'s default).
const CORPUS_CYCLES: u64 = 4_096;
/// `corpus_module` designs checked, all of one root.
const CORPUS_DESIGNS: usize = 192;
/// Their root seed (`labelgen`'s default).
const CORPUS_ROOT: u64 = 0x5e4d;

/// Wall-clock totals per engine, for the EXPERIMENTS.md pre/post numbers
/// (this is exactly the quick-config label-simulation workload).
#[derive(Default)]
struct Clocks {
    gatesim: Duration,
    compiled: Duration,
}

/// Runs both engines on one netlist with identical resets and stimulus;
/// returns the number of nodes whose toggle count, ones count or value
/// after the run differ.
fn check(
    netlist: &Netlist,
    resets: &[(moss_netlist::NodeId, bool)],
    cycles: u64,
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
    let reference = simulate_random(&mut gate, cycles, SEED);
    clocks.gatesim += t.elapsed();
    let t = Instant::now();
    let candidate = simulate_random_compiled(&mut compiled, cycles, SEED);
    clocks.compiled += t.elapsed();

    let (expected, got) = (gate.values(), compiled.values());
    (0..netlist.node_count())
        .filter(|&i| {
            reference.toggles[i] != candidate.toggles[i]
                || reference.ones[i] != candidate.ones[i]
                || expected[i] != got[i]
        })
        .count() as u64
}

fn print_verdict(name: &str, netlist: &Netlist, mismatches: u64) {
    let verdict = if mismatches == 0 { "ok" } else { "MISMATCH" };
    eprintln!(
        "{name:<28} {:>6} cells {:>6} nodes  {verdict}",
        netlist.cell_count(),
        netlist.node_count()
    );
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
        let bad = check(&synth.netlist, &resets, CYCLES, &mut clocks);
        print_verdict(module.name(), &synth.netlist, bad);
        bad_nodes += bad;
        circuits += 1;
    }

    // Random netlists across the size band, no resets (power-on zeros).
    for (i, &cells) in [100usize, 500, 1_000, 2_000, 5_000].iter().enumerate() {
        let nl = moss_datagen::random_netlist(0xc0ffee ^ i as u64, cells);
        let bad = check(&nl, &[], CYCLES, &mut clocks);
        print_verdict(nl.name(), &nl, bad);
        bad_nodes += bad;
        circuits += 1;
    }

    // The label workload's designs, resets from DFF bindings; only a
    // mismatching design is listed.
    let mut corpus_clocks = Clocks::default();
    for i in 0..CORPUS_DESIGNS {
        let module = moss_datagen::corpus_module(CORPUS_ROOT, i);
        let synth = synthesize(&module, &SynthOptions::default()).expect("corpus synthesizes");
        let resets: Vec<_> = synth.dffs.iter().map(|b| (b.dff, b.reset)).collect();
        let bad = check(&synth.netlist, &resets, CORPUS_CYCLES, &mut corpus_clocks);
        if bad > 0 {
            print_verdict(&format!("corpus_{i}"), &synth.netlist, bad);
        }
        bad_nodes += bad;
        circuits += 1;
    }

    eprintln!(
        "label simulation ({CYCLES} cycles/circuit): gatesim {:.2}s, compiled {:.2}s ({:.1}x)",
        clocks.gatesim.as_secs_f64(),
        clocks.compiled.as_secs_f64(),
        clocks.gatesim.as_secs_f64() / clocks.compiled.as_secs_f64()
    );
    eprintln!(
        "corpus ({CORPUS_DESIGNS} designs, {CORPUS_CYCLES} cycles each): gatesim {:.2}s, compiled {:.2}s",
        corpus_clocks.gatesim.as_secs_f64(),
        corpus_clocks.compiled.as_secs_f64(),
    );
    if bad_nodes == 0 {
        eprintln!("simcheck: {circuits} circuits, all labels bit-identical");
    } else {
        eprintln!("simcheck: FAILED — {bad_nodes} mismatching nodes across {circuits} circuits");
        std::process::exit(1);
    }
}
