//! Bring-your-own-netlist ingestion: parse gate-level Verilog files with
//! the typed frontend and run each through the ground-truth label
//! pipeline, optionally backed by the label store.
//!
//! ```text
//! ingest [--store DIR] [--cycles N] [--seed X] [--clock-mhz F] FILE.v...
//! ```
//!
//! For each file, prints one line:
//!
//! ```text
//! <file>: <module> cells=<n> dffs=<n> hash=0x<canonical> power_nw=<f> [cached]
//! ```
//!
//! Parse errors go to stderr with their line and column and the run exits
//! with code 2 — the error position is the point of the typed frontend,
//! so a 10k-line benchmark that dies tells you *where*.

use std::process::ExitCode;

use moss::{LabeledCircuit, SampleOptions};
use moss_netlist::{canonical_hash, CellLibrary};
use moss_store::LabelStore;

struct Options {
    store: Option<String>,
    sample: SampleOptions,
    files: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!("usage: ingest [--store DIR] [--cycles N] [--seed X] [--clock-mhz F] FILE.v...");
    ExitCode::from(2)
}

fn parse_options() -> Option<Options> {
    let mut opt = Options {
        store: None,
        sample: SampleOptions::default(),
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => opt.store = Some(args.next()?),
            "--cycles" => opt.sample.sim_cycles = args.next()?.parse().ok()?,
            "--seed" => opt.sample.seed = args.next()?.parse().ok()?,
            "--clock-mhz" => opt.sample.clock_mhz = args.next()?.parse().ok()?,
            f if !f.starts_with('-') => opt.files.push(f.to_string()),
            _ => return None,
        }
    }
    if opt.files.is_empty() {
        return None;
    }
    Some(opt)
}

fn main() -> ExitCode {
    let Some(opt) = parse_options() else {
        return usage();
    };
    let _obs = moss_obs::session();
    let store = match &opt.store {
        Some(dir) => match LabelStore::open(dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("ingest: cannot open store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let lib = CellLibrary::default();

    let mut failed = false;
    for file in &opt.files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ingest: {file}: {e}");
                failed = true;
                continue;
            }
        };
        match LabeledCircuit::from_verilog(&src, &lib, &opt.sample, store.as_ref()) {
            Ok(lc) => {
                println!(
                    "{file}: {} cells={} dffs={} hash=0x{:016x} power_nw={:.3}{}",
                    lc.netlist.name(),
                    lc.netlist.cell_count(),
                    lc.bindings.len(),
                    canonical_hash(&lc.netlist),
                    lc.labels.total_power_nw,
                    if lc.cache_hit { " [cached]" } else { "" },
                );
            }
            Err(e) => {
                // The Display impl for parse errors already leads with
                // "line L, column C" — keep it on one grep-able line.
                eprintln!("ingest: {file}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
