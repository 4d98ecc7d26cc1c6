//! `label`: cold corpus labeling into a fresh sharded label store, the way
//! `labelgen` does it — the corpus is generated one shard of [`SHARD`]
//! designs at a time, each shard is fanned out over the work-stealing
//! pool, and every circuit is synthesized, simulated, timed,
//! power-annotated and published.
//!
//! The corpus has no end: circuit `i` is `corpus_module(root, i)`, with
//! `root` mixed from the seed so that each seed gives an independent
//! corpus, and every operation labels a design not seen before (a cold
//! store miss). Outputs are checked three ways: every label is in range,
//! a warm pass over a sample must hit the store and reproduce each record
//! digest, and the first circuits are relabeled without a store and must
//! match bit for bit.

use std::path::Path;
use std::time::{Duration, Instant};

use moss::{labels_to_record, LabeledCircuit, Labels, SampleOptions};
use moss_datagen::corpus_module;
use moss_netlist::CellLibrary;
use moss_store::LabelStore;
use moss_synth::SynthError;

use crate::{mix, repeat_setup, Args, Outcome, Report};

/// Designs per shard (`labelgen`'s default `--shard-size`).
const SHARD: usize = 16;
/// Random-stimulus cycles per circuit (`labelgen`'s default).
const SIM_CYCLES: u64 = 4096;
/// Set-up repetitions before the window (`setup_s` is the median of these
/// and of one more after every shard).
const SETUP_REPS: usize = 11;
/// Circuits relabeled warm after the window.
const WARM_CHECKS: usize = 128;
/// Circuits relabeled without a store after the window.
const COLD_CHECKS: usize = 4;

/// Labels corpus circuit `i` of corpus `root`, through `store` when one
/// is given. Stimulus seeds follow `labelgen` (`root ^ (i << 8)`).
fn build(
    root: u64,
    lib: &CellLibrary,
    i: u64,
    store: Option<&LabelStore>,
) -> Result<LabeledCircuit, SynthError> {
    let options = SampleOptions {
        sim_cycles: SIM_CYCLES,
        seed: root ^ (i << 8),
        ..SampleOptions::default()
    };
    LabeledCircuit::build(&corpus_module(root, i as usize), lib, &options, store)
}

/// The workload's set-up: opens the label store at `dir` and builds the
/// cell library.
fn set_up(dir: &Path) -> Result<(LabelStore, CellLibrary), String> {
    let store = LabelStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    Ok((store, CellLibrary::default()))
}

fn in_range(l: &Labels) -> bool {
    let unit = |v: &f32| (0.0..=1.0).contains(v);
    l.toggle.iter().all(unit)
        && l.probability.iter().all(unit)
        && l.arrival_ns.iter().all(|&(_, t)| t.is_finite() && t >= 0.0)
        // Some random designs reduce to wires: no cells, no power.
        && l.total_power_nw.is_finite()
        && l.total_power_nw >= 0.0
}

/// One labeled circuit: corpus index, completion time since the window
/// opened, latency, and either the record digest plus whether it was a
/// cold miss with in-range labels, or the error.
type Labeled = (u64, Duration, u64, Result<(u64, bool), String>);

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let root = mix(args.seed, 0);

    // The store's directory is made first, so that set-up times the open
    // itself and not the file system's journal.
    let store_dir = work.join("store");
    std::fs::create_dir_all(&store_dir).map_err(|e| format!("create store: {e}"))?;
    let ((store, lib), mut setup_s) = repeat_setup(SETUP_REPS, |_| set_up(&store_dir))?;
    // One untimed shard without the store starts the worker pool, warms
    // caches and leaves the store empty for the window.
    let warm: Vec<u64> = (0..SHARD as u64).collect();
    for r in moss_tensor::par_map(&warm, |_, &i| build(root, &lib, i, None)) {
        r.map_err(|e| format!("warm-up: {e}"))?;
    }

    if args.trace {
        moss_obs::reset();
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let mut done: Vec<Labeled> = Vec::new();
    let mut next = 0u64;
    while Instant::now() < deadline {
        let shard: Vec<u64> = (next..next + SHARD as u64).collect();
        next += SHARD as u64;
        done.extend(moss_tensor::par_map(&shard, |_, &i| {
            let t = Instant::now();
            let built = build(root, &lib, i, Some(&store));
            let ns = t.elapsed().as_nanos() as u64;
            let checked = built
                .map(|lc| {
                    let digest = labels_to_record(&lc.netlist, &lc.labels).digest();
                    (digest, !lc.cache_hit && in_range(&lc.labels))
                })
                .map_err(|e| e.to_string());
            (i, start.elapsed(), ns, checked)
        }));
        // Set-up takes microseconds, so one timing of it reads the host's
        // speed of that moment. Timing it again after every shard makes its
        // median cover the same stretch of time as the other figures.
        setup_s.extend(repeat_setup(1, |_| set_up(&store_dir))?.1);
    }
    let report = args.trace.then(Report::take);

    let mut ops = Vec::with_capacity(done.len());
    let mut failed = 0u64;
    let mut bad = 0u64;
    let mut digests = Vec::with_capacity(done.len());
    for (i, at, ns, r) in &done {
        match r {
            Ok((digest, ok)) => {
                ops.push((*at, *ns));
                bad += u64::from(!ok);
                digests.push((*i, *digest));
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: circuit {i}: {e}");
            }
        }
    }

    // Warm pass: a spread sample must come back from the store unchanged.
    let stride = digests.len().div_ceil(WARM_CHECKS).max(1);
    let sample: Vec<(u64, u64)> = digests.iter().step_by(stride).copied().collect();
    let relabel = |i: u64, store: Option<&LabelStore>| {
        build(root, &lib, i, store)
            .map(|lc| {
                (
                    labels_to_record(&lc.netlist, &lc.labels).digest(),
                    lc.cache_hit,
                )
            })
            .ok()
    };
    let warm_bad: u64 = moss_tensor::par_map(&sample, |_, &(i, want)| {
        u64::from(relabel(i, Some(&store)) != Some((want, true)))
    })
    .into_iter()
    .sum();
    // Storeless recompute: the stored labels are the labels.
    let cold_bad: u64 = digests
        .iter()
        .take(COLD_CHECKS)
        .map(|&(i, want)| u64::from(relabel(i, None) != Some((want, false))))
        .sum();
    if bad + warm_bad + cold_bad > 0 {
        eprintln!(
            "perfbench: {bad} circuits not cold or out of range, {warm_bad} warm and \
             {cold_bad} storeless mismatches"
        );
    }
    Ok(Outcome {
        attempted: done.len() as u64,
        failed,
        ops,
        correct: bad + warm_bad + cold_bad == 0,
        setup_s,
        report,
    })
}
