//! Single-command, resumable corpus labeling backed by the append-only
//! label store. Generates a deterministic random corpus shard-by-shard, labels
//! first-touch circuits on the thread pool, and serves everything
//! else from the store — so a killed run rerun with the same arguments
//! completes from cache bit-identically.
//!
//! ```text
//! labelgen [--circuits N] [--shard-size N] [--cycles N] [--seed X]
//!          [--store DIR] [--no-store] [--abort-after N]
//!          [--bench] [--out FILE] [--quick]
//! ```
//!
//! Prints `labels digest: 0x…` — the corpus-order fold of every circuit's
//! canonical label record — which cold, warm, and killed-and-resumed runs
//! must reproduce exactly.
//!
//! `--abort-after N` exits with code 3 after attempting `N` circuits
//! (mid-shard when `N` is not a shard boundary), simulating a kill:
//! each record is one appended frame, and a frame torn by a kill is only
//! ever a segment's ignored tail, so stopping between circuits is the same
//! as `SIGKILL` between record writes.
//!
//! `--bench` times a cold pass (fresh store) and five warm passes (same
//! store) over the same plan and writes a `BENCH_labels.json` artifact in
//! the moss-benchkit shape for `cargo xtask bench-check`; it exits nonzero
//! if any warm pass disagrees with the cold one on the digest or the
//! median warm pass is not at least 2x faster (the committed baseline
//! records about 2.5x — the 2x floor just keeps noisy CI boxes from
//! flaking).

use std::process::ExitCode;
use std::time::Instant;

use moss_bench::labels::{label_corpus, LabelConfig, LabelRunStats};
use moss_bench::run::RunManifest;
use moss_datagen::CorpusPlan;
use moss_netlist::CellLibrary;
use moss_store::LabelStore;

struct Options {
    circuits: usize,
    shard_size: usize,
    config: LabelConfig,
    store: Option<String>,
    abort_after: Option<usize>,
    bench: bool,
    out: String,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: labelgen [--circuits N] [--shard-size N] [--cycles N] [--seed X]\n\
         \x20               [--store DIR] [--no-store] [--abort-after N]\n\
         \x20               [--bench] [--out FILE] [--quick]"
    );
    ExitCode::from(2)
}

fn parse_options() -> Option<Options> {
    let mut opt = Options {
        circuits: 48,
        shard_size: 16,
        config: LabelConfig::default(),
        store: Some(
            std::env::var("MOSS_LABEL_STORE").unwrap_or_else(|_| "moss-label-store".to_string()),
        ),
        abort_after: None,
        bench: false,
        out: std::env::var("MOSS_BENCH_OUT").unwrap_or_else(|_| "BENCH_labels.json".to_string()),
    };
    let mut quick = std::env::var("MOSS_BENCH_QUICK").is_ok_and(|v| v == "1");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--circuits" => opt.circuits = args.next()?.parse().ok()?,
            "--shard-size" => opt.shard_size = args.next()?.parse().ok()?,
            "--cycles" => opt.config.sim_cycles = args.next()?.parse().ok()?,
            "--seed" => opt.config.seed = args.next()?.parse().ok()?,
            "--store" => opt.store = Some(args.next()?),
            "--no-store" => opt.store = None,
            "--abort-after" => opt.abort_after = Some(args.next()?.parse().ok()?),
            "--bench" => opt.bench = true,
            "--out" => opt.out = args.next()?,
            "--quick" => quick = true,
            _ => return None,
        }
    }
    if quick {
        opt.circuits = opt.circuits.min(18);
        opt.shard_size = opt.shard_size.min(6);
        opt.config.sim_cycles = opt.config.sim_cycles.min(4096);
    }
    if opt.circuits == 0 || opt.shard_size == 0 {
        return None;
    }
    Some(opt)
}

fn report(stats: &LabelRunStats, store: Option<&LabelStore>) {
    println!("labels digest: 0x{:016x}", stats.digest);
    eprintln!(
        "labelgen: {} labeled ({} from cache), {} skipped, {} shards",
        stats.labeled, stats.cache_hits, stats.skipped, stats.shards
    );
    if let Some(st) = store {
        use std::sync::atomic::Ordering::Relaxed;
        let s = st.stats();
        eprintln!(
            "labelgen: store {}: {} hits, {} misses, {} corrupt, {} writes, {} B read, {} B written",
            st.root().display(),
            s.hits.load(Relaxed),
            s.misses.load(Relaxed),
            s.corrupt.load(Relaxed),
            s.writes.load(Relaxed),
            s.bytes_read.load(Relaxed),
            s.bytes_written.load(Relaxed),
        );
    }
}

fn json_result(name: &str, iters: u64, mean_ns: f64, per_sec: f64) -> String {
    format!(
        "\n    {{\"name\": {name:?}, \"iters\": {iters}, \"mean_ns\": {mean_ns:.1}, \
         \"min_batch_ns\": {mean_ns:.1}, \"circuits_per_sec\": {per_sec:.2}}}"
    )
}

/// Warm passes `--bench` times over the same store. The floor and the
/// `labels/warm_per_circuit` row take their median, so one scheduler stall
/// in a few-millisecond pass cannot decide the gate.
const WARM_PASSES: usize = 5;

fn run_bench(opt: &Options, plan: &CorpusPlan) -> ExitCode {
    let dir = std::env::temp_dir().join(format!("moss-labelgen-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = match LabelStore::open(&dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("labelgen: cannot open bench store {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let lib = CellLibrary::default();

    let pass = |label: &str| -> Option<(LabelRunStats, f64)> {
        let mut manifest = RunManifest::new(format!("labelgen-bench-{label}"));
        let t = Instant::now();
        let stats = match label_corpus(plan, &lib, &opt.config, Some(&store), &mut manifest, None) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("labelgen: {label} pass failed: {e}");
                return None;
            }
        };
        let wall = t.elapsed().as_secs_f64();
        manifest.finish();
        eprintln!(
            "labelgen: {label}: {} circuits in {wall:.3}s ({} cache hits)",
            stats.labeled, stats.cache_hits
        );
        Some((stats, wall))
    };
    let Some((cold, cold_wall)) = pass("cold") else {
        return ExitCode::FAILURE;
    };
    let mut warm_walls = Vec::with_capacity(WARM_PASSES);
    for _ in 0..WARM_PASSES {
        let Some((warm, wall)) = pass("warm") else {
            return ExitCode::FAILURE;
        };
        if cold.digest != warm.digest || cold.labeled != warm.labeled {
            eprintln!(
                "labelgen: cold/warm mismatch: {} vs {} circuits, digest 0x{:016x} vs 0x{:016x}",
                cold.labeled, warm.labeled, cold.digest, warm.digest
            );
            return ExitCode::FAILURE;
        }
        if warm.cache_hits != warm.labeled {
            eprintln!(
                "labelgen: warm pass recomputed {} circuits that should have hit",
                warm.labeled - warm.cache_hits
            );
            return ExitCode::FAILURE;
        }
        warm_walls.push(wall);
    }
    let _ = std::fs::remove_dir_all(&dir);
    warm_walls.sort_by(f64::total_cmp);
    let warm_wall = warm_walls[WARM_PASSES / 2];

    let n = cold.labeled.max(1) as f64;
    let speedup = cold_wall / warm_wall.max(1e-9);
    eprintln!("labelgen: warm speedup {speedup:.1}x (median of {WARM_PASSES} warm passes)");

    let mut json = String::from("{\n  \"bench\": \"labels\",\n  \"results\": [");
    json.push_str(&json_result(
        "labels/cold_per_circuit",
        cold.labeled as u64,
        cold_wall * 1e9 / n,
        n / cold_wall.max(1e-9),
    ));
    json.push(',');
    json.push_str(&json_result(
        "labels/warm_per_circuit",
        cold.labeled as u64,
        warm_wall * 1e9 / n,
        n / warm_wall.max(1e-9),
    ));
    json.push_str("\n  ]\n}\n");
    if let Err(e) = std::fs::write(&opt.out, json) {
        eprintln!("labelgen: cannot write {}: {e}", opt.out);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", opt.out);

    if speedup < 2.0 {
        eprintln!("labelgen: warm pass only {speedup:.1}x faster than cold (< 2x floor)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let Some(opt) = parse_options() else {
        return usage();
    };
    let _obs = moss_obs::session();
    let plan = CorpusPlan::new(opt.config.seed, opt.circuits, opt.shard_size);

    if opt.bench {
        return run_bench(&opt, &plan);
    }

    let store = match &opt.store {
        Some(dir) => match LabelStore::open(dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("labelgen: cannot open store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let lib = CellLibrary::default();
    let mut manifest = RunManifest::new("labelgen");
    let stats = match label_corpus(
        &plan,
        &lib,
        &opt.config,
        store.as_ref(),
        &mut manifest,
        opt.abort_after,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("labelgen: {e}");
            manifest.finish();
            return ExitCode::FAILURE;
        }
    };
    manifest.finish();
    report(&stats, store.as_ref());

    if let Some(limit) = opt.abort_after {
        if limit < opt.circuits {
            eprintln!(
                "labelgen: aborted after {limit}/{} circuits (rerun to resume)",
                opt.circuits
            );
            return ExitCode::from(3);
        }
    }
    ExitCode::SUCCESS
}
