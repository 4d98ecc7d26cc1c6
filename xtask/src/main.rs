//! Workspace tasks. `cargo xtask bench-check` is the perf-regression gate:
//! it runs the kernels, sim, models and netlist bench suites plus the
//! serve load generator and the labelgen cold/warm bench with quick
//! budgets (`MOSS_BENCH_QUICK=1`), redirects their reports under `target/`
//! via `MOSS_BENCH_OUT`, and compares each benchmark's `mean_ns` against
//! the committed `BENCH_kernels.json` / `BENCH_sim.json` /
//! `BENCH_models.json` / `BENCH_serve.json` / `BENCH_labels.json` /
//! `BENCH_netlist.json` baselines, failing if any benchmark slowed beyond
//! the tolerance.
//!
//! Tolerance is a fraction of the baseline: `--tolerance 0.5` (or
//! `MOSS_BENCH_TOLERANCE=0.5`; default 0.5) fails a benchmark that is
//! more than 1.5× its baseline mean. CI uses a looser tolerance because its
//! runners differ from the machine the baselines were recorded on — the
//! gate exists to catch order-of-magnitude regressions before they merge,
//! not percent-level drift.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

// `kernels`, `sim`, `models` and `netlist` run through `cargo bench`; `serve` runs
// the loadgen binary from `moss-serve` and `labels` the labelgen binary
// from moss-bench (their reports have the same shape).
const SUITES: &[&str] = &["kernels", "sim", "models", "serve", "labels", "netlist"];
// Quick-budget runs are noisy (the naive large matmul swings ±30% on a
// busy host); the default tolerance is wide enough to absorb that while
// still catching a regression back to the pre-pool / pre-SIMD kernels
// (those are 5x+ slower, far outside any plausible noise band). CI
// overrides it looser via MOSS_BENCH_TOLERANCE because its runners differ
// from the baseline machine.
const DEFAULT_TOLERANCE: f64 = 0.5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-check") => bench_check(&args[1..]),
        Some("fault-check") => fault_check(),
        Some("chaos-check") => chaos_check(&args[1..]),
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`");
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::SUCCESS
        }
    }
}

fn usage() {
    eprintln!("tasks:");
    eprintln!("  bench-check [--tolerance FRACTION]   compare a fresh quick bench run");
    eprintln!("                                       against the committed BENCH_*.json");
    eprintln!("                                       baselines; fail on regression");
    eprintln!("  fault-check                          run the table1 pipeline with fault");
    eprintln!("                                       injection armed; fail unless it");
    eprintln!("                                       degrades gracefully (exit 0, skips");
    eprintln!("                                       recorded, no NaN in the table)");
    eprintln!("  chaos-check [--quick] [--schedules N]  soak moss-serve under randomized");
    eprintln!("              [--seed N]                 MOSS_FAULTS schedules + concurrent");
    eprintln!("                                       hot-reloads; fail on any panic,");
    eprintln!("                                       wrong bytes, accepted-corrupt");
    eprintln!("                                       checkpoint, or blown error budget");
    eprintln!("(experiment binaries live in crates/bench)");
}

fn bench_check(args: &[String]) -> ExitCode {
    let tolerance = match parse_tolerance(args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask bench-check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = workspace_root();
    let scratch = root.join("target").join("bench-check");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!(
            "xtask bench-check: cannot create {}: {e}",
            scratch.display()
        );
        return ExitCode::FAILURE;
    }

    let mut failures = 0usize;
    for suite in SUITES {
        let baseline_path = root.join(format!("BENCH_{suite}.json"));
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!(
                    "xtask bench-check: missing baseline {}: {e}",
                    baseline_path.display()
                );
                return ExitCode::FAILURE;
            }
        };

        let fresh_path = scratch.join(format!("BENCH_{suite}.json"));
        eprintln!("# bench-check: running quick `{suite}` suite…");
        let mut cmd = Command::new(env!("CARGO"));
        if *suite == "serve" {
            // The serving numbers come from the load generator, not a
            // benchkit bench: real sockets, concurrent clients.
            cmd.args(["run", "--release", "-p", "moss-serve", "--bin", "loadgen"]);
        } else if *suite == "labels" {
            // Cold-vs-warm labeling throughput through the label store;
            // labelgen self-checks digest equality and the warm
            // speedup floor before writing its report.
            cmd.args([
                "run",
                "--release",
                "-p",
                "moss-bench",
                "--bin",
                "labelgen",
                "--",
                "--bench",
            ]);
        } else {
            cmd.args(["bench", "-p", "moss-bench", "--bench", suite]);
        }
        let status = cmd
            .current_dir(&root)
            .env("MOSS_BENCH_QUICK", "1")
            .env("MOSS_BENCH_OUT", &fresh_path)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("xtask bench-check: `{suite}` suite failed: {s}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("xtask bench-check: cannot spawn cargo: {e}");
                return ExitCode::FAILURE;
            }
        }
        let fresh = match std::fs::read_to_string(&fresh_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!(
                    "xtask bench-check: bench wrote no report at {}: {e}",
                    fresh_path.display()
                );
                return ExitCode::FAILURE;
            }
        };

        let report = compare(&parse_bench(&baseline), &parse_bench(&fresh), tolerance);
        print!("{}", render(suite, &report, tolerance));
        failures += report.iter().filter(|r| r.regressed()).count();
    }

    if failures > 0 {
        eprintln!("xtask bench-check: FAIL — {failures} benchmark(s) regressed beyond tolerance");
        ExitCode::FAILURE
    } else {
        eprintln!("xtask bench-check: OK — no regressions beyond tolerance");
        ExitCode::SUCCESS
    }
}

/// Fault spec for the robustness gate. The seed is pinned so the same
/// circuits fail on every run — the gate must be deterministic, and at
/// least one skip must actually fire for the check to mean anything.
const FAULT_CHECK_SPEC: &str = "synth:0.1:3,sim:0.1:5";

fn fault_check() -> ExitCode {
    let root = workspace_root();
    let scratch = root.join("target").join("fault-check");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!(
            "xtask fault-check: cannot create {}: {e}",
            scratch.display()
        );
        return ExitCode::FAILURE;
    }
    let manifest_path = scratch.join("manifest.json");
    let _ = std::fs::remove_file(&manifest_path);

    eprintln!("# fault-check: running table1 --tiny with MOSS_FAULTS={FAULT_CHECK_SPEC}…");
    let output = Command::new(env!("CARGO"))
        .args([
            "run",
            "--release",
            "-p",
            "moss-bench",
            "--bin",
            "table1",
            "--",
            "--tiny",
        ])
        .current_dir(&root)
        .env("MOSS_FAULTS", FAULT_CHECK_SPEC)
        .env("MOSS_MAX_FAILED_FRAC", "0.5")
        .env("MOSS_RUN_MANIFEST", &manifest_path)
        .output();
    let output = match output {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask fault-check: cannot spawn cargo: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);

    let mut failures = Vec::new();
    if !output.status.success() {
        failures.push(format!(
            "pipeline exited with {} under injected faults (wanted graceful degradation)",
            output.status
        ));
    }
    match std::fs::read_to_string(&manifest_path) {
        Ok(manifest) => {
            let skips = manifest.matches("\"circuit\":").count();
            if skips == 0 {
                failures.push(format!(
                    "manifest records no skipped circuits — the armed fault sites \
                     never fired (retune {FAULT_CHECK_SPEC})"
                ));
            } else {
                eprintln!("# fault-check: {skips} circuit(s) skipped and recorded");
            }
        }
        Err(e) => failures.push(format!(
            "run wrote no manifest at {}: {e}",
            manifest_path.display()
        )),
    }
    if stdout.contains("NaN") {
        failures.push("table output contains NaN — degraded averages leaked".to_string());
    }
    if !stdout.contains("Table I") {
        failures.push("table output missing — the run never reached rendering".to_string());
    }

    if failures.is_empty() {
        eprintln!("xtask fault-check: OK — pipeline degraded gracefully under injected faults");
        ExitCode::SUCCESS
    } else {
        eprint!("{stderr}");
        print!("{stdout}");
        for f in &failures {
            eprintln!("xtask fault-check: FAIL — {f}");
        }
        ExitCode::FAILURE
    }
}

/// The chaos gate: build the soak harness once, then run it under a
/// battery of randomized-but-reproducible `MOSS_FAULTS` schedules
/// (serve/io/net/store sites at varied rates and seeds). The harness checks the hard invariants itself (bit-identical
/// successes, corrupt checkpoints rejected, clean drain, error budget);
/// this gate additionally treats *any* "panicked" in the output as
/// failure — a respawned thread during a soak means an organic panic
/// slipped in, which the harness would also flag at drain, but belt and
/// suspenders are the point of a chaos gate. Finally it proves the
/// bench client survives a lossy network: one `loadgen --quick` run
/// under a `net` fault schedule must still exit 0.
fn chaos_check(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut schedules: Option<usize> = None;
    let mut seed: u64 = 0xC4A0_5EED;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--schedules" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => schedules = Some(n),
                None => {
                    eprintln!("xtask chaos-check: --schedules needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => seed = n,
                None => {
                    eprintln!("xtask chaos-check: --seed needs a number");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask chaos-check: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let schedules = schedules.unwrap_or(if quick { 8 } else { 25 });
    let root = workspace_root();
    let scratch = root.join("target").join("chaos-check");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!(
            "xtask chaos-check: cannot create {}: {e}",
            scratch.display()
        );
        return ExitCode::FAILURE;
    }

    eprintln!("# chaos-check: building the soak harness…");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "-p",
            "moss-serve",
            "--bin",
            "chaos",
            "--bin",
            "loadgen",
        ])
        .current_dir(&root)
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("xtask chaos-check: build failed: {s}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("xtask chaos-check: cannot spawn cargo: {e}");
            return ExitCode::FAILURE;
        }
    }
    let chaos_bin = root.join("target").join("release").join("chaos");
    let loadgen_bin = root.join("target").join("release").join("loadgen");

    // xorshift64: deterministic schedule generation from --seed.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    for i in 0..schedules {
        // Each fault site joins the schedule with ~55% probability; the
        // serve site (deterministic per-circuit request poisoning) gets
        // a lower rate ceiling so the corpus is never fully poisoned.
        let mut spec = Vec::new();
        for site in ["serve", "io", "net", "store"] {
            if next() % 100 < 55 {
                let ceiling = if site == "serve" { 0.20 } else { 0.25 };
                let rate = 0.02 + (next() % 1000) as f64 / 1000.0 * (ceiling - 0.02);
                let site_seed = next() % 10_000;
                spec.push(format!("{site}:{rate:.3}:{site_seed}"));
            }
        }
        if spec.is_empty() {
            // A chaos schedule with no chaos proves nothing.
            spec.push(format!("net:0.100:{}", next() % 10_000));
        }
        let faults = spec.join(",");
        // Three draws per schedule once picked server tuning that no
        // longer exists; they are still taken so that every --seed keeps
        // drawing the fault schedules it always drew.
        for _ in 0..3 {
            next();
        }
        eprintln!(
            "# chaos-check: schedule {}/{schedules}: MOSS_FAULTS={faults}",
            i + 1
        );
        let mut cmd = Command::new(&chaos_bin);
        if quick {
            cmd.arg("--quick");
        }
        let output = cmd.current_dir(&root).env("MOSS_FAULTS", &faults).output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!(
                    "xtask chaos-check: cannot spawn {}: {e}",
                    chaos_bin.display()
                );
                return ExitCode::FAILURE;
            }
        };
        let stderr = String::from_utf8_lossy(&output.stderr);
        let stdout = String::from_utf8_lossy(&output.stdout);
        let panicked = stderr.contains("panicked") || stdout.contains("panicked");
        if !output.status.success() || panicked {
            eprint!("{stderr}");
            print!("{stdout}");
            if panicked {
                eprintln!(
                    "xtask chaos-check: FAIL — a thread panicked under schedule \
                     MOSS_FAULTS={faults} (zero-panic invariant)"
                );
            } else {
                eprintln!(
                    "xtask chaos-check: FAIL — harness exited {} under schedule \
                     MOSS_FAULTS={faults}",
                    output.status
                );
            }
            return ExitCode::FAILURE;
        }
    }

    // The bench client must shrug off a lossy network, not abort on it.
    eprintln!("# chaos-check: loadgen --quick under MOSS_FAULTS=net:0.05:7…");
    let output = Command::new(&loadgen_bin)
        .arg("--quick")
        .current_dir(&root)
        .env("MOSS_FAULTS", "net:0.05:7")
        .env("MOSS_BENCH_OUT", scratch.join("BENCH_serve.json"))
        .output();
    match output {
        Ok(o) if o.status.success() => {}
        Ok(o) => {
            eprint!("{}", String::from_utf8_lossy(&o.stderr));
            eprintln!(
                "xtask chaos-check: FAIL — loadgen exited {} under net faults \
                 (the resilient client must absorb them)",
                o.status
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!(
                "xtask chaos-check: cannot spawn {}: {e}",
                loadgen_bin.display()
            );
            return ExitCode::FAILURE;
        }
    }

    eprintln!(
        "xtask chaos-check: OK — {schedules} schedule(s), zero panics, zero wrong bytes, \
         corrupt checkpoints rejected, clean drains"
    );
    ExitCode::SUCCESS
}

fn parse_tolerance(args: &[String]) -> Result<f64, String> {
    let mut tolerance: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--tolerance needs a value".to_string())?;
                tolerance = Some(
                    v.parse::<f64>()
                        .map_err(|_| format!("bad tolerance `{v}`"))?,
                );
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if tolerance.is_none() {
        if let Ok(v) = std::env::var("MOSS_BENCH_TOLERANCE") {
            tolerance = Some(
                v.parse::<f64>()
                    .map_err(|_| format!("bad MOSS_BENCH_TOLERANCE `{v}`"))?,
            );
        }
    }
    let t = tolerance.unwrap_or(DEFAULT_TOLERANCE);
    if t.is_finite() && t >= 0.0 {
        Ok(t)
    } else {
        Err(format!(
            "tolerance must be a non-negative fraction, got {t}"
        ))
    }
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level under the workspace root")
        .to_path_buf()
}

/// One benchmark's baseline-vs-fresh comparison.
#[derive(Debug, Clone, PartialEq)]
struct Comparison {
    name: String,
    baseline_ns: f64,
    /// `None` when the benchmark disappeared from the fresh run.
    fresh_ns: Option<f64>,
    /// `fresh / baseline`; > 1 means slower than baseline.
    ratio: Option<f64>,
    over_tolerance: bool,
}

impl Comparison {
    fn regressed(&self) -> bool {
        self.over_tolerance || self.fresh_ns.is_none()
    }
}

/// Compares every baseline benchmark against the fresh run. A benchmark
/// missing from the fresh run counts as a regression (a rename must update
/// the baseline in the same change); extra fresh benchmarks are ignored
/// (they have no baseline yet).
fn compare(baseline: &[(String, f64)], fresh: &[(String, f64)], tolerance: f64) -> Vec<Comparison> {
    baseline
        .iter()
        .map(|(name, base_ns)| {
            let fresh_ns = fresh.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
            let ratio = fresh_ns.map(|f| f / base_ns.max(f64::MIN_POSITIVE));
            Comparison {
                name: name.clone(),
                baseline_ns: *base_ns,
                fresh_ns,
                ratio,
                over_tolerance: ratio.is_some_and(|r| r > 1.0 + tolerance),
            }
        })
        .collect()
}

fn render(suite: &str, report: &[Comparison], tolerance: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "\nbench-check `{suite}` (tolerance +{:.0}%)\n",
        tolerance * 100.0
    ));
    out.push_str(&format!(
        "{:<40} {:>14} {:>14} {:>8}  status\n",
        "benchmark", "baseline ns", "fresh ns", "ratio"
    ));
    for c in report {
        let (fresh, ratio, status) = match (c.fresh_ns, c.ratio) {
            (Some(f), Some(r)) => (
                format!("{f:.0}"),
                format!("{r:.2}x"),
                if c.over_tolerance { "REGRESSED" } else { "ok" },
            ),
            _ => ("-".to_string(), "-".to_string(), "MISSING"),
        };
        out.push_str(&format!(
            "{:<40} {:>14.0} {:>14} {:>8}  {status}\n",
            c.name, c.baseline_ns, fresh, ratio
        ));
    }
    out
}

/// Extracts `(name, mean_ns)` pairs from a `moss-benchkit` JSON report.
/// The format is machine-written and flat, so a hand-rolled scan (no JSON
/// dependency) is sufficient: each result object carries `"name"` then
/// `"mean_ns"`.
fn parse_bench(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find("\"name\": \"") {
        rest = &rest[pos + "\"name\": \"".len()..];
        let Some(end) = rest.find('"') else { break };
        let name = rest[..end].to_string();
        rest = &rest[end..];
        let Some(mpos) = rest.find("\"mean_ns\": ") else {
            continue;
        };
        let tail = &rest[mpos + "\"mean_ns\": ".len()..];
        let num: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
        rest = tail;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "kernels",
  "results": [
    {"name": "matmul/naive/256x16x16", "iters": 100, "mean_ns": 1000.0, "min_batch_ns": 900.0, "gflops": 0.1},
    {"name": "matmul/parallel/256x16x16", "iters": 400, "mean_ns": 250.0, "min_batch_ns": 240.0, "items_per_sec": 123.0}
  ]
}
"#;

    #[test]
    fn parses_benchkit_reports() {
        let parsed = parse_bench(SAMPLE);
        assert_eq!(
            parsed,
            vec![
                ("matmul/naive/256x16x16".to_string(), 1000.0),
                ("matmul/parallel/256x16x16".to_string(), 250.0),
            ]
        );
    }

    #[test]
    fn within_tolerance_passes() {
        let base = vec![("a".to_string(), 100.0)];
        let fresh = vec![("a".to_string(), 140.0)];
        let r = compare(&base, &fresh, 0.5);
        assert!(!r[0].regressed());
        assert!((r[0].ratio.unwrap() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = vec![("a".to_string(), 100.0), ("b".to_string(), 100.0)];
        let fresh = vec![("a".to_string(), 151.0), ("b".to_string(), 99.0)];
        let r = compare(&base, &fresh, 0.5);
        assert!(r[0].regressed(), "51% over on a +50% tolerance must fail");
        assert!(!r[1].regressed(), "faster than baseline passes");
    }

    #[test]
    fn missing_benchmark_counts_as_regression() {
        let base = vec![("gone".to_string(), 100.0)];
        let r = compare(&base, &[], 0.5);
        assert!(r[0].regressed());
        assert!(r[0].fresh_ns.is_none());
    }

    #[test]
    fn extra_fresh_benchmarks_are_ignored() {
        let base = vec![("a".to_string(), 100.0)];
        let fresh = vec![("a".to_string(), 100.0), ("new".to_string(), 5.0)];
        let r = compare(&base, &fresh, 0.5);
        assert_eq!(r.len(), 1);
        assert!(!r[0].regressed());
    }

    #[test]
    fn render_marks_status() {
        let base = vec![("a".to_string(), 100.0), ("b".to_string(), 100.0)];
        let fresh = vec![("a".to_string(), 400.0), ("b".to_string(), 100.0)];
        let r = compare(&base, &fresh, 0.5);
        let table = render("kernels", &r, 0.5);
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("ok"));
        assert!(table.contains("4.00x"));
    }
}
