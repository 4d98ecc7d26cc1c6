//! End-to-end and per-crate benchmark for the MOSS workspace.
//!
//! ```text
//! perfbench --workload <serve-miss|serve-hit|label>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets its system up
//! several times (the median is `setup_s`), runs a closed loop of
//! operations for `--seconds`, checks the outputs against an in-process
//! oracle, and prints one JSON object as the last line of stdout.
//!
//! | workload     | one operation                                             |
//! |--------------|-----------------------------------------------------------|
//! | `serve-miss` | EMBED of a Table I circuit under a name not seen before    |
//! | `serve-hit`  | EMBED of a Table I circuit already in the server's cache   |
//! | `label`      | synthesize, simulate, time and store one circuit's labels  |
//!
//! With `--trace 0` moss-obs stays off and the line carries the
//! end-to-end metrics; with `--trace 1` moss-obs collects the program's
//! own spans and counters during the window and the line carries the
//! per-crate metrics instead. The difference between `p50_ms` and
//! `traced_p50_ms` is the tracing overhead.

mod label;
mod serve;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What one run measured.
pub struct Outcome {
    /// Every operation that completed: when it completed, counted from
    /// the start of the window, and its latency in nanoseconds.
    pub ops: Vec<(Duration, u64)>,
    /// Operations started in the window.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Every checked output matched its oracle.
    pub correct: bool,
    /// Duration of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// The moss-obs report of the window (traced runs only).
    pub report: Option<Report>,
}

const WORKLOADS: [&str; 3] = ["serve-miss", "serve-hit", "label"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = Some(value.parse().ok()?),
            "--trace" => trace = Some(matches!(value.as_str(), "1")),
            _ => return None,
        }
    }
    let args = Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
    };
    (WORKLOADS.contains(&args.workload.as_str()) && args.seconds > 0).then_some(args)
}

/// A scratch directory under the current directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    // Tracing follows `--trace` alone, never a stray MOSS_OBS variable.
    moss_obs::set_enabled(args.trace);
    let work = match WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.workload.as_str() {
        "serve-miss" => serve::run(&args, &work.0, false),
        "serve-hit" => serve::run(&args, &work.0, true),
        _ => label::run(&args, &work.0),
    };
    drop(work);
    match outcome {
        Ok(o) if !o.ops.is_empty() => {
            print_result(&args, o);
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("perfbench: no operation completed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn print_result(args: &Args, o: Outcome) {
    let mut latencies: Vec<u64> = o.ops.iter().map(|op| op.1).collect();
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50) as f64 / 1e6;
    let p90 = percentile(&latencies, 0.90) as f64 / 1e6;
    let window = o.ops.iter().map(|op| op.0).max().unwrap_or_default();
    let throughput = o.ops.len() as f64 / window.as_secs_f64();
    eprintln!(
        "perfbench: {} seed {}: {} ops ({} failed), p50 {p50:.4} ms, p90 {p90:.4} ms, \
         {throughput:.1} ops/s, setup {:?} s",
        args.workload,
        args.seed,
        o.ops.len(),
        o.failed,
        o.setup_s,
    );
    // The p90 varies with the host's load far more than the median does,
    // so it is reported with the per-layer figures, without a bound.
    let metrics: Vec<(&str, &str, f64)> = match &o.report {
        None => vec![
            ("p50_ms", "ms", p50),
            ("throughput", "1/s", throughput),
            ("setup_s", "s", median(&o.setup_s)),
        ],
        Some(r) => {
            let mut m = vec![("traced_p50_ms", "ms", p50), ("traced_p90_ms", "ms", p90)];
            m.extend(r.per_layer(o.ops.len()));
            m
        }
    };
    let mut correct = o.correct;
    let mut body = Vec::with_capacity(metrics.len());
    for (name, unit, value) in metrics {
        // A non-finite value cannot be written as JSON; it is also a bug.
        correct &= value.is_finite();
        let value = if value.is_finite() { value } else { 0.0 };
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        body.join(", ")
    );
}

/// The moss-obs run report, reduced to what the per-crate metrics need.
/// Spans are keyed by their leaf name and summed over every path they
/// were recorded under (a span opened on a pool worker has no parent,
/// the same span run inline under a caller's span has one).
pub struct Report {
    spans: HashMap<String, (u64, f64, u64)>,
    counters: HashMap<String, u64>,
}

/// The number after `"key": ` in one line of the report.
fn field(line: &str, key: &str) -> Option<f64> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

impl Report {
    /// Snapshots moss-obs (one JSON entry per line).
    pub fn take() -> Report {
        let json = moss_obs::report_json();
        let mut spans: HashMap<String, (u64, f64, u64)> = HashMap::new();
        let mut counters = HashMap::new();
        for line in json.lines() {
            let Some(start) = line.find("{\"name\": \"") else {
                continue;
            };
            let rest = &line[start + 10..];
            let Some(end) = rest.find('"') else { continue };
            let name = &rest[..end];
            if let (Some(calls), Some(total_ms)) = (field(line, "calls"), field(line, "total_ms")) {
                let leaf = name.rsplit('/').next().unwrap_or(name).to_owned();
                let items = field(line, "items").unwrap_or(0.0);
                let e = spans.entry(leaf).or_default();
                e.0 += calls as u64;
                e.1 += total_ms;
                e.2 += items as u64;
            } else if let Some(v) = field(line, "value") {
                counters.insert(name.to_owned(), v as u64);
            }
        }
        Report { spans, counters }
    }

    /// Mean duration of one call of span `leaf`, microseconds (0 when the
    /// workload never entered it).
    fn mean_us(&self, leaf: &str) -> f64 {
        match self.spans.get(leaf) {
            Some(&(calls, total_ms, _)) if calls > 0 => total_ms * 1e3 / calls as f64,
            _ => 0.0,
        }
    }

    /// Mean work items per call of span `leaf`.
    fn items_per_call(&self, leaf: &str) -> f64 {
        match self.spans.get(leaf) {
            Some(&(calls, _, items)) if calls > 0 => items as f64 / calls as f64,
            _ => 0.0,
        }
    }

    fn count(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// One value per crate boundary the workloads cross, each per call or
    /// per completed operation (`ops`) so that it does not grow with
    /// throughput. A workload that never enters a layer reports 0 for it.
    fn per_layer(&self, ops: usize) -> Vec<(&'static str, &'static str, f64)> {
        vec![
            // moss-netlist: Verilog parse + canonical hash of one request.
            ("netlist_decode_us", "us", self.mean_us("serve.decode")),
            // moss-core + moss-gnn: features and schedule of one miss.
            ("core_prepare_us", "us", self.mean_us("serve.prepare")),
            // moss-gnn + moss-tensor: one fused forward over a batch.
            ("gnn_forward_us", "us", self.mean_us("serve.forward")),
            (
                "serve_batch_jobs",
                "jobs",
                self.items_per_call("serve.forward"),
            ),
            // moss-serve: enqueue to reply, per miss.
            (
                "serve_queue_wait_us",
                "us",
                self.mean_us("serve.queue_wait"),
            ),
            // moss-synth, moss-sim, moss-timing per labeled circuit.
            ("synth_us", "us", self.mean_us("synth")),
            ("sim_us", "us", self.mean_us("sim_labels")),
            ("sta_us", "us", self.mean_us("timing")),
            // moss-store: record bytes published per labeled circuit.
            (
                "store_bytes_per_circuit",
                "bytes",
                self.count("store.bytes_written") / ops.max(1) as f64,
            ),
        ]
    }
}

/// SplitMix64: derives independent streams from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `setup` `reps` times, timing each, and keeps the last result.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        // The previous instance is torn down before the next is timed.
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(setup(rep)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up repetition"), times))
}
