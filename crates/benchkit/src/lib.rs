//! # moss-benchkit
//!
//! A minimal, dependency-free benchmarking harness for the MOSS workspace.
//! The container this repo builds in has no network access, so the usual
//! Criterion dependency is replaced by this crate: warmup + timed
//! iterations with `std::time::Instant`, mean/min statistics, optional
//! GFLOP/s when the caller declares a flop count, and a hand-rolled JSON
//! report writer so perf trajectories can be recorded as `BENCH_*.json`
//! artifacts at the workspace root. Statistics are the per-iteration mean
//! and the best per-iteration mean over a timed batch
//! ([`Measurement::min_batch_ns`]); single-iteration minima are never
//! measured.
//!
//! ## Example
//!
//! ```no_run
//! let mut suite = moss_benchkit::Suite::new("kernels");
//! suite.bench("square/64", || {
//!     let mut acc = 0u64;
//!     for i in 0..64u64 {
//!         acc = acc.wrapping_add(i * i);
//!     }
//!     std::hint::black_box(acc);
//! });
//! suite.write_json("BENCH_kernels.json").unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One benchmark's timing result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name, e.g. `"matmul/naive/2048x64x64"`.
    pub name: String,
    /// Number of timed iterations.
    pub iters: u64,
    /// Mean wall-clock time per iteration, in nanoseconds.
    pub mean_ns: f64,
    /// Lowest per-iteration *mean across a timed batch*, in nanoseconds —
    /// an optimistic steady-state estimate (the least-disturbed batch),
    /// not the fastest single iteration. Iterations are timed in batches,
    /// so a single-iteration minimum is never observed.
    pub min_batch_ns: f64,
    /// Throughput in GFLOP/s, when the caller declared a flop count.
    pub gflops: Option<f64>,
    /// Throughput in items/s, when the caller declared an item count (e.g.
    /// simulated cycles per iteration).
    pub items_per_sec: Option<f64>,
}

/// A named collection of benchmarks that can be reported as JSON.
#[derive(Debug)]
pub struct Suite {
    name: String,
    warmup: Duration,
    measure: Duration,
    results: Vec<Measurement>,
}

impl Suite {
    /// A suite with default budgets (0.2 s warmup, 1 s measurement).
    pub fn new(name: &str) -> Suite {
        Suite {
            name: name.to_string(),
            warmup: Duration::from_millis(200),
            measure: Duration::from_secs(1),
            results: Vec::new(),
        }
    }

    /// Overrides the per-benchmark warmup and measurement budgets.
    pub fn with_budget(mut self, warmup: Duration, measure: Duration) -> Suite {
        self.warmup = warmup;
        self.measure = measure;
        self
    }

    /// Times `f` and records the result under `name`.
    pub fn bench<F: FnMut()>(&mut self, name: &str, f: F) -> &Measurement {
        self.bench_flops(name, None, None, f)
    }

    /// Times `f`, recording throughput from `flops` floating-point ops
    /// per iteration.
    pub fn bench_with_flops<F: FnMut()>(&mut self, name: &str, flops: u64, f: F) -> &Measurement {
        self.bench_flops(name, Some(flops), None, f)
    }

    /// Times `f`, recording throughput from `items` work units per
    /// iteration (e.g. simulated cycles) as items/second.
    pub fn bench_with_items<F: FnMut()>(&mut self, name: &str, items: u64, f: F) -> &Measurement {
        self.bench_flops(name, None, Some(items), f)
    }

    fn bench_flops<F: FnMut()>(
        &mut self,
        name: &str,
        flops: Option<u64>,
        items: Option<u64>,
        mut f: F,
    ) -> &Measurement {
        // The very first call pays any one-time lazy initialization in the
        // benched code (thread-pool spawn, SIMD feature detection, …). Run
        // it outside the timed window so it can skew neither the
        // per-iteration estimate below nor the first measured batch.
        f();

        // Warmup: run until the budget elapses so caches/branch predictors
        // settle and we can estimate a per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            f();
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Measure in batches sized to ~10 per measurement budget, timing
        // each batch to capture a minimum over batches.
        let batch = ((self.measure.as_secs_f64() / 10.0 / per_iter).ceil() as u64).max(1);
        let mut iters = 0u64;
        let mut total = Duration::ZERO;
        let mut min_batch_ns = f64::INFINITY;
        while total < self.measure {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            let elapsed = t.elapsed();
            min_batch_ns = min_batch_ns.min(elapsed.as_nanos() as f64 / batch as f64);
            total += elapsed;
            iters += batch;
        }

        let mean_ns = total.as_nanos() as f64 / iters as f64;
        let gflops = flops.map(|fl| fl as f64 / mean_ns);
        let items_per_sec = items.map(|it| it as f64 * 1e9 / mean_ns);
        self.results.push(Measurement {
            name: name.to_string(),
            iters,
            mean_ns,
            min_batch_ns,
            gflops,
            items_per_sec,
        });
        let m = self.results.last().expect("just pushed");
        match (m.gflops, m.items_per_sec) {
            (Some(g), _) => eprintln!(
                "{:40} {:>12.0} ns/iter  ({:.2} GFLOP/s, {} iters)",
                m.name, m.mean_ns, g, m.iters
            ),
            (None, Some(r)) => eprintln!(
                "{:40} {:>12.0} ns/iter  ({:.3e} items/s, {} iters)",
                m.name, m.mean_ns, r, m.iters
            ),
            (None, None) => eprintln!(
                "{:40} {:>12.0} ns/iter  ({} iters)",
                m.name, m.mean_ns, m.iters
            ),
        }
        m
    }

    /// All measurements recorded so far, in execution order.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Serializes the suite to a JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\n  \"bench\": {:?},\n  \"results\": [", self.name);
        for (i, m) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": {:?}, \"iters\": {}, \"mean_ns\": {:.1}, \"min_batch_ns\": {:.1}",
                m.name, m.iters, m.mean_ns, m.min_batch_ns
            );
            if let Some(g) = m.gflops {
                let _ = write!(out, ", \"gflops\": {g:.4}");
            }
            if let Some(r) = m.items_per_sec {
                let _ = write!(out, ", \"items_per_sec\": {r:.1}");
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the JSON report to `path`.
    pub fn write_json<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path.as_ref(), self.to_json())?;
        eprintln!("wrote {}", path.as_ref().display());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_suite() -> Suite {
        Suite::new("test").with_budget(Duration::from_millis(1), Duration::from_millis(5))
    }

    #[test]
    fn records_measurements() {
        let mut suite = quick_suite();
        suite.bench("noop", || {
            std::hint::black_box(1 + 1);
        });
        assert_eq!(suite.results().len(), 1);
        let m = &suite.results()[0];
        assert_eq!(m.name, "noop");
        assert!(m.iters > 0);
        assert!(m.mean_ns >= 0.0);
        assert!(m.min_batch_ns <= m.mean_ns * 1.001);
    }

    #[test]
    fn computes_gflops() {
        let mut suite = quick_suite();
        let m = suite
            .bench_with_flops("flops", 1000, || {
                let mut x = 0.0f32;
                for i in 0..500 {
                    x += (i as f32) * 2.0;
                }
                std::hint::black_box(x);
            })
            .clone();
        let g = m.gflops.expect("gflops recorded");
        assert!(g > 0.0);
        assert!((g - 1000.0 / m.mean_ns).abs() < 1e-9);
    }

    #[test]
    fn computes_items_per_sec() {
        let mut suite = quick_suite();
        let m = suite
            .bench_with_items("cycles", 64, || {
                std::hint::black_box(1 + 1);
            })
            .clone();
        let r = m.items_per_sec.expect("items/s recorded");
        assert!(r > 0.0);
        assert!((r - 64.0 * 1e9 / m.mean_ns).abs() / r < 1e-9);
        assert!(m.gflops.is_none());
    }

    #[test]
    fn json_is_well_formed() {
        let mut suite = quick_suite();
        suite.bench_with_flops("a/b", 10, || {
            std::hint::black_box(0);
        });
        let json = suite.to_json();
        assert!(json.contains("\"bench\": \"test\""));
        assert!(json.contains("\"name\": \"a/b\""));
        assert!(json.contains("\"gflops\""));
        assert!(json.contains("\"min_batch_ns\""));
        assert!(!json.contains("\"min_ns\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
