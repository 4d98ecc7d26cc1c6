//! Dense-kernel timings at GNN-realistic shapes: one row per
//! (kernel, shape) on the global-pool kernels that the tape and
//! `Tensor::matmul` run, plus the `tanh` and `sigmoid` kernels at the size
//! of one inference pass's input projection.
//!
//! Emits `BENCH_kernels.json` at the workspace root so the perf
//! trajectory of the kernels is recorded change over change.
//!
//! Run with `cargo bench -p moss-bench --bench kernels`.
//!
//! `MOSS_BENCH_OUT=path` redirects the JSON report (so `cargo xtask
//! bench-check` can compare a fresh run against the committed baseline
//! without overwriting it) and `MOSS_BENCH_QUICK=1` shrinks the timing
//! budgets for a fast regression-gate run.

use std::time::Duration;

use moss_benchkit::Suite;
use moss_tensor::pool::configured_threads;
use moss_tensor::{Kernels, Tensor};

/// A per-cluster GNN update and a full design-level batch.
const SHAPES: &[(usize, usize, usize)] = &[(256, 16, 16), (2048, 64, 64)];

fn main() {
    let mut suite = Suite::new("kernels");
    if std::env::var("MOSS_BENCH_QUICK").is_ok_and(|v| v == "1") {
        suite = suite.with_budget(Duration::from_millis(50), Duration::from_millis(200));
    }
    eprintln!("pool threads: {}", configured_threads());

    let kernels = Kernels::GLOBAL;
    for &(m, k, n) in SHAPES {
        let a = Tensor::xavier(m, k, 1);
        let b = Tensor::xavier(k, n, 2);
        let flops = (2 * m * k * n) as u64;
        suite.bench_with_flops(&format!("matmul/{m}x{k}x{n}"), flops, || {
            std::hint::black_box(kernels.matmul(&a, &b));
        });
        // The backward-pass form that dominates weight-gradient time.
        let g = Tensor::xavier(m, n, 3);
        suite.bench_with_flops(&format!("matmul_at_b/{m}x{k}x{n}"), flops, || {
            std::hint::black_box(kernels.matmul_at_b(&a, &g));
        });
    }

    // The tape-free pass's input projection on `mult_16x32_to_48`: 5,090
    // nodes × d_hidden 16.
    let (rows, cols) = (5090, 16);
    let proj = Tensor::xavier(rows, cols, 4);
    let items = (rows * cols) as u64;
    suite.bench_with_items(&format!("tanh/{rows}x{cols}"), items, || {
        std::hint::black_box(kernels.tanh(&proj));
    });
    // The same block through `sigmoid`, the `exp` kernel's tape op.
    suite.bench_with_items(&format!("sigmoid/{rows}x{cols}"), items, || {
        std::hint::black_box(kernels.sigmoid(&proj));
    });

    let out = std::env::var("MOSS_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_string()
    });
    suite.write_json(&out).expect("write kernels bench JSON");
}
