//! The pool determinism matrix: every kernel routed through the
//! thread pool must produce **bit-identical** outputs across
//! `MOSS_THREADS` ∈ {1, 2, 4, 8}, because work decomposition is a function
//! of shape alone and every output element has exactly one writer.
//!
//! Also pins the teardown contract: dropping an owned pool leaves no
//! lingering worker threads behind (checked against the kernel's own
//! list of this process's threads via /proc, which this repo's CI runners
//! all have).

use moss_prng::rngs::StdRng;
use moss_prng::{Rng, SeedableRng};
use moss_tensor::{Kernels, Tensor, ThreadPool};

const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 8];

fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-2.0f32..2.0))
        .collect();
    Tensor::from_vec(data, rows, cols)
}

/// Shapes chosen to clear every parallel threshold and to straddle block
/// boundaries (odd sizes leave row/column tails in every kernel).
fn shapes() -> Vec<(usize, usize, usize)> {
    vec![(257, 65, 90), (300, 80, 70), (1024, 33, 48)]
}

#[test]
fn matmul_is_bit_identical_across_the_thread_matrix() {
    for (m, k, n) in shapes() {
        let a = random_tensor(m, k, 1);
        let b = random_tensor(k, n, 2);
        let reference = Kernels::with_threads(THREAD_MATRIX[0]).matmul(&a, &b);
        for &threads in &THREAD_MATRIX[1..] {
            let got = Kernels::with_threads(threads).matmul(&a, &b);
            assert!(
                reference.data() == got.data(),
                "matmul {m}x{k}x{n} drifted at {threads} threads"
            );
        }
    }
}

#[test]
fn backward_matmul_forms_are_bit_identical_across_the_thread_matrix() {
    for (m, k, n) in shapes() {
        let a = random_tensor(m, k, 3);
        let grad = random_tensor(m, n, 4);
        let bt = random_tensor(k, n, 5); // grad(m×n) × btᵀ → m×k
        let ref_at_b = Kernels::with_threads(1).matmul_at_b(&a, &grad);
        let ref_a_bt = Kernels::with_threads(1).matmul_a_bt(&grad, &bt);
        for &threads in &THREAD_MATRIX[1..] {
            let p = Kernels::with_threads(threads);
            assert!(
                ref_at_b.data() == p.matmul_at_b(&a, &grad).data(),
                "matmul_at_b {m}x{k}x{n} drifted at {threads} threads"
            );
            assert!(
                ref_a_bt.data() == p.matmul_a_bt(&grad, &bt).data(),
                "matmul_a_bt {m}x{k}x{n} drifted at {threads} threads"
            );
        }
    }
}

#[test]
fn reductions_and_elementwise_are_bit_identical_across_the_thread_matrix() {
    let wide = random_tensor(3, 40_000, 6); // past PAR_ELEMWISE_MIN / SUM_BLOCK
    let tall = random_tensor(700, 33, 7); // many ROW_BLOCK partials
    let one = Kernels::with_threads(1);
    for &threads in &THREAD_MATRIX[1..] {
        let p = Kernels::with_threads(threads);
        assert_eq!(
            one.col_sums(&tall),
            p.col_sums(&tall),
            "col_sums drifted at {threads} threads"
        );
        assert_eq!(
            one.sum(&wide).to_bits(),
            p.sum(&wide).to_bits(),
            "sum drifted at {threads} threads"
        );
        assert!(
            one.map(&wide, |x| x.mul_add(1.5, 0.25)).data()
                == p.map(&wide, |x| x.mul_add(1.5, 0.25)).data(),
            "map drifted at {threads} threads"
        );
        assert!(
            one.zip_map(&wide, &wide, |x, y| x * y + 0.5).data()
                == p.zip_map(&wide, &wide, |x, y| x * y + 0.5).data(),
            "zip_map drifted at {threads} threads"
        );
        assert!(
            one.tanh(&wide).data() == p.tanh(&wide).data(),
            "tanh drifted at {threads} threads"
        );
        assert!(
            one.exp(&wide).data() == p.exp(&wide).data(),
            "exp drifted at {threads} threads"
        );
        assert!(
            one.sigmoid(&wide).data() == p.sigmoid(&wide).data(),
            "sigmoid drifted at {threads} threads"
        );
    }
}

/// Counts this process's live pool worker threads (named `moss-pool-*`)
/// via Linux /proc; `None` elsewhere. Filtering by name keeps the count
/// blind to the test harness's own threads, which come and go as the
/// other tests in this binary run.
fn live_pool_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|name| name.starts_with("moss-pool-"))
            .count(),
    )
}

/// Waits (up to 5 s) for the pool-thread count to read `want`: a worker
/// takes its name only once it runs, shortly after its spawn returns.
fn pool_threads_reach(want: usize) -> bool {
    (0..500).any(|_| {
        let reached = live_pool_threads() == Some(want);
        if !reached {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        reached
    })
}

#[test]
fn dropping_a_pool_leaves_no_lingering_threads() {
    if live_pool_threads().is_none() {
        return; // no /proc on this platform
    }
    // Spawn the pinned pools the other tests in this binary use first, so
    // none of their workers can appear mid-test.
    for &threads in &THREAD_MATRIX {
        moss_tensor::pool::with_threads(threads);
    }
    let before: usize = THREAD_MATRIX.iter().map(|t| t - 1).sum();
    assert!(pool_threads_reach(before), "pinned pools never started");
    let pool = ThreadPool::new(6);
    assert_eq!(pool.workers(), 5);
    pool.run_indexed(64, &|_| {});
    assert!(pool_threads_reach(before + 5), "workers not started");
    drop(pool);
    // Drop joins every worker, so the count is back immediately — no
    // polling loop needed.
    assert_eq!(
        live_pool_threads().unwrap(),
        before,
        "pool teardown left threads behind"
    );
    // And the pool's own accounting agrees.
    let pool = ThreadPool::new(3);
    pool.run_indexed(8, &|_| {});
    let stats_live = pool.stats().live_workers;
    assert!(stats_live <= 2, "stats report {stats_live} live workers");
    drop(pool);
}
