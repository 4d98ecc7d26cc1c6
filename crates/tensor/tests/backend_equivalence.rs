//! Kernel-equivalence properties: the kernels — on the global pool and on
//! pinned pools of 1, 2 and 4 threads — must agree with the `Naive`
//! reference loops within 1e-5 on random shapes, must be bit-identical
//! across thread counts, and gradcheck must pass through them.
//!
//! Deterministic loop-based properties (this workspace builds offline, so
//! no proptest).

mod naive;

use moss_prng::rngs::StdRng;
use moss_prng::{Rng, SeedableRng};
use moss_tensor::{max_gradient_error, Graph, Kernels, ParamStore, Tensor};
use naive::Naive;

const CASES: u64 = 24;

fn backends() -> [(&'static str, Kernels); 4] {
    [
        ("global", Kernels::GLOBAL),
        ("threads-1", Kernels::with_threads(1)),
        ("threads-2", Kernels::with_threads(2)),
        ("threads-4", Kernels::with_threads(4)),
    ]
}

fn random_tensor(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-2.0f32..2.0))
        .collect();
    Tensor::from_vec(data, rows, cols)
}

fn assert_agree(reference: &Tensor, other: &Tensor, what: &str) {
    assert_eq!(reference.shape(), other.shape(), "{what}: shape mismatch");
    for (i, (&x, &y)) in reference.data().iter().zip(other.data()).enumerate() {
        // 1e-5 relative with a 1e-5 absolute floor: the FMA microkernel
        // levels skip the intermediate rounding of separate mul-then-add,
        // so large sums differ from the oracle in the last couple of ulps.
        let tol = 1e-5f32.max(x.abs() * 1e-5);
        assert!((x - y).abs() <= tol, "{what}[{i}]: naive {x} vs {y}");
    }
}

#[test]
fn backends_agree_on_random_matmul_shapes() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(1..40usize);
        let k = rng.gen_range(1..40usize);
        let n = rng.gen_range(1..40usize);
        let a = random_tensor(m, k, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        let reference = Naive.matmul(&a, &b);
        for (name, kernels) in backends() {
            assert_agree(
                &reference,
                &kernels.matmul(&a, &b),
                &format!("matmul {name} {m}x{k}x{n}"),
            );
        }
    }
}

#[test]
fn backends_agree_on_backward_matmul_forms() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let m = rng.gen_range(1..30usize);
        let k = rng.gen_range(1..30usize);
        let n = rng.gen_range(1..30usize);
        // Forward C = A(m×k)·B(k×n); grads use Aᵀ·dC and dC·Bᵀ.
        let a = random_tensor(m, k, &mut rng);
        let b = random_tensor(k, n, &mut rng);
        let grad = random_tensor(m, n, &mut rng);
        let db_ref = Naive.matmul_at_b(&a, &grad);
        let da_ref = Naive.matmul_a_bt(&grad, &b);
        for (name, kernels) in backends() {
            assert_agree(
                &db_ref,
                &kernels.matmul_at_b(&a, &grad),
                &format!("matmul_at_b {name}"),
            );
            assert_agree(
                &da_ref,
                &kernels.matmul_a_bt(&grad, &b),
                &format!("matmul_a_bt {name}"),
            );
        }
    }
}

#[test]
fn backends_agree_above_parallel_thresholds() {
    // Shapes past every size threshold so the pooled paths really run.
    let mut rng = StdRng::seed_from_u64(7);
    let a = random_tensor(300, 80, &mut rng);
    let b = random_tensor(80, 70, &mut rng);
    let grad = random_tensor(300, 70, &mut rng);
    let reference = Naive.matmul(&a, &b);
    let db_ref = Naive.matmul_at_b(&a, &grad);
    let da_ref = Naive.matmul_a_bt(&grad, &b);
    for (name, kernels) in backends() {
        assert_agree(
            &reference,
            &kernels.matmul(&a, &b),
            &format!("big matmul {name}"),
        );
        assert_agree(
            &db_ref,
            &kernels.matmul_at_b(&a, &grad),
            &format!("big matmul_at_b {name}"),
        );
        assert_agree(
            &da_ref,
            &kernels.matmul_a_bt(&grad, &b),
            &format!("big matmul_a_bt {name}"),
        );
    }
    let wide = random_tensor(3, 40_000, &mut rng);
    for t in [&a, &wide] {
        let ref_sums = Naive.col_sums(t);
        for (name, kernels) in backends() {
            let sums = kernels.col_sums(t);
            for (r, s) in ref_sums.iter().zip(&sums) {
                assert!((r - s).abs() < 1e-3, "col_sums {name}: {r} vs {s}");
            }
            let (r, s) = (Naive.sum(t), kernels.sum(t));
            assert!((r - s).abs() < 1e-2, "sum {name}: {r} vs {s}");
        }
    }
}

#[test]
fn parallel_results_are_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(11);
    let a = random_tensor(257, 65, &mut rng); // odd sizes straddle blocks
    let b = random_tensor(65, 90, &mut rng);
    let one = Kernels::with_threads(1);
    for threads in [2, 3, 4, 8] {
        let many = Kernels::with_threads(threads);
        assert_eq!(
            one.matmul(&a, &b).data(),
            many.matmul(&a, &b).data(),
            "matmul drifted at {threads} threads"
        );
        assert_eq!(
            one.col_sums(&a),
            many.col_sums(&a),
            "col_sums drifted at {threads} threads"
        );
        assert_eq!(
            one.sum(&a).to_bits(),
            many.sum(&a).to_bits(),
            "sum drifted at {threads} threads"
        );
    }
}

#[test]
fn gradcheck_passes_through_every_backend() {
    let mut store = ParamStore::new();
    let w1 = store.add("w1", Tensor::xavier(3, 4, 1));
    let b1 = store.add("b1", Tensor::xavier(1, 4, 2));
    let w2 = store.add("w2", Tensor::xavier(4, 2, 3));
    let err = max_gradient_error(&mut store, &[w1, b1, w2], |g, s| {
        let x = g.input(Tensor::xavier(5, 3, 9));
        let w1v = g.param(w1, s);
        let b1v = g.param(b1, s);
        let w2v = g.param(w2, s);
        let h = g.matmul(x, w1v);
        let h = g.add_row(h, b1v);
        let h = g.gelu(h);
        let o = g.matmul(h, w2v);
        let o = g.tanh(o);
        g.smooth_l1(o, Tensor::xavier(5, 2, 11))
    });
    assert!(err < 2e-2, "gradcheck through the kernels: max error {err}");
}

#[test]
fn graphs_on_different_backends_produce_matching_losses() {
    // The tape (kernels) and the naive oracle compute the same
    // matmul → ReLU → row-mean → sum loss.
    let mut store = ParamStore::new();
    let w = store.add("w", Tensor::xavier(6, 6, 17));
    let x = Tensor::xavier(8, 6, 23);
    let mut g = Graph::new();
    let xv = g.input(x.clone());
    let wv = g.param(w, &store);
    let h = g.matmul(xv, wv);
    let h = g.relu(h);
    let m = g.mean_rows(h);
    let loss = g.sum_all(m);
    let tape = g.value(loss).get(0, 0);

    let h = Naive.matmul(&x, store.get(w)).map(|v| v.max(0.0));
    let means: Vec<f32> = Naive.col_sums(&h).iter().map(|s| s / 8.0).collect();
    let oracle: f32 = means.iter().sum();
    assert!(
        (tape - oracle).abs() < 1e-4,
        "tape {tape} vs naive {oracle}"
    );
}
