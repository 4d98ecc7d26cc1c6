//! Property tests for tensor/op algebra and autograd invariants.
//!
//! Deterministic loop-based properties (this workspace builds offline, so
//! no proptest): each property runs over `CASES` seeded random tensors.

use moss_prng::rngs::StdRng;
use moss_prng::{Rng, SeedableRng};
use moss_tensor::{softmax_rows, Graph, ParamStore, Tensor};

const CASES: u64 = 32;

/// A small tensor with bounded finite values, deterministic per seed.
fn tensor(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-3.0f32..3.0))
        .collect();
    Tensor::from_vec(data, rows, cols)
}

#[test]
fn transpose_is_involutive() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = tensor(3, 5, &mut rng);
        assert_eq!(t.transpose().transpose(), t);
    }
}

#[test]
fn matmul_distributes_over_addition() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = tensor(3, 4, &mut rng);
        let b = tensor(4, 2, &mut rng);
        let c = tensor(4, 2, &mut rng);
        let sum_first = a.matmul(&b.zip_map(&c, |x, y| x + y));
        let mul_first = a.matmul(&b).zip_map(&a.matmul(&c), |x, y| x + y);
        for (x, y) in sum_first.data().iter().zip(mul_first.data()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }
}

#[test]
fn matmul_transpose_identity() {
    // (A·B)ᵀ = Bᵀ·Aᵀ
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = tensor(3, 4, &mut rng);
        let b = tensor(4, 2, &mut rng);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}

#[test]
fn softmax_rows_are_distributions() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = tensor(4, 6, &mut rng);
        let s = softmax_rows(&t);
        for r in 0..4 {
            let sum: f32 = s.row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row_slice(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}

#[test]
fn softmax_is_shift_invariant() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = tensor(2, 5, &mut rng);
        let shift = rng.gen_range(-2.0f32..2.0);
        let shifted = t.map(|x| x + shift);
        let a = softmax_rows(&t);
        let b = softmax_rows(&shifted);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }
}

#[test]
fn sum_all_gradient_is_ones() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = tensor(3, 3, &mut rng);
        let mut store = ParamStore::new();
        let p = store.add("p", t);
        let mut g = Graph::new();
        let v = g.param(p, &store);
        let loss = g.sum_all(v);
        let grads = g.backward(loss);
        assert_eq!(grads.get(p).unwrap(), &Tensor::full(3, 3, 1.0));
    }
}

#[test]
fn linearity_of_gradients() {
    // d(k·sum(x))/dx = k everywhere.
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = tensor(2, 3, &mut rng);
        let k = rng.gen_range(0.5f32..4.0);
        let mut store = ParamStore::new();
        let p = store.add("p", t);
        let mut g = Graph::new();
        let v = g.param(p, &store);
        let scaled = g.scale(v, k);
        let loss = g.sum_all(scaled);
        let grads = g.backward(loss);
        for &x in grads.get(p).unwrap().data() {
            assert!((x - k).abs() < 1e-5);
        }
    }
}

#[test]
fn l2_normalized_rows_have_unit_norm() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = tensor(3, 4, &mut rng);
        // Skip degenerate all-zero rows (the op guards with an epsilon).
        if !t.data().iter().any(|&x| x.abs() > 0.1) {
            continue;
        }
        let mut g = Graph::new();
        let v = g.input(t);
        let n = g.l2_normalize_rows(v);
        for r in 0..3 {
            let norm: f32 = g
                .value(n)
                .row_slice(r)
                .iter()
                .map(|x| x * x)
                .sum::<f32>()
                .sqrt();
            assert!(norm < 1.0 + 1e-4, "row norm {norm}");
        }
    }
}

#[test]
fn smooth_l1_is_nonnegative_and_zero_at_target() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = tensor(2, 3, &mut rng);
        let mut g = Graph::new();
        let v = g.input(t.clone());
        let loss = g.smooth_l1(v, t);
        assert_eq!(g.value(loss).get(0, 0), 0.0);
        let mut g2 = Graph::new();
        let v2 = g2.input(Tensor::zeros(2, 3));
        let loss2 = g2.smooth_l1(v2, Tensor::full(2, 3, 2.0));
        assert!(g2.value(loss2).get(0, 0) > 0.0);
    }
}

#[test]
fn adam_descends_on_random_quadratics() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = tensor(1, 4, &mut rng);
        if t.norm() <= 0.5 {
            continue;
        }
        let mut store = ParamStore::new();
        let p = store.add("p", t);
        let mut opt = moss_tensor::Adam::new(0.05);
        let loss_at = |store: &ParamStore| {
            let mut g = Graph::new();
            let v = g.param(p, store);
            let sq = g.mul(v, v);
            let l = g.sum_all(sq);
            (g.value(l).get(0, 0), {
                let mut g2 = Graph::new();
                let v2 = g2.param(p, store);
                let sq2 = g2.mul(v2, v2);
                let l2 = g2.sum_all(sq2);
                g2.backward(l2)
            })
        };
        let (first, _) = loss_at(&store);
        for _ in 0..100 {
            let (_, grads) = loss_at(&store);
            opt.step(&mut store, &grads);
        }
        let (last, _) = loss_at(&store);
        assert!(last < first, "{first} → {last}");
    }
}
