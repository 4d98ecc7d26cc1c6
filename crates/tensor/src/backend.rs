//! The dense compute kernels.
//!
//! Every numeric op the autograd tape records — matmuls (forward and both
//! backward forms), elementwise `map`/`zip_map`, `tanh`, `exp` and
//! `sigmoid`, and the
//! `col_sums`/`sum` reductions — runs through [`Kernels`], and the pipeline's
//! embarrassingly parallel loops run through [`par_map`]. There is one
//! implementation of each kernel: the matmuls call the SIMD microkernels
//! of [`crate::simd`] (level chosen by CPU detection), and every kernel
//! splits its output into fixed-size blocks that fan out over the
//! persistent thread pool of [`crate::pool`] once the problem
//! clears a size threshold. Below the threshold — a pool dispatch costs a
//! few microseconds, more than a small op — the kernel runs inline on the
//! caller without touching, or starting, any pool.
//!
//! The only parameter is the pool: [`Kernels::GLOBAL`] uses the
//! process-wide pool sized by `MOSS_THREADS`, and [`Kernels::with_threads`]
//! pins a pool size for the determinism tests.
//!
//! ## Determinism
//!
//! Seeded experiment reproducibility is a correctness property here, so
//! the kernels are **bit-identical across thread counts**: each matmul
//! output element is accumulated by exactly one task in a fixed order
//! along the shared dimension, and the reductions combine fixed-size block
//! partials in block order at every size — the grouping depends only on
//! the input shape, never on `MOSS_THREADS` or on whether the pool ran.

use crate::pool::{self, ThreadPool};
use crate::simd;
use crate::tensor::Tensor;

/// Rows per unit of parallel work distribution. A fixed constant (never
/// derived from the thread count) so work decomposition — and therefore
/// floating-point grouping in reductions — is identical for any
/// `MOSS_THREADS`.
const ROW_BLOCK: usize = 64;

/// Output rows (columns of `a`) per `aᵀ×b` task. The shared `m` dimension
/// is long in the backward pass, so even a small `k` yields enough blocks
/// to keep workers busy; fixed for the same determinism reason.
const AT_B_ROW_BLOCK: usize = 8;

/// Elements per partial in flat reductions and per elementwise task; fixed
/// for the same reason.
const SUM_BLOCK: usize = 4096;

/// Below this `m·k·n`, matmuls run inline: with the SIMD kernels a
/// 1M-flop multiply takes ~10µs, the same order as a pool dispatch, so
/// splitting it cannot win.
const PAR_MATMUL_MIN_FLOPS: usize = 1_048_576;

/// Below this element count, elementwise ops and reductions run inline.
const PAR_ELEMWISE_MIN: usize = 65_536;

/// The dense kernels, bound to the pool they fan out on.
///
/// `crates/tensor/tests/backend_equivalence.rs` checks every kernel
/// against the naive reference loops, and `pool_determinism.rs` pins
/// bit-identical results across pool sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernels {
    /// `None` for the global pool, else a pinned thread count.
    threads: Option<usize>,
}

impl Kernels {
    /// Kernels on the process-wide pool ([`pool::global`], sized by
    /// `MOSS_THREADS`).
    pub const GLOBAL: Kernels = Kernels { threads: None };

    /// Kernels on a pool of exactly `n` compute threads (the determinism
    /// tests); the pool for each count is created on first use.
    pub const fn with_threads(n: usize) -> Kernels {
        Kernels { threads: Some(n) }
    }

    fn pool(self) -> &'static ThreadPool {
        match self.threads {
            Some(n) => pool::with_threads(n),
            None => pool::global(),
        }
    }

    /// The pool to fan out on, or `None` to run inline: small problems
    /// never resolve (and so never start) a pool.
    fn fan_out(self, parallel: bool) -> Option<&'static ThreadPool> {
        if !parallel {
            return None;
        }
        Some(self.pool()).filter(|p| p.workers() > 0)
    }

    /// Fills `out`, a run of `unit_len`-float units (matrix rows, or single
    /// elements), by calling `f(first_unit, block)`: once over the whole
    /// buffer when running inline, else once per block of `block_units`
    /// units on the pool.
    fn fill<F>(self, out: &mut [f32], unit_len: usize, block_units: usize, parallel: bool, f: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        let Some(pool) = self.fan_out(parallel) else {
            return f(0, out);
        };
        let len = out.len();
        let block_len = unit_len * block_units;
        let optr = SendPtr(out.as_mut_ptr());
        // SAFETY: block `blk` writes only `out[lo..hi]`; blocks are
        // disjoint, and `run_indexed` returns only after every task's
        // writes are visible to this thread.
        pool.run_indexed(len.div_ceil(block_len), &|blk| {
            let lo = blk * block_len;
            let hi = (lo + block_len).min(len);
            let block = unsafe { std::slice::from_raw_parts_mut(optr.get().add(lo), hi - lo) };
            f(lo / unit_len, block);
        });
    }

    /// `(0..blocks).map(f)` in index order, on the pool when `parallel`.
    fn partials<U, F>(self, blocks: usize, parallel: bool, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        match self.fan_out(parallel) {
            Some(pool) => pool_map_indexed(pool, blocks, f),
            None => (0..blocks).map(f).collect(),
        }
    }

    /// `a × b`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(
            a.cols(),
            b.rows(),
            "matmul shape mismatch: {}×{} × {}×{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        let (m, k) = a.shape();
        let n = b.cols();
        let mut out = vec![0.0f32; m * n];
        self.matmul_into(a.data(), m, k, b.data(), n, &mut out);
        Tensor::from_vec(out, m, n)
    }

    /// `out = a × b` on row-major slices: `a` is `m×k`, `b` is `k×n`, and
    /// `out` (`m×n`) is overwritten. [`Kernels::matmul`] is this plus the
    /// allocation; tape-free callers reuse their own buffers.
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with its shape.
    pub fn matmul_into(self, a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
        assert_eq!(a.len(), m * k, "matmul_into: lhs is not {m}×{k}");
        assert_eq!(b.len(), k * n, "matmul_into: rhs is not {k}×{n}");
        assert_eq!(out.len(), m * n, "matmul_into: out is not {m}×{n}");
        if m * k * n == 0 {
            out.fill(0.0);
            return;
        }
        let parallel = m * k * n >= PAR_MATMUL_MIN_FLOPS && m > ROW_BLOCK;
        self.fill(out, n, ROW_BLOCK, parallel, |r0, block| {
            let rows = block.len() / n;
            simd::matmul_block(&a[r0 * k..(r0 + rows) * k], rows, k, b, n, block);
        });
    }

    /// `aᵀ × b` — the backward-pass form for weight gradients
    /// (`dB = Aᵀ·dC`), computed without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if row counts disagree.
    pub fn matmul_at_b(self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(
            a.rows(),
            b.rows(),
            "matmul_at_b shape mismatch: ({}×{})ᵀ × {}×{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        let (m, k) = a.shape();
        let n = b.cols();
        let mut out = vec![0.0f32; k * n];
        if m * k * n > 0 {
            let parallel = m * k * n >= PAR_MATMUL_MIN_FLOPS && k > AT_B_ROW_BLOCK;
            self.fill(&mut out, n, AT_B_ROW_BLOCK, parallel, |i0, block| {
                let rows = block.len() / n;
                simd::matmul_at_b_block(a.data(), m, k, i0, rows, b.data(), n, block);
            });
        }
        Tensor::from_vec(out, k, n)
    }

    /// `a × bᵀ` — the backward-pass form for input gradients
    /// (`dA = dC·Bᵀ`).
    ///
    /// # Panics
    ///
    /// Panics if column counts disagree.
    pub fn matmul_a_bt(self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(
            a.cols(),
            b.cols(),
            "matmul_a_bt shape mismatch: {}×{} × ({}×{})ᵀ",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        let (m, l) = a.shape();
        let n = b.rows();
        let mut out = vec![0.0f32; m * n];
        if m * l * n > 0 {
            let parallel = m * l * n >= PAR_MATMUL_MIN_FLOPS && m > ROW_BLOCK;
            self.fill(&mut out, n, ROW_BLOCK, parallel, |r0, block| {
                let rows = block.len() / n;
                let a_rows = &a.data()[r0 * l..(r0 + rows) * l];
                simd::matmul_a_bt_block(a_rows, rows, l, b.data(), n, block);
            });
        }
        Tensor::from_vec(out, m, n)
    }

    /// Elementwise unary map.
    pub fn map<F>(self, a: &Tensor, f: F) -> Tensor
    where
        F: Fn(f32) -> f32 + Sync,
    {
        let ad = a.data();
        let mut out = vec![0.0f32; ad.len()];
        self.fill(
            &mut out,
            1,
            SUM_BLOCK,
            ad.len() >= PAR_ELEMWISE_MIN,
            |lo, block| {
                for (o, &x) in block.iter_mut().zip(&ad[lo..]) {
                    *o = f(x);
                }
            },
        );
        Tensor::from_vec(out, a.rows(), a.cols())
    }

    /// Elementwise `tanh` through [`simd::tanh`], glibc's `tanhf` bit for
    /// bit.
    pub fn tanh(self, a: &Tensor) -> Tensor {
        self.slice_map(a, simd::tanh)
    }

    /// Elementwise `e^x` through [`simd::exp`], glibc's FMA `expf` bit for
    /// bit.
    pub fn exp(self, a: &Tensor) -> Tensor {
        self.slice_map(a, simd::exp)
    }

    /// Elementwise logistic sigmoid `1 / (1 + e^(−x))` through
    /// [`simd::sigmoid`].
    pub fn sigmoid(self, a: &Tensor) -> Tensor {
        self.slice_map(a, simd::sigmoid)
    }

    /// A copy of `a` with the in-place slice kernel `kernel` run over it,
    /// in `SUM_BLOCK`-element blocks on the pool once it is large.
    fn slice_map(self, a: &Tensor, kernel: fn(&mut [f32])) -> Tensor {
        let mut out = a.data().to_vec();
        let parallel = out.len() >= PAR_ELEMWISE_MIN;
        self.fill(&mut out, 1, SUM_BLOCK, parallel, |_, block| kernel(block));
        Tensor::from_vec(out, a.rows(), a.cols())
    }

    /// Elementwise binary map.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map<F>(self, a: &Tensor, b: &Tensor, f: F) -> Tensor
    where
        F: Fn(f32, f32) -> f32 + Sync,
    {
        assert_eq!(a.shape(), b.shape(), "elementwise shape mismatch");
        let (ad, bd) = (a.data(), b.data());
        let mut out = vec![0.0f32; ad.len()];
        self.fill(
            &mut out,
            1,
            SUM_BLOCK,
            ad.len() >= PAR_ELEMWISE_MIN,
            |lo, block| {
                for ((o, &x), &y) in block.iter_mut().zip(&ad[lo..]).zip(&bd[lo..]) {
                    *o = f(x, y);
                }
            },
        );
        Tensor::from_vec(out, a.rows(), a.cols())
    }

    /// Per-column sums (an `n×d → d` reduction over rows).
    pub fn col_sums(self, a: &Tensor) -> Vec<f32> {
        let (n, d) = a.shape();
        let mut out = vec![0.0f32; d];
        if n * d == 0 {
            return out;
        }
        // Fixed-size row blocks → per-block partials → ordered fold, inline
        // or pooled alike, so every pool size gives bit-identical sums.
        let partials = self.partials(n.div_ceil(ROW_BLOCK), n * d >= PAR_ELEMWISE_MIN, |blk| {
            let mut acc = vec![0.0f32; d];
            for r in blk * ROW_BLOCK..((blk + 1) * ROW_BLOCK).min(n) {
                for (s, &v) in acc.iter_mut().zip(a.row_slice(r)) {
                    *s += v;
                }
            }
            acc
        });
        for p in &partials {
            for (s, &v) in out.iter_mut().zip(p) {
                *s += v;
            }
        }
        out
    }

    /// Sum of all elements, folded from fixed `SUM_BLOCK`-element
    /// partials in block order.
    pub fn sum(self, a: &Tensor) -> f32 {
        let data = a.data();
        if data.is_empty() {
            return 0.0;
        }
        let blocks = data.len().div_ceil(SUM_BLOCK);
        let partials = self.partials(blocks, data.len() >= PAR_ELEMWISE_MIN, |blk| {
            let lo = blk * SUM_BLOCK;
            data[lo..(lo + SUM_BLOCK).min(data.len())]
                .iter()
                .sum::<f32>()
        });
        partials.iter().sum()
    }
}

/// A raw pointer that may cross thread boundaries. Safety is argued at
/// each use site: tasks write disjoint regions, and the pool's completion
/// protocol orders every write before the submitter reads.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Sync` wrapper, not the raw pointer inside it.
    fn get(self) -> *mut T {
        self.0
    }
}

/// `(0..n).map(f)` over the pool, results in index order regardless of
/// which worker ran which index.
fn pool_map_indexed<U, F>(pool: &ThreadPool, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    // No zero-worker/short-circuit here: `run_indexed` runs inline (in
    // index order) on a worker-less pool and keeps the obs traffic
    // counters accurate either way.
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let slots = SendPtr(out.as_mut_ptr());
    // SAFETY: each index writes exactly one distinct slot, the slot's old
    // value is `None` (nothing to drop), and `run_indexed` returns only
    // after every task's writes are visible to this thread.
    pool.run_indexed(n, &move |i| unsafe { slots.get().add(i).write(Some(f(i))) });
    out.into_iter()
        .map(|v| v.expect("pool ran every index"))
        .collect()
}

/// Applies `f` to every item of `items` over the global thread pool,
/// returning results in input order.
///
/// This is the workspace-wide primitive for embarrassingly parallel loops
/// (per-circuit ground-truth generation, batched encoder forwards). `f`
/// receives `(index, &item)`; output order never depends on scheduling.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    pool_map_indexed(pool::global(), items.len(), |i| f(i, &items[i]))
}

#[cfg(test)]
#[path = "../tests/naive/mod.rs"]
mod naive;

#[cfg(test)]
mod tests {
    use super::naive::Naive;
    use super::*;

    fn arange(rows: usize, cols: usize, scale: f32) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| ((i * 2_654_435_761 % 1000) as f32 / 500.0 - 1.0) * scale)
            .collect();
        Tensor::from_vec(data, rows, cols)
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (&x, &y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!((x - y).abs() <= tol, "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn backends_agree_on_matmul() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 4), (17, 9, 33), (70, 80, 90)] {
            let a = arange(m, k, 1.0);
            let b = arange(k, n, 0.5);
            let reference = Naive.matmul(&a, &b);
            for kernels in [Kernels::GLOBAL, Kernels::with_threads(3)] {
                assert_close(&kernels.matmul(&a, &b), &reference, 1e-4, "matmul");
            }
        }
    }

    #[test]
    fn transposed_forms_match_explicit_transpose() {
        let a = arange(13, 7, 1.0);
        let b = arange(13, 5, 0.7);
        let reference = Naive.matmul(&a.transpose(), &b);
        for kernels in [Kernels::GLOBAL, Kernels::with_threads(2)] {
            assert_close(&kernels.matmul_at_b(&a, &b), &reference, 1e-4, "at_b");
        }
        let c = arange(11, 7, 0.9);
        let reference = Naive.matmul(&a, &c.transpose());
        for kernels in [Kernels::GLOBAL, Kernels::with_threads(2)] {
            assert_close(&kernels.matmul_a_bt(&a, &c), &reference, 1e-4, "a_bt");
        }
    }

    #[test]
    fn parallel_is_bit_identical_across_thread_counts() {
        // Big enough to clear every parallel threshold.
        let a = arange(300, 80, 1.0);
        let b = arange(80, 70, 0.3);
        let wide = arange(3, 30_000, 0.1);
        let t1 = Kernels::with_threads(1);
        for threads in [2, 4, 7] {
            let tn = Kernels::with_threads(threads);
            assert_eq!(
                t1.matmul(&a, &b).data(),
                tn.matmul(&a, &b).data(),
                "matmul at {threads} threads"
            );
            assert_eq!(
                t1.col_sums(&wide),
                tn.col_sums(&wide),
                "col_sums at {threads} threads"
            );
            assert_eq!(t1.sum(&wide), tn.sum(&wide), "sum at {threads} threads");
            assert_eq!(
                t1.map(&wide, |x| x * 1.5 + 0.1).data(),
                tn.map(&wide, |x| x * 1.5 + 0.1).data(),
                "map at {threads} threads"
            );
        }
    }

    #[test]
    fn reductions_match_reference() {
        let a = arange(130, 7, 1.0);
        let reference = Naive.col_sums(&a);
        let par = Kernels::with_threads(4).col_sums(&a);
        for (r, p) in reference.iter().zip(&par) {
            assert!((r - p).abs() < 1e-4, "{r} vs {p}");
        }
        assert!((Naive.sum(&a) - Kernels::with_threads(4).sum(&a)).abs() < 1e-3);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |i, &v| {
            assert_eq!(i, v);
            v * v
        });
        assert_eq!(out, items.iter().map(|&v| v * v).collect::<Vec<_>>());
        let empty: Vec<usize> = Vec::new();
        assert!(par_map(&empty, |_, &v| v).is_empty());
    }

    #[test]
    fn empty_shapes_are_handled() {
        let a = Tensor::zeros(0, 5);
        let b = Tensor::zeros(5, 3);
        assert_eq!(Naive.matmul(&a, &b).shape(), (0, 3));
        assert_eq!(Naive.sum(&a), 0.0);
        for kernels in [Kernels::GLOBAL, Kernels::with_threads(2)] {
            assert_eq!(kernels.matmul(&a, &b).shape(), (0, 3));
            assert_eq!(kernels.matmul_at_b(&a, &a).shape(), (5, 5));
            assert_eq!(kernels.col_sums(&a), vec![0.0; 5]);
            assert_eq!(kernels.sum(&a), 0.0);
        }
    }

    #[test]
    fn small_ops_run_inline_without_the_pool() {
        // A thread count no other test pins, so its pool's counters only
        // see this test's traffic.
        let kernels = Kernels::with_threads(6);
        let pool = pool::with_threads(6);
        let small = arange(64, 64, 1.0);
        let _ = kernels.matmul(&small, &small);
        let _ = kernels.matmul_at_b(&small, &small);
        let _ = kernels.map(&small, |x| x + 1.0);
        let _ = kernels.col_sums(&small);
        let _ = kernels.sum(&small);
        assert_eq!(pool.stats().tasks_submitted, 0, "a small op used the pool");
        let big = arange(300, 80, 1.0);
        let _ = kernels.matmul(&big, &arange(80, 70, 1.0));
        assert!(pool.stats().tasks_submitted > 0, "a big matmul ran inline");
    }
}
