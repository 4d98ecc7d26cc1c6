//! SIMD-lane matmul microkernels behind the matmul forms of
//! [`crate::Kernels`], and the one `tanh` kernel ([`tanh`]).
//!
//! Three implementations of each kernel, selected once per process by
//! [`level`] from CPU feature detection:
//!
//! - **Scalar** — explicit 8-wide `[f32; 8]` lane accumulators in
//!   fixed-size register tiles (4 output rows × 2 lane chunks). Plain safe
//!   Rust that the autovectorizer reliably turns into packed SIMD on any
//!   target; also the only path on non-x86_64.
//! - **Avx2** — the same tile shapes written with `std::arch` AVX2 + FMA
//!   intrinsics (8-lane `__m256` chunks).
//! - **Avx512** — 16-lane `__m512` chunks; the fastest path on the
//!   machines this repo benches on (~7× the scalar saxpy on the
//!   2048×64×64 row of `BENCH_kernels.json`).
//!
//! ## Tile shapes
//!
//! | kernel | accumulator tile | loop carried over |
//! |---|---|---|
//! | `matmul` (`a×b`) | 4 out rows × 2 lane chunks | `k`, ascending |
//! | `matmul_at_b` (`aᵀ×b`) | 8 out rows × 2 lane chunks | `m` rows, ascending |
//! | `matmul_a_bt` (`a×bᵀ`) | 8 column dot accumulators | shared dim, ascending |
//!
//! ## Determinism
//!
//! Every output element is produced by exactly one accumulator that walks
//! the shared dimension in a fixed ascending order; tile decomposition
//! never changes per-element arithmetic, and nothing here depends on
//! thread count — blocks of rows handed to different pool workers compute
//! exactly what the sequential loop computes. Results are therefore
//! bit-identical for any `MOSS_THREADS`. Across *levels* the guarantee is
//! weaker: the FMA paths skip the intermediate rounding of separate
//! mul-then-add, so `Avx2`/`Avx512` agree with `Scalar` (and the naive
//! oracle) to ~1e-6 relative, not bitwise. A level is fixed for the whole
//! process, so seeded runs still reproduce exactly on the same machine.
//!
//! ## tanh
//!
//! [`tanh`] is the only hyperbolic tangent the workspace runs: the tape's
//! `Graph::tanh` and GELU, and the tape-free inference pass. It reproduces
//! glibc 2.36's `tanhf` on every input, so it replaces libm without moving
//! a bit. It has one branch-free body, compiled plain and under AVX2 and
//! AVX-512 `#[target_feature]` wrappers, and unlike the matmuls it gives
//! the same bits at every level because it never fuses a multiply-add.

// Kernel style: index-based loops over fixed-size accumulator tiles keep
// the register layout visible (`acc[ri]` ↔ one output row's lanes) and
// mirror the pointer arithmetic of the intrinsic paths; iterator rewrites
// obscure that correspondence. Microkernels also take the full
// (ptr, rows, k, stride, …) geometry as flat arguments by design.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]

use std::sync::OnceLock;

/// Lane width of the portable accumulators (and the issue's "8-wide f32
/// lanes"). The intrinsic paths use 8 (`__m256`) or 16 (`__m512`) lanes.
pub const LANES: usize = 8;

/// Which microkernel implementation this process uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Portable `[f32; 8]` lane-array kernels (autovectorized).
    Scalar,
    /// AVX2 + FMA intrinsics.
    Avx2,
    /// AVX-512F intrinsics.
    Avx512,
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Level {
    if is_x86_feature_detected!("avx512f") {
        Level::Avx512
    } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        Level::Avx2
    } else {
        Level::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Level {
    Level::Scalar
}

/// The process-wide kernel level: the best the CPU supports, detected
/// once.
pub fn level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

/// `out += nothing; out = a_block × b` for a block of output rows.
/// `a_block` is `rows×k`, `b` is `k×n`, `out` is `rows×n` (overwritten).
pub fn matmul_block(a_block: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a_block.len(), rows * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), rows * n);
    if rows == 0 || n == 0 {
        return;
    }
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { x86::matmul_avx512(a_block, rows, k, b, n, out) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::matmul_avx2(a_block, rows, k, b, n, out) },
        _ => matmul_scalar(a_block, rows, k, b, n, out),
    }
}

/// One block of output rows of `aᵀ × b`: `a` is `m×k`, `g` is `m×n`, and
/// `out` receives rows `i0..i0+rows` of the `k×n` product
/// (`out[ri][j] = Σ_r a[r][i0+ri] · g[r][j]`, `r` ascending).
pub fn matmul_at_b_block(
    a: &[f32],
    m: usize,
    k: usize,
    i0: usize,
    rows: usize,
    g: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(g.len(), m * n);
    debug_assert_eq!(out.len(), rows * n);
    debug_assert!(i0 + rows <= k);
    if rows == 0 || n == 0 {
        return;
    }
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { x86::at_b_avx512(a, m, k, i0, rows, g, n, out) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::at_b_avx2(a, m, k, i0, rows, g, n, out) },
        _ => at_b_scalar(a, m, k, i0, rows, g, n, out),
    }
}

/// `out = a_block × bᵀ` for a block of output rows: `a_block` is `rows×l`,
/// `b` is `n×l` (rows of `b` are already contiguous in the shared
/// dimension, so no transpose is materialized).
pub fn matmul_a_bt_block(
    a_block: &[f32],
    rows: usize,
    l: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(a_block.len(), rows * l);
    debug_assert_eq!(b.len(), n * l);
    debug_assert_eq!(out.len(), rows * n);
    if rows == 0 || n == 0 {
        return;
    }
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { x86::a_bt_avx512(a_block, rows, l, b, n, out) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::a_bt_avx2(a_block, rows, l, b, n, out) },
        _ => a_bt_scalar(a_block, rows, l, b, n, out),
    }
}

/// Dot product with [`LANES`] fixed-stride accumulator lanes (lane `l`
/// sums the elements at indices `≡ l mod 8`, folded lane-ascending, tail
/// last). The grouping depends only on the length, never on threads.
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let xc = x.chunks_exact(LANES);
    let yc = y.chunks_exact(LANES);
    let (xrem, yrem) = (xc.remainder(), yc.remainder());
    for (xs, ys) in xc.zip(yc) {
        for l in 0..LANES {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut s = acc.iter().sum::<f32>();
    for (&a, &b) in xrem.iter().zip(yrem) {
        s += a * b;
    }
    s
}

/// Replaces every element of `xs` with its hyperbolic tangent, bit for
/// bit what glibc 2.36's `tanhf` returns for it (NaN payloads included).
///
/// The kernel is fdlibm's `s_tanhf.c` and the `s_expm1f.c` it calls,
/// written branch-free: every lane computes every branch and a select
/// picks the result, so one loop body runs 4, 8 or 16 lanes at a time.
/// It uses only f32 add, sub, mul and div, in C's order and without
/// fused multiply-adds, so all three levels give the same bits. The
/// `tanh_digest` tests pin them on all 2^32 inputs.
pub fn tanh(xs: &mut [f32]) {
    match level() {
        // SAFETY: `level` returns `Avx512` only when the CPU has AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { x86::tanh_avx512(xs) },
        // SAFETY: `level` returns `Avx2` only when the CPU has AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::tanh_avx2(xs) },
        _ => tanh_lanes(xs),
    }
}

/// The one body every level compiles: a loop the autovectorizer turns into
/// full-width lanes, with a scalar tail that runs the same operations.
#[inline(always)]
fn tanh_lanes(xs: &mut [f32]) {
    for x in xs {
        *x = tanh_lane(*x);
    }
}

/// `tanhf(x)`, branching on `|x|`'s bit pattern `ix`: NaN and ±∞ give
/// `1/x ± 1`; `|x| < 2^-55` gives `x·(1 + x)` (which is also `x` for
/// ±0); `|x| ≥ 22` gives `±(1 − 1e-30)`; `|x| ≥ 1` gives `1 − 2/(t + 2)`
/// with `t = expm1f(2|x|)`; anything smaller gives `−t/(t + 2)` with
/// `t = expm1f(−2|x|)`, and the sign of `x` is put back.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    let ax = f32::from_bits(ix as u32);
    let big = ix >= 0x3f80_0000;
    let t = expm1_lane(if big { ax + ax } else { ax * -2.0 });
    // 2/(t + 2) or −t/(t + 2). LLVM rewrites a divided select of
    // numerators as a select of two divisions, which made the kernel
    // 1.7x slower; picking the numerator's bits keeps one division.
    let big_mask = if big { u32::MAX } else { 0 };
    let num = f32::from_bits((big_mask & 2.0f32.to_bits()) | (!big_mask & (-t).to_bits()));
    let q = num / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    let z = if ix >= 0x41b0_0000 { 1.0 - 1e-30 } else { z };
    let r = if jx < 0 { -z } else { z };
    let r = if ix < 0x2400_0000 { x * (1.0 + x) } else { r };
    let nonfinite = if jx < 0 { 1.0 / x - 1.0 } else { 1.0 / x + 1.0 };
    if ix > 0x7f7f_ffff {
        nonfinite
    } else {
        r
    }
}

/// `expm1f(u)` for the arguments [`tanh_lane`] passes: `2 ≤ u < 44` or
/// `−2 < u ≤ −2^-54`; lanes outside that range compute garbage that
/// `tanh_lane` never selects.
///
/// Over that range `expm1f` returns `u` for `|u| < 2^-25`, and otherwise
/// reduces `u = k·ln2 + r` and rebuilds the result on one of five
/// branches (its sixth, `k = 1`, needs `0.5·ln2 < u < 1.5·ln2`, which
/// `tanh` never passes). With `t = k`, the general reduction
/// `hi = u − t·ln2_hi`, `lo = t·ln2_lo` reproduces the `k = ±1` and `k = 0`
/// forms exactly, so every lane runs it.
#[inline(always)]
fn expm1_lane(u: f32) -> f32 {
    const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
    const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
    const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
    const Q1: f32 = f32::from_bits(0xbd08_8889);
    const Q2: f32 = f32::from_bits(0x3ad0_0d01);
    const Q3: f32 = f32::from_bits(0xb8a6_70cd);
    const Q4: f32 = f32::from_bits(0x3686_7e54);
    const Q5: f32 = f32::from_bits(0xb457_edbb);

    let neg = (u.to_bits() as i32) < 0;
    let hu = (u.to_bits() & 0x7fff_ffff) as i32;
    let k = if hu <= 0x3eb1_7218 {
        0
    } else if hu < 0x3f85_1592 {
        if neg {
            -1
        } else {
            1
        }
    } else {
        // C's truncating cast. A saturating `as i32` does not vectorize, so
        // clamp (over tanh's arguments |v| < 64 and nothing moves) and
        // truncate unchecked: one packed conversion for all lanes.
        let v = INVLN2 * u + if neg { -0.5 } else { 0.5 };
        #[allow(clippy::manual_clamp)] // `clamp` would pass a NaN through
        let v = v.max(-128.0).min(128.0);
        // SAFETY: `max` and `min` return their non-NaN operand, so `v` is
        // finite and within ±128, which an i32 holds.
        unsafe { v.to_int_unchecked::<i32>() }
    };
    let t = k as f32;
    let hi = u - t * LN2_HI;
    let lo = t * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;

    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));

    let k0 = x - (x * e - hxs);
    let e = x * (e - c) - c - hxs;
    let k_minus_1 = 0.5 * (x - e) - 0.5;
    // The rest add k to the exponent field of a y near 1.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k as u32) << 23));
    let far = scale(1.0 - (e - x)) - 1.0; // k ≤ −2 or k > 56
    let two_to_minus_k = f32::from_bits(((0x7f - k) as u32) << 23);
    // 2 ≤ k < 23: C builds 1 − 2^-k from bits; the subtraction is exact.
    let below_23 = scale((1.0 - two_to_minus_k) - (e - x));
    let from_23 = scale(x - (e + two_to_minus_k) + 1.0); // 23 ≤ k ≤ 56

    let r = if k < 23 { below_23 } else { from_23 };
    let r = if k <= -2 || k > 56 { far } else { r };
    let r = if k == -1 { k_minus_1 } else { r };
    let r = if k == 0 { k0 } else { r };
    if hu < 0x3300_0000 {
        u
    } else {
        r
    }
}

// ---------------------------------------------------------------------
// Scalar (portable lane-array) kernels
// ---------------------------------------------------------------------

/// 4 rows × 2 eight-lane chunks register tile; the per-element arithmetic
/// (one accumulator, `k` ascending) is exactly the naive oracle's, so
/// this path is bit-identical to it.
fn matmul_scalar(a_block: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let mut i = 0;
    while i < rows {
        match rows - i {
            1 => matmul_scalar_rows::<1>(a_block, i, k, b, n, out),
            2 => matmul_scalar_rows::<2>(a_block, i, k, b, n, out),
            3 => matmul_scalar_rows::<3>(a_block, i, k, b, n, out),
            _ => matmul_scalar_rows::<4>(a_block, i, k, b, n, out),
        }
        i += (rows - i).min(4);
    }
}

fn matmul_scalar_rows<const R: usize>(
    a: &[f32],
    i: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let mut j = 0;
    while j + 2 * LANES <= n {
        let mut acc = [[[0.0f32; LANES]; 2]; R];
        for kk in 0..k {
            let b0: &[f32; LANES] = b[kk * n + j..kk * n + j + LANES].try_into().unwrap();
            let b1: &[f32; LANES] = b[kk * n + j + LANES..kk * n + j + 2 * LANES]
                .try_into()
                .unwrap();
            for r in 0..R {
                let c = a[(i + r) * k + kk];
                for l in 0..LANES {
                    acc[r][0][l] += c * b0[l];
                }
                for l in 0..LANES {
                    acc[r][1][l] += c * b1[l];
                }
            }
        }
        for r in 0..R {
            out[(i + r) * n + j..(i + r) * n + j + LANES].copy_from_slice(&acc[r][0]);
            out[(i + r) * n + j + LANES..(i + r) * n + j + 2 * LANES].copy_from_slice(&acc[r][1]);
        }
        j += 2 * LANES;
    }
    while j + LANES <= n {
        let mut acc = [[0.0f32; LANES]; R];
        for kk in 0..k {
            let bs: &[f32; LANES] = b[kk * n + j..kk * n + j + LANES].try_into().unwrap();
            for r in 0..R {
                let c = a[(i + r) * k + kk];
                for l in 0..LANES {
                    acc[r][l] += c * bs[l];
                }
            }
        }
        for r in 0..R {
            out[(i + r) * n + j..(i + r) * n + j + LANES].copy_from_slice(&acc[r]);
        }
        j += LANES;
    }
    while j < n {
        for r in 0..R {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[(i + r) * k + kk] * b[kk * n + j];
            }
            out[(i + r) * n + j] = acc;
        }
        j += 1;
    }
}

fn at_b_scalar(
    a: &[f32],
    m: usize,
    k: usize,
    i0: usize,
    rows: usize,
    g: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let mut i = 0;
    while i < rows {
        match rows - i {
            1 => at_b_scalar_rows::<1>(a, m, k, i0 + i, i, g, n, out),
            2 => at_b_scalar_rows::<2>(a, m, k, i0 + i, i, g, n, out),
            3 => at_b_scalar_rows::<3>(a, m, k, i0 + i, i, g, n, out),
            _ => at_b_scalar_rows::<4>(a, m, k, i0 + i, i, g, n, out),
        }
        i += (rows - i).min(4);
    }
}

/// `col` is the absolute column of `a` for the first tile row; `o` the
/// first row of `out` written.
fn at_b_scalar_rows<const R: usize>(
    a: &[f32],
    m: usize,
    k: usize,
    col: usize,
    o: usize,
    g: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let mut j = 0;
    while j + 2 * LANES <= n {
        let mut acc = [[[0.0f32; LANES]; 2]; R];
        for r in 0..m {
            let g0: &[f32; LANES] = g[r * n + j..r * n + j + LANES].try_into().unwrap();
            let g1: &[f32; LANES] = g[r * n + j + LANES..r * n + j + 2 * LANES]
                .try_into()
                .unwrap();
            for ri in 0..R {
                let c = a[r * k + col + ri];
                for l in 0..LANES {
                    acc[ri][0][l] += c * g0[l];
                }
                for l in 0..LANES {
                    acc[ri][1][l] += c * g1[l];
                }
            }
        }
        for ri in 0..R {
            out[(o + ri) * n + j..(o + ri) * n + j + LANES].copy_from_slice(&acc[ri][0]);
            out[(o + ri) * n + j + LANES..(o + ri) * n + j + 2 * LANES]
                .copy_from_slice(&acc[ri][1]);
        }
        j += 2 * LANES;
    }
    while j < n {
        let w = (n - j).min(LANES);
        for ri in 0..R {
            let mut acc = [0.0f32; LANES];
            for r in 0..m {
                let c = a[r * k + col + ri];
                for (l, slot) in acc[..w].iter_mut().enumerate() {
                    *slot += c * g[r * n + j + l];
                }
            }
            out[(o + ri) * n + j..(o + ri) * n + j + w].copy_from_slice(&acc[..w]);
        }
        j += w;
    }
}

fn a_bt_scalar(a_block: &[f32], rows: usize, l: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for (i, out_row) in out.chunks_mut(n).enumerate().take(rows) {
        let a_row = &a_block[i * l..(i + 1) * l];
        for (j, o) in out_row.iter_mut().enumerate() {
            *o = dot(a_row, &b[j * l..(j + 1) * l]);
        }
    }
}

// ---------------------------------------------------------------------
// x86-64 intrinsic kernels (AVX2+FMA and AVX-512F), selected at runtime
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Lane-count mask for a ≤16-wide AVX-512 tail chunk.
    #[inline]
    fn mask16(w: usize) -> __mmask16 {
        ((1u32 << w) - 1) as __mmask16
    }

    /// Per-lane sign mask for AVX2 `maskload`/`maskstore` of `w` < 8 lanes.
    #[target_feature(enable = "avx2")]
    unsafe fn mask8(w: usize) -> __m256i {
        let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32), idx)
    }

    // ----------------------------------------------------------------
    // matmul: out rows in tiles of ≤4, columns in 32-wide pairs + tail
    // ----------------------------------------------------------------

    #[target_feature(enable = "avx512f")]
    pub unsafe fn matmul_avx512(
        a: &[f32],
        rows: usize,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let mut i = 0;
        while i < rows {
            match rows - i {
                1 => mm512_rows::<1>(a, i, k, b, n, out),
                2 => mm512_rows::<2>(a, i, k, b, n, out),
                3 => mm512_rows::<3>(a, i, k, b, n, out),
                _ => mm512_rows::<4>(a, i, k, b, n, out),
            }
            i += (rows - i).min(4);
        }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn mm512_rows<const R: usize>(
        a: &[f32],
        i: usize,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut j = 0;
        while j + 32 <= n {
            let mut acc = [[_mm512_setzero_ps(); 2]; R];
            for kk in 0..k {
                let b0 = _mm512_loadu_ps(bp.add(kk * n + j));
                let b1 = _mm512_loadu_ps(bp.add(kk * n + j + 16));
                for r in 0..R {
                    let c = _mm512_set1_ps(*ap.add((i + r) * k + kk));
                    acc[r][0] = _mm512_fmadd_ps(c, b0, acc[r][0]);
                    acc[r][1] = _mm512_fmadd_ps(c, b1, acc[r][1]);
                }
            }
            for r in 0..R {
                _mm512_storeu_ps(op.add((i + r) * n + j), acc[r][0]);
                _mm512_storeu_ps(op.add((i + r) * n + j + 16), acc[r][1]);
            }
            j += 32;
        }
        while j < n {
            let w = (n - j).min(16);
            let m = mask16(w);
            let mut acc = [_mm512_setzero_ps(); R];
            for kk in 0..k {
                let bv = _mm512_maskz_loadu_ps(m, bp.add(kk * n + j));
                for r in 0..R {
                    let c = _mm512_set1_ps(*ap.add((i + r) * k + kk));
                    acc[r] = _mm512_fmadd_ps(c, bv, acc[r]);
                }
            }
            for r in 0..R {
                _mm512_mask_storeu_ps(op.add((i + r) * n + j), m, acc[r]);
            }
            j += 16;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_avx2(
        a: &[f32],
        rows: usize,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let mut i = 0;
        while i < rows {
            match rows - i {
                1 => mm256_rows::<1>(a, i, k, b, n, out),
                2 => mm256_rows::<2>(a, i, k, b, n, out),
                3 => mm256_rows::<3>(a, i, k, b, n, out),
                _ => mm256_rows::<4>(a, i, k, b, n, out),
            }
            i += (rows - i).min(4);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn mm256_rows<const R: usize>(
        a: &[f32],
        i: usize,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let mut j = 0;
        while j + 16 <= n {
            let mut acc = [[_mm256_setzero_ps(); 2]; R];
            for kk in 0..k {
                let b0 = _mm256_loadu_ps(bp.add(kk * n + j));
                let b1 = _mm256_loadu_ps(bp.add(kk * n + j + 8));
                for r in 0..R {
                    let c = _mm256_set1_ps(*ap.add((i + r) * k + kk));
                    acc[r][0] = _mm256_fmadd_ps(c, b0, acc[r][0]);
                    acc[r][1] = _mm256_fmadd_ps(c, b1, acc[r][1]);
                }
            }
            for r in 0..R {
                _mm256_storeu_ps(op.add((i + r) * n + j), acc[r][0]);
                _mm256_storeu_ps(op.add((i + r) * n + j + 8), acc[r][1]);
            }
            j += 16;
        }
        while j < n {
            let w = (n - j).min(8);
            let m = mask8(w);
            let mut acc = [_mm256_setzero_ps(); R];
            for kk in 0..k {
                let bv = _mm256_maskload_ps(bp.add(kk * n + j), m);
                for r in 0..R {
                    let c = _mm256_set1_ps(*ap.add((i + r) * k + kk));
                    acc[r] = _mm256_fmadd_ps(c, bv, acc[r]);
                }
            }
            for r in 0..R {
                _mm256_maskstore_ps(op.add((i + r) * n + j), m, acc[r]);
            }
            j += 8;
        }
    }

    // ----------------------------------------------------------------
    // at_b: out rows (columns of a) in tiles of ≤8, loop over the m rows
    // ----------------------------------------------------------------

    #[target_feature(enable = "avx512f")]
    pub unsafe fn at_b_avx512(
        a: &[f32],
        m: usize,
        k: usize,
        i0: usize,
        rows: usize,
        g: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let mut i = 0;
        while i < rows {
            match rows - i {
                1 => atb512_rows::<1>(a, m, k, i0 + i, i, g, n, out),
                2 => atb512_rows::<2>(a, m, k, i0 + i, i, g, n, out),
                3 => atb512_rows::<3>(a, m, k, i0 + i, i, g, n, out),
                4 => atb512_rows::<4>(a, m, k, i0 + i, i, g, n, out),
                5 => atb512_rows::<5>(a, m, k, i0 + i, i, g, n, out),
                6 => atb512_rows::<6>(a, m, k, i0 + i, i, g, n, out),
                7 => atb512_rows::<7>(a, m, k, i0 + i, i, g, n, out),
                _ => atb512_rows::<8>(a, m, k, i0 + i, i, g, n, out),
            }
            i += (rows - i).min(8);
        }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn atb512_rows<const R: usize>(
        a: &[f32],
        m: usize,
        k: usize,
        col: usize,
        o: usize,
        g: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let (ap, gp, op) = (a.as_ptr(), g.as_ptr(), out.as_mut_ptr());
        let mut j = 0;
        while j + 32 <= n {
            let mut acc = [[_mm512_setzero_ps(); 2]; R];
            for r in 0..m {
                let g0 = _mm512_loadu_ps(gp.add(r * n + j));
                let g1 = _mm512_loadu_ps(gp.add(r * n + j + 16));
                for ri in 0..R {
                    let c = _mm512_set1_ps(*ap.add(r * k + col + ri));
                    acc[ri][0] = _mm512_fmadd_ps(c, g0, acc[ri][0]);
                    acc[ri][1] = _mm512_fmadd_ps(c, g1, acc[ri][1]);
                }
            }
            for ri in 0..R {
                _mm512_storeu_ps(op.add((o + ri) * n + j), acc[ri][0]);
                _mm512_storeu_ps(op.add((o + ri) * n + j + 16), acc[ri][1]);
            }
            j += 32;
        }
        while j < n {
            let w = (n - j).min(16);
            let mk = mask16(w);
            let mut acc = [_mm512_setzero_ps(); R];
            for r in 0..m {
                let gv = _mm512_maskz_loadu_ps(mk, gp.add(r * n + j));
                for ri in 0..R {
                    let c = _mm512_set1_ps(*ap.add(r * k + col + ri));
                    acc[ri] = _mm512_fmadd_ps(c, gv, acc[ri]);
                }
            }
            for ri in 0..R {
                _mm512_mask_storeu_ps(op.add((o + ri) * n + j), mk, acc[ri]);
            }
            j += 16;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn at_b_avx2(
        a: &[f32],
        m: usize,
        k: usize,
        i0: usize,
        rows: usize,
        g: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let mut i = 0;
        while i < rows {
            match rows - i {
                1 => atb256_rows::<1>(a, m, k, i0 + i, i, g, n, out),
                2 => atb256_rows::<2>(a, m, k, i0 + i, i, g, n, out),
                3 => atb256_rows::<3>(a, m, k, i0 + i, i, g, n, out),
                _ => atb256_rows::<4>(a, m, k, i0 + i, i, g, n, out),
            }
            i += (rows - i).min(4);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn atb256_rows<const R: usize>(
        a: &[f32],
        m: usize,
        k: usize,
        col: usize,
        o: usize,
        g: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let (ap, gp, op) = (a.as_ptr(), g.as_ptr(), out.as_mut_ptr());
        let mut j = 0;
        while j + 16 <= n {
            let mut acc = [[_mm256_setzero_ps(); 2]; R];
            for r in 0..m {
                let g0 = _mm256_loadu_ps(gp.add(r * n + j));
                let g1 = _mm256_loadu_ps(gp.add(r * n + j + 8));
                for ri in 0..R {
                    let c = _mm256_set1_ps(*ap.add(r * k + col + ri));
                    acc[ri][0] = _mm256_fmadd_ps(c, g0, acc[ri][0]);
                    acc[ri][1] = _mm256_fmadd_ps(c, g1, acc[ri][1]);
                }
            }
            for ri in 0..R {
                _mm256_storeu_ps(op.add((o + ri) * n + j), acc[ri][0]);
                _mm256_storeu_ps(op.add((o + ri) * n + j + 8), acc[ri][1]);
            }
            j += 16;
        }
        while j < n {
            let w = (n - j).min(8);
            let mk = mask8(w);
            let mut acc = [_mm256_setzero_ps(); R];
            for r in 0..m {
                let gv = _mm256_maskload_ps(gp.add(r * n + j), mk);
                for ri in 0..R {
                    let c = _mm256_set1_ps(*ap.add(r * k + col + ri));
                    acc[ri] = _mm256_fmadd_ps(c, gv, acc[ri]);
                }
            }
            for ri in 0..R {
                _mm256_maskstore_ps(op.add((o + ri) * n + j), mk, acc[ri]);
            }
            j += 8;
        }
    }

    // ----------------------------------------------------------------
    // a_bt: dot products, 8 output columns per pass
    // ----------------------------------------------------------------

    /// Fixed-order horizontal sum (lane-ascending), so reductions do not
    /// depend on shuffle idioms.
    #[target_feature(enable = "avx512f")]
    unsafe fn hsum512(v: __m512) -> f32 {
        let mut tmp = [0.0f32; 16];
        _mm512_storeu_ps(tmp.as_mut_ptr(), v);
        tmp.iter().sum()
    }

    #[target_feature(enable = "avx2")]
    unsafe fn hsum256(v: __m256) -> f32 {
        let mut tmp = [0.0f32; 8];
        _mm256_storeu_ps(tmp.as_mut_ptr(), v);
        tmp.iter().sum()
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn a_bt_avx512(
        a_block: &[f32],
        rows: usize,
        l: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let (ap, bp, op) = (a_block.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        for i in 0..rows {
            let mut j = 0;
            while j + 8 <= n {
                let mut acc = [_mm512_setzero_ps(); 8];
                let mut l0 = 0;
                while l0 < l {
                    let w = (l - l0).min(16);
                    let mk = mask16(w);
                    let av = _mm512_maskz_loadu_ps(mk, ap.add(i * l + l0));
                    for t in 0..8 {
                        let bv = _mm512_maskz_loadu_ps(mk, bp.add((j + t) * l + l0));
                        acc[t] = _mm512_fmadd_ps(av, bv, acc[t]);
                    }
                    l0 += 16;
                }
                for t in 0..8 {
                    *op.add(i * n + j + t) = hsum512(acc[t]);
                }
                j += 8;
            }
            while j < n {
                let mut acc = _mm512_setzero_ps();
                let mut l0 = 0;
                while l0 < l {
                    let w = (l - l0).min(16);
                    let mk = mask16(w);
                    let av = _mm512_maskz_loadu_ps(mk, ap.add(i * l + l0));
                    let bv = _mm512_maskz_loadu_ps(mk, bp.add(j * l + l0));
                    acc = _mm512_fmadd_ps(av, bv, acc);
                    l0 += 16;
                }
                *op.add(i * n + j) = hsum512(acc);
                j += 1;
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn a_bt_avx2(
        a_block: &[f32],
        rows: usize,
        l: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let (ap, bp, op) = (a_block.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        for i in 0..rows {
            let mut j = 0;
            while j + 8 <= n {
                let mut acc = [_mm256_setzero_ps(); 8];
                let mut l0 = 0;
                while l0 < l {
                    let w = (l - l0).min(8);
                    let mk = mask8(w);
                    let av = _mm256_maskload_ps(ap.add(i * l + l0), mk);
                    for t in 0..8 {
                        let bv = _mm256_maskload_ps(bp.add((j + t) * l + l0), mk);
                        acc[t] = _mm256_fmadd_ps(av, bv, acc[t]);
                    }
                    l0 += 8;
                }
                for t in 0..8 {
                    *op.add(i * n + j + t) = hsum256(acc[t]);
                }
                j += 8;
            }
            while j < n {
                let mut acc = _mm256_setzero_ps();
                let mut l0 = 0;
                while l0 < l {
                    let w = (l - l0).min(8);
                    let mk = mask8(w);
                    let av = _mm256_maskload_ps(ap.add(i * l + l0), mk);
                    let bv = _mm256_maskload_ps(bp.add(j * l + l0), mk);
                    acc = _mm256_fmadd_ps(av, bv, acc);
                    l0 += 8;
                }
                *op.add(i * n + j) = hsum256(acc);
                j += 1;
            }
        }
    }

    // ----------------------------------------------------------------
    // tanh: the portable body, compiled for wider lanes
    // ----------------------------------------------------------------

    /// [`super::tanh`] in 16-lane `zmm` registers.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tanh_avx512(xs: &mut [f32]) {
        super::tanh_lanes(xs)
    }

    /// [`super::tanh`] in 8-lane `ymm` registers.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tanh_avx2(xs: &mut [f32]) {
        super::tanh_lanes(xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(len: usize, seed: u32) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (s >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    }

    fn matmul_naive(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let c = a[i * k + kk];
                for j in 0..n {
                    out[i * n + j] += c * b[kk * n + j];
                }
            }
        }
        out
    }

    fn assert_close(x: &[f32], y: &[f32], what: &str) {
        assert_eq!(x.len(), y.len(), "{what}: len");
        for (i, (a, b)) in x.iter().zip(y).enumerate() {
            assert!((a - b).abs() <= 1e-4, "{what}[{i}]: {a} vs {b}");
        }
    }

    /// Every level available on this machine must agree with the naive
    /// oracle on awkward shapes (tile tails in every dimension).
    #[test]
    fn available_levels_match_naive_oracle() {
        let shapes = [(1, 1, 1), (4, 8, 16), (5, 7, 9), (13, 33, 37), (70, 64, 50)];
        for &(m, k, n) in &shapes {
            let a = pseudo(m * k, 1 + m as u32);
            let b = pseudo(k * n, 2 + n as u32);
            let reference = matmul_naive(&a, m, k, &b, n);

            let mut got = vec![0.0f32; m * n];
            matmul_scalar(&a, m, k, &b, n, &mut got);
            // The scalar lane path preserves the oracle's per-element
            // accumulation order exactly.
            assert_eq!(got, reference, "scalar matmul {m}x{k}x{n}");

            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                    let mut got = vec![0.0f32; m * n];
                    unsafe { x86::matmul_avx2(&a, m, k, &b, n, &mut got) };
                    assert_close(&got, &reference, &format!("avx2 matmul {m}x{k}x{n}"));
                }
                if is_x86_feature_detected!("avx512f") {
                    let mut got = vec![0.0f32; m * n];
                    unsafe { x86::matmul_avx512(&a, m, k, &b, n, &mut got) };
                    assert_close(&got, &reference, &format!("avx512 matmul {m}x{k}x{n}"));
                }
            }
        }
    }

    #[test]
    fn at_b_levels_match_transposed_oracle() {
        for &(m, k, n) in &[(3, 2, 2), (16, 8, 8), (33, 13, 21), (128, 24, 17)] {
            let a = pseudo(m * k, 3);
            let g = pseudo(m * n, 4);
            // oracle: aᵀ computed explicitly, then naive matmul
            let mut at = vec![0.0f32; k * m];
            for r in 0..m {
                for i in 0..k {
                    at[i * m + r] = a[r * k + i];
                }
            }
            let reference = matmul_naive(&at, k, m, &g, n);

            let mut got = vec![0.0f32; k * n];
            at_b_scalar(&a, m, k, 0, k, &g, n, &mut got);
            assert_close(&got, &reference, &format!("scalar at_b {m}x{k}x{n}"));

            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                    let mut got = vec![0.0f32; k * n];
                    unsafe { x86::at_b_avx2(&a, m, k, 0, k, &g, n, &mut got) };
                    assert_close(&got, &reference, &format!("avx2 at_b {m}x{k}x{n}"));
                }
                if is_x86_feature_detected!("avx512f") {
                    let mut got = vec![0.0f32; k * n];
                    unsafe { x86::at_b_avx512(&a, m, k, 0, k, &g, n, &mut got) };
                    assert_close(&got, &reference, &format!("avx512 at_b {m}x{k}x{n}"));
                }
            }
        }
    }

    #[test]
    fn a_bt_levels_match_transposed_oracle() {
        for &(m, l, n) in &[(2, 3, 2), (9, 17, 11), (40, 64, 30)] {
            let a = pseudo(m * l, 5);
            let b = pseudo(n * l, 6);
            let mut bt = vec![0.0f32; l * n];
            for j in 0..n {
                for t in 0..l {
                    bt[t * n + j] = b[j * l + t];
                }
            }
            let reference = matmul_naive(&a, m, l, &bt, n);

            let mut got = vec![0.0f32; m * n];
            a_bt_scalar(&a, m, l, &b, n, &mut got);
            assert_close(&got, &reference, &format!("scalar a_bt {m}x{l}x{n}"));

            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                    let mut got = vec![0.0f32; m * n];
                    unsafe { x86::a_bt_avx2(&a, m, l, &b, n, &mut got) };
                    assert_close(&got, &reference, &format!("avx2 a_bt {m}x{l}x{n}"));
                }
                if is_x86_feature_detected!("avx512f") {
                    let mut got = vec![0.0f32; m * n];
                    unsafe { x86::a_bt_avx512(&a, m, l, &b, n, &mut got) };
                    assert_close(&got, &reference, &format!("avx512 a_bt {m}x{l}x{n}"));
                }
            }
        }
    }

    /// Block decomposition must not change per-element arithmetic: a
    /// row-block split of the public kernels reassembles to exactly the
    /// full-range result (the core of the thread-count determinism
    /// guarantee).
    #[test]
    fn row_blocks_are_bit_identical_to_full_range() {
        let (m, k, n) = (37, 19, 23);
        let a = pseudo(m * k, 7);
        let b = pseudo(k * n, 8);
        let mut full = vec![0.0f32; m * n];
        matmul_block(&a, m, k, &b, n, &mut full);
        let mut split = vec![0.0f32; m * n];
        let block = 5;
        let mut r0 = 0;
        while r0 < m {
            let r1 = (r0 + block).min(m);
            matmul_block(
                &a[r0 * k..r1 * k],
                r1 - r0,
                k,
                &b,
                n,
                &mut split[r0 * n..r1 * n],
            );
            r0 = r1;
        }
        assert_eq!(full, split, "matmul row-block split drifted");

        let g = pseudo(m * n, 9);
        let mut full = vec![0.0f32; k * n];
        matmul_at_b_block(&a, m, k, 0, k, &g, n, &mut full);
        let mut split = vec![0.0f32; k * n];
        let mut i0 = 0;
        while i0 < k {
            let i1 = (i0 + 3).min(k);
            matmul_at_b_block(&a, m, k, i0, i1 - i0, &g, n, &mut split[i0 * n..i1 * n]);
            i0 = i1;
        }
        assert_eq!(full, split, "at_b row-block split drifted");
    }

    // -----------------------------------------------------------------
    // tanh oracle: output bits pinned from glibc 2.36's `tanhf`
    // -----------------------------------------------------------------

    /// Digest of `tanh` over [`tier1_inputs`].
    const TANH_TIER1_DIGEST: u64 = 0x7d1f_6a37_c7af_54aa;
    /// Digest of `tanh` over all 2^32 bit patterns, ascending.
    const TANH_ALL_DIGEST: u64 = 0x48f6_1f04_1df8_3081;

    /// Bit patterns of `|x|` at which glibc's `tanhf` changes branch,
    /// plus those at which the `expm1f(±2|x|)` it calls does; `expm1f`'s
    /// thresholds are on `|u| = 2|x|`, so halving one subtracts 1 from its
    /// exponent field.
    fn tanh_thresholds() -> Vec<u32> {
        let half = |u_bits: u32| u_bits - 0x0080_0000;
        vec![
            0x0000_0000,       // x = ±0 returns x
            0x0080_0000,       // FLT_MIN: the tiny branch's underflow check
            0x2400_0000,       // 2^-55: x·(1 + x) below
            0x3f80_0000,       // 1: expm1f(2|x|) at and above, expm1f(−2|x|) below
            0x41b0_0000,       // 22: ±1 at and above
            0x7f80_0000,       // infinity; NaN above
            half(0x3300_0000), // |u| < 2^-25 returns u
            half(0x3eb1_7218), // |u| ≤ ln2/2: k = 0
            half(0x3f85_1592), // |u| < 1.5·ln2: k = ±1
            half(0x4195_b844), // |u| ≥ 27·ln2: the huge-argument filter
            half(0x42b1_7218), // |u| ≥ 88.72: overflow and non-finite u
            first_with_k(23),  // k ≥ 23: the 2^-k correction changes form
            first_with_k(57),  // k > 56: the plain exponent shift
        ]
    }

    /// The first `|x|` bit pattern at which `expm1f(2|x|)` reduces with
    /// `k ≥ want`, where `k = trunc(2|x|/ln2 + 0.5)` as glibc computes it.
    fn first_with_k(want: i32) -> u32 {
        let invln2 = f32::from_bits(0x3fb8_aa3b);
        let k = |bits: u32| (invln2 * (2.0 * f32::from_bits(bits)) + 0.5) as i32;
        let (mut lo, mut hi) = (0x3f80_0000u32, 0x41b0_0000u32);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if k(mid) >= want {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// The tier-1 inputs: every 4,099th bit pattern, then ±2,048 ulps
    /// around each threshold of [`tanh_thresholds`], at both signs.
    fn tier1_inputs() -> impl Iterator<Item = u32> {
        let windows = tanh_thresholds().into_iter().flat_map(|t| {
            let magnitudes = t.saturating_sub(2048)..=t + 2048;
            magnitudes
                .clone()
                .chain(magnitudes.map(|m| m | 0x8000_0000))
        });
        (0..=u32::MAX).step_by(4099).chain(windows)
    }

    /// FNV-1a over the output bits of `tanh` applied to `inputs`, one
    /// 32-bit word per value; `tanh` works in place on batches.
    fn tanh_digest_of(inputs: impl Iterator<Item = u32>, tanh: impl Fn(&mut [f32])) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut inputs = inputs.map(f32::from_bits).peekable();
        let mut batch = Vec::with_capacity(4096);
        while inputs.peek().is_some() {
            batch.clear();
            batch.extend(inputs.by_ref().take(4096));
            tanh(&mut batch);
            for y in &batch {
                h = (h ^ u64::from(y.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// An in-place slice kernel.
    type SliceFn = fn(&mut [f32]);

    /// The kernel at every level this CPU supports, by name.
    fn tanh_levels() -> Vec<(&'static str, SliceFn)> {
        let mut levels: Vec<(&'static str, SliceFn)> = vec![("plain", tanh_lanes)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                // SAFETY: the CPU was just checked for AVX2 and FMA.
                levels.push(("avx2", |xs| unsafe { x86::tanh_avx2(xs) }));
            }
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: the CPU was just checked for AVX-512F.
                levels.push(("avx512", |xs| unsafe { x86::tanh_avx512(xs) }));
            }
        }
        levels
    }

    #[test]
    fn tanh_digest() {
        for (name, tanh) in tanh_levels() {
            assert_eq!(
                tanh_digest_of(tier1_inputs(), tanh),
                TANH_TIER1_DIGEST,
                "{name} tanh drifted on the tier-1 inputs"
            );
        }
    }

    /// All 2^32 inputs; run in release with `--include-ignored`.
    #[test]
    #[ignore]
    fn tanh_digest_all_bit_patterns() {
        for (name, tanh) in tanh_levels() {
            assert_eq!(
                tanh_digest_of(0..=u32::MAX, tanh),
                TANH_ALL_DIGEST,
                "{name} tanh drifted on some bit pattern"
            );
        }
    }
}
