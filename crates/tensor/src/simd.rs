//! SIMD-lane matmul microkernels behind the matmul forms of
//! [`crate::Kernels`], the one `tanh` ([`tanh`]) and the one `exp`
//! ([`exp`], with [`sigmoid`] on top), and the tape-free pass's fused
//! gated update ([`gated_update`]).
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
//! | `gated_update` | 6 products × 4 rows × 16 columns (AVX-512), 6 × 1 × 16 (AVX2, Scalar) | `k`, ascending |
//!
//! ## Determinism
//!
//! Every output element is produced by exactly one accumulator that walks
//! the shared dimension in a fixed ascending order; tile decomposition
//! never changes per-element arithmetic, and nothing here depends on
//! thread count — blocks of rows handed to different pool workers compute
//! exactly what the sequential loop computes. Results are therefore
//! bit-identical for any `MOSS_THREADS`.
//!
//! Across *levels* the products follow one rule per level: `matmul` and
//! [`gated_update`]'s six products start each output element from zero
//! and add `a[i][k]·b[k][j]` for `k` ascending, with one fused
//! multiply-add per step at `Avx2` and `Avx512` and a rounded multiply
//! then an add at `Scalar`. So within a level the fused update gives the
//! bits of six `matmul`s followed by the adds, the activations and the
//! blend; across levels the FMA paths agree with `Scalar` (and the naive
//! oracle) to ~1e-6 relative, not bitwise. (`matmul_a_bt` also groups
//! its sums by register width, so AVX-512 differs from AVX2 there.) A
//! level is fixed for the whole process, so seeded runs still reproduce
//! exactly on the same machine.
//!
//! ## tanh and exp
//!
//! [`tanh`] is the only hyperbolic tangent the workspace runs: the tape's
//! `Graph::tanh` and GELU, and the tape-free inference pass. It reproduces
//! glibc 2.36's `tanhf` on every input, so it replaces libm without moving
//! a bit. [`exp`] is likewise the only exponential — the tape's
//! `Graph::exp`, [`sigmoid`] and every softmax — and reproduces glibc
//! 2.36's FMA `expf` on every input. Each has one branch-free body,
//! compiled plain and under AVX2 and AVX-512 `#[target_feature]`
//! wrappers, and unlike the matmuls each gives the same bits at every
//! level: `tanh` never fuses a multiply-add, and `exp`'s f64 steps are
//! each one correctly rounded operation whether `f64::mul_add` is an
//! instruction or libm's `fma`.

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

/// Replaces every element of `xs` with `e^x`, bit for bit what glibc
/// 2.36's `expf` returns for it on a CPU with FMA (its `__expf_fma` build;
/// NaN payloads included).
///
/// The kernel is glibc's `e_expf.c` as GCC compiles it for FMA, written
/// branch-free: every lane runs the general path and a select picks the
/// special results. The general path works in f64: round `x·32/ln2` to
/// the integer `k` with the `1.5·2^52` shift, take `2^(k/32)` from a
/// 32-entry table and the exponent field, and evaluate a cubic in the
/// remainder. Every step is one correctly rounded f64 operation:
/// `f64::mul_add` is one `vfmadd` under the AVX2 and AVX-512 wrappers and
/// libm's correctly rounded `fma` in the plain build, so all three levels
/// give the same bits. The `exp_digest` tests pin them on all 2^32 inputs.
pub fn exp(xs: &mut [f32]) {
    match level() {
        // SAFETY: `level` returns `Avx512` only when the CPU has AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { x86::exp_avx512(xs) },
        // SAFETY: `level` returns `Avx2` only when the CPU has AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::exp_avx2(xs) },
        _ => exp_lanes(xs),
    }
}

/// Replaces every element of `xs` with the logistic sigmoid
/// `1 / (1 + e^(−x))`, with `e^(−x)` from [`exp`]; same bits at every
/// level.
pub fn sigmoid(xs: &mut [f32]) {
    match level() {
        // SAFETY: `level` returns `Avx512` only when the CPU has AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { x86::sigmoid_avx512(xs) },
        // SAFETY: `level` returns `Avx2` only when the CPU has AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::sigmoid_avx2(xs) },
        _ => sigmoid_lanes(xs),
    }
}

/// The one body of [`exp`] every level compiles.
#[inline(always)]
fn exp_lanes(xs: &mut [f32]) {
    for x in xs {
        *x = exp_lane(*x);
    }
}

/// The one body of [`sigmoid`] every level compiles.
#[inline(always)]
fn sigmoid_lanes(xs: &mut [f32]) {
    for x in xs {
        *x = sigmoid_lane(*x);
    }
}

#[inline(always)]
fn sigmoid_lane(x: f32) -> f32 {
    1.0 / (1.0 + exp_lane(-x))
}

/// glibc's `__exp2f_data.tab`: entry `i` is the bits of `2^(i/32)` less
/// `i << 47`, so adding `k << 47` for any `k ≡ i (mod 32)` gives the bits
/// of `2^(k/32)`.
const EXP_TABLE: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];

/// `expf(x)`: the general path for every lane, then the special results
/// glibc returns once `|x| ≥ 88` (or `x` is not finite), in its order:
/// −∞ gives +0, NaN and +∞ give `x + x`, `x > 88.72` overflows to +∞,
/// `x < −103.97` underflows to +0 and `x < −103.28` gives `2^-149`.
#[inline(always)]
fn exp_lane(x: f32) -> f32 {
    const INVLN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe); // 32/ln2
    const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000); // 1.5·2^52
    const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
    const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
    const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);

    let xd = f64::from(x);
    let kd = INVLN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INVLN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = C0.mul_add(r, C1);
    let y = C2.mul_add(r, 1.0);
    let y = z.mul_add(r * r, y);
    let general = (y * s) as f32;

    let bits = x.to_bits();
    let r = if x < f32::from_bits(0xc2ce_8ecf) {
        f32::from_bits(1)
    } else {
        general
    };
    let r = if x < f32::from_bits(0xc2cf_f1b4) {
        0.0
    } else {
        r
    };
    let r = if x > f32::from_bits(0x42b1_7217) {
        f32::INFINITY
    } else {
        r
    };
    let r = if bits & 0x7fff_ffff >= 0x7f80_0000 {
        x + x
    } else {
        r
    };
    if bits == 0xff80_0000 {
        0.0
    } else {
        r
    }
}

// ---------------------------------------------------------------------
// The fused gated update
// ---------------------------------------------------------------------

/// Columns per chunk of a [`GatePack`]: one `zmm`, two `ymm`.
const GATE_LANES: usize = 16;

/// One gated (GRU-style) update's weights as row-major slices: `d × d`
/// matrices and `1 × d` biases.
#[derive(Debug, Clone, Copy)]
pub struct Gate<'a> {
    /// Update gate: weight on the node's own state `h`.
    pub wz: &'a [f32],
    /// Update gate: weight on the message `m`.
    pub uz: &'a [f32],
    /// Update gate: bias.
    pub bz: &'a [f32],
    /// Candidate: weight on `h`.
    pub wh: &'a [f32],
    /// Candidate: weight on `m`.
    pub uh: &'a [f32],
    /// Candidate: bias.
    pub bh: &'a [f32],
    /// The weights `(Vz, Vh)` on the initial state `h0`, if the update has
    /// that term (the turnaround update does not).
    pub v: Option<(&'a [f32], &'a [f32])>,
}

/// A [`Gate`] laid out for [`gated_update`]: for each chunk of 16 output
/// columns and each `k`, the `k`-th rows of the gate's matrices side by
/// side (`Wz, Uz[, Vz], Wh, Uh[, Vh]`), zero past column `d`, so one
/// chunk's weights stream through in order and every load is a full
/// register.
#[derive(Debug, Clone)]
pub struct GatePack {
    d: usize,
    /// Inputs per gate: `h`, `m` and, with the `h0` term, `h0`.
    inputs: usize,
    /// `[chunk][k][gate][input][lane]`.
    w: Vec<f32>,
    /// `[chunk][gate][lane]`.
    b: Vec<f32>,
}

impl GatePack {
    /// Packs `gate` for a state width of `d`.
    ///
    /// # Panics
    ///
    /// Panics if a matrix is not `d × d` or a bias not `1 × d`.
    pub fn new(gate: &Gate, d: usize) -> GatePack {
        let mats = match gate.v {
            Some((vz, vh)) => vec![gate.wz, gate.uz, vz, gate.wh, gate.uh, vh],
            None => vec![gate.wz, gate.uz, gate.wh, gate.uh],
        };
        for m in &mats {
            assert_eq!(m.len(), d * d, "gate matrix is not {d}×{d}");
        }
        for b in [gate.bz, gate.bh] {
            assert_eq!(b.len(), d, "gate bias is not 1×{d}");
        }
        let chunks = d.div_ceil(GATE_LANES);
        let mut w = vec![0.0f32; chunks * d * mats.len() * GATE_LANES];
        let mut b = vec![0.0f32; chunks * 2 * GATE_LANES];
        for c in 0..chunks {
            let (j0, width) = (c * GATE_LANES, (d - c * GATE_LANES).min(GATE_LANES));
            for k in 0..d {
                for (p, m) in mats.iter().enumerate() {
                    let at = ((c * d + k) * mats.len() + p) * GATE_LANES;
                    w[at..at + width].copy_from_slice(&m[k * d + j0..k * d + j0 + width]);
                }
            }
            for (g, bias) in [gate.bz, gate.bh].into_iter().enumerate() {
                let at = (c * 2 + g) * GATE_LANES;
                b[at..at + width].copy_from_slice(&bias[j0..j0 + width]);
            }
        }
        GatePack {
            d,
            inputs: mats.len() / 2,
            w,
            b,
        }
    }
}

/// The fused gated update: for every row `r` of `h` (`rows × d`), writes
/// `h' = (1 − z)·h + z·h̃` into row `nodes[r]` of `states` (width `d`), with
///
/// - `z = σ((h·Wz + m·Uz) [+ h0·Vz] + bz)` and
/// - `h̃ = tanh((h·Wh + m·Uh) [+ h0·Vh] + bh)`.
///
/// A tile of rows keeps its six products in registers, adds them in that
/// order, applies [`sigmoid`]'s and [`tanh`]'s lane bodies and blends
/// without fusing. Each product accumulates `k` in ascending order from
/// zero under the level's rule for the matmuls (see the module docs), so
/// every output bit equals [`matmul_block`] ×6, the adds, the activations
/// and the blend run one after another. `h`, `m` and `h0` must be
/// gathered before the call: `states` may hold their source rows.
///
/// # Panics
///
/// Panics if `h0` is given for a pack without the `h0` term or missing
/// for one with it, if `h`, `m` or `h0` is not `nodes.len() × d`, or if a
/// node's row is outside `states`.
pub fn gated_update(
    pack: &GatePack,
    h: &[f32],
    m: &[f32],
    h0: Option<&[f32]>,
    states: &mut [f32],
    nodes: &[usize],
) {
    let block = nodes.len() * pack.d;
    assert_eq!(h0.is_some(), pack.inputs == 3, "h0 term mismatch");
    assert!(
        h.len() == block && m.len() == block && h0.is_none_or(|h0| h0.len() == block),
        "gated update inputs are not {}×{}",
        nodes.len(),
        pack.d
    );
    match level() {
        // SAFETY: `level` returns `Avx512` only when the CPU has AVX-512F;
        // the input lengths were just checked.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { x86::gated_avx512(pack, h, m, h0, states, nodes) },
        // SAFETY: `level` returns `Avx2` only when the CPU has AVX2 and FMA;
        // the input lengths were just checked.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { x86::gated_avx2(pack, h, m, h0, states, nodes) },
        _ => gated_scalar(pack, h, m, h0, states, nodes),
    }
}

/// The activations and the blend of one tile: `pre[0]` holds `T` rows'
/// update-gate pre-activations for the 16 columns from `j0`, `pre[1]`
/// the candidate's; row `t` of the tile is row `r0 + t` of `h` and is
/// written to row `nodes[r0 + t]` of `states`. The one body every level
/// compiles.
#[inline(always)]
fn gate_finish<const T: usize>(
    pre: &mut [[[f32; GATE_LANES]; T]; 2],
    h: &[f32],
    d: usize,
    r0: usize,
    j0: usize,
    states: &mut [f32],
    nodes: &[usize],
) {
    let [z, cand] = pre;
    for x in z.as_flattened_mut() {
        *x = sigmoid_lane(*x);
    }
    for x in cand.as_flattened_mut() {
        *x = tanh_lane(*x);
    }
    let w = (d - j0).min(GATE_LANES);
    for t in 0..T {
        let h = &h[(r0 + t) * d + j0..][..w];
        let out = &mut states[nodes[r0 + t] * d + j0..][..w];
        for l in 0..w {
            out[l] = (1.0 - z[t][l]) * h[l] + z[t][l] * cand[t][l];
        }
    }
}

/// `(p0 + p1) [+ p2] + b` per lane: the tape's association.
#[inline(always)]
fn gate_sum<const N: usize>(p: &[[f32; GATE_LANES]; N], b: &[f32]) -> [f32; GATE_LANES] {
    let mut s = [0.0f32; GATE_LANES];
    for l in 0..GATE_LANES {
        s[l] = p[0][l] + p[1][l];
        for q in &p[2..] {
            s[l] += q[l];
        }
        s[l] += b[l];
    }
    s
}

fn gated_scalar(
    pack: &GatePack,
    h: &[f32],
    m: &[f32],
    h0: Option<&[f32]>,
    states: &mut [f32],
    nodes: &[usize],
) {
    match h0 {
        Some(h0) => gated_scalar_rows(pack, [h, m, h0], states, nodes),
        None => gated_scalar_rows(pack, [h, m], states, nodes),
    }
}

/// One row per tile, the products in lane arrays that round the multiply
/// before the add, as [`matmul_scalar`] does.
fn gated_scalar_rows<const N: usize>(
    pack: &GatePack,
    x: [&[f32]; N],
    states: &mut [f32],
    nodes: &[usize],
) {
    let d = pack.d;
    let per_k = 2 * N * GATE_LANES;
    for r in 0..nodes.len() {
        for (c, wc) in pack.w.chunks_exact(d * per_k).enumerate() {
            let mut acc = [[[0.0f32; GATE_LANES]; N]; 2];
            for (k, wk) in wc.chunks_exact(per_k).enumerate() {
                for i in 0..N {
                    let a = x[i][r * d + k];
                    for g in 0..2 {
                        let wrow = &wk[(g * N + i) * GATE_LANES..][..GATE_LANES];
                        for l in 0..GATE_LANES {
                            acc[g][i][l] += a * wrow[l];
                        }
                    }
                }
            }
            let b = &pack.b[c * 2 * GATE_LANES..];
            let mut pre = [
                [gate_sum(&acc[0], &b[..GATE_LANES])],
                [gate_sum(&acc[1], &b[GATE_LANES..])],
            ];
            gate_finish::<1>(&mut pre, x[0], d, r, c * GATE_LANES, states, nodes);
        }
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
    // gated update: the products in registers, then the portable finish
    // ----------------------------------------------------------------

    use super::{gate_finish, GatePack, GATE_LANES};

    /// [`super::gated_update`] with `zmm` product tiles of up to 4 rows.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, and `h`, `m` and `h0` must hold
    /// `nodes.len() × d` floats.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gated_avx512(
        pack: &GatePack,
        h: &[f32],
        m: &[f32],
        h0: Option<&[f32]>,
        states: &mut [f32],
        nodes: &[usize],
    ) {
        match h0 {
            Some(h0) => gated512_rows(pack, [h, m, h0], states, nodes),
            None => gated512_rows(pack, [h, m], states, nodes),
        }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn gated512_rows<const N: usize>(
        pack: &GatePack,
        x: [&[f32]; N],
        states: &mut [f32],
        nodes: &[usize],
    ) {
        let rows = nodes.len();
        let mut r = 0;
        while r < rows {
            match rows - r {
                1 => gated512_tile::<N, 1>(pack, x, r, states, nodes),
                2 => gated512_tile::<N, 2>(pack, x, r, states, nodes),
                3 => gated512_tile::<N, 3>(pack, x, r, states, nodes),
                _ => gated512_tile::<N, 4>(pack, x, r, states, nodes),
            }
            r += (rows - r).min(4);
        }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn gated512_tile<const N: usize, const T: usize>(
        pack: &GatePack,
        x: [&[f32]; N],
        r0: usize,
        states: &mut [f32],
        nodes: &[usize],
    ) {
        let d = pack.d;
        let per_k = 2 * N * GATE_LANES;
        let (wp, bp) = (pack.w.as_ptr(), pack.b.as_ptr());
        for c in 0..d.div_ceil(GATE_LANES) {
            let wc = wp.add(c * d * per_k);
            let mut acc = [[[_mm512_setzero_ps(); T]; N]; 2];
            for k in 0..d {
                let wk = wc.add(k * per_k);
                for i in 0..N {
                    let wz = _mm512_loadu_ps(wk.add(i * GATE_LANES));
                    let wh = _mm512_loadu_ps(wk.add((N + i) * GATE_LANES));
                    for t in 0..T {
                        let a = _mm512_set1_ps(*x[i].as_ptr().add((r0 + t) * d + k));
                        acc[0][i][t] = _mm512_fmadd_ps(a, wz, acc[0][i][t]);
                        acc[1][i][t] = _mm512_fmadd_ps(a, wh, acc[1][i][t]);
                    }
                }
            }
            let mut pre = [[[0.0f32; GATE_LANES]; T]; 2];
            for g in 0..2 {
                let b = _mm512_loadu_ps(bp.add((c * 2 + g) * GATE_LANES));
                for t in 0..T {
                    let mut s = _mm512_add_ps(acc[g][0][t], acc[g][1][t]);
                    for i in 2..N {
                        s = _mm512_add_ps(s, acc[g][i][t]);
                    }
                    _mm512_storeu_ps(pre[g][t].as_mut_ptr(), _mm512_add_ps(s, b));
                }
            }
            gate_finish(&mut pre, x[0], d, r0, c * GATE_LANES, states, nodes);
        }
    }

    /// [`super::gated_update`] one row at a time, each 16-column chunk of
    /// a product in two `ymm` registers.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA, and `h`, `m` and `h0` must hold
    /// `nodes.len() × d` floats.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gated_avx2(
        pack: &GatePack,
        h: &[f32],
        m: &[f32],
        h0: Option<&[f32]>,
        states: &mut [f32],
        nodes: &[usize],
    ) {
        match h0 {
            Some(h0) => gated256_rows(pack, [h, m, h0], states, nodes),
            None => gated256_rows(pack, [h, m], states, nodes),
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn gated256_rows<const N: usize>(
        pack: &GatePack,
        x: [&[f32]; N],
        states: &mut [f32],
        nodes: &[usize],
    ) {
        let d = pack.d;
        let per_k = 2 * N * GATE_LANES;
        let (wp, bp) = (pack.w.as_ptr(), pack.b.as_ptr());
        for r in 0..nodes.len() {
            for c in 0..d.div_ceil(GATE_LANES) {
                let wc = wp.add(c * d * per_k);
                let mut acc = [[[_mm256_setzero_ps(); 2]; N]; 2];
                for k in 0..d {
                    let wk = wc.add(k * per_k);
                    for i in 0..N {
                        let a = _mm256_set1_ps(*x[i].as_ptr().add(r * d + k));
                        for g in 0..2 {
                            let wg = wk.add((g * N + i) * GATE_LANES);
                            for half in 0..2 {
                                let wv = _mm256_loadu_ps(wg.add(half * 8));
                                acc[g][i][half] = _mm256_fmadd_ps(a, wv, acc[g][i][half]);
                            }
                        }
                    }
                }
                let mut pre = [[[0.0f32; GATE_LANES]; 1]; 2];
                for g in 0..2 {
                    for half in 0..2 {
                        let b = _mm256_loadu_ps(bp.add((c * 2 + g) * GATE_LANES + half * 8));
                        let mut s = _mm256_add_ps(acc[g][0][half], acc[g][1][half]);
                        for i in 2..N {
                            s = _mm256_add_ps(s, acc[g][i][half]);
                        }
                        _mm256_storeu_ps(pre[g][0].as_mut_ptr().add(half * 8), _mm256_add_ps(s, b));
                    }
                }
                gate_finish(&mut pre, x[0], d, r, c * GATE_LANES, states, nodes);
            }
        }
    }

    // ----------------------------------------------------------------
    // tanh, exp and sigmoid: the portable bodies, compiled for wider lanes
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

    /// [`super::exp`] in 16-lane `zmm` registers.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn exp_avx512(xs: &mut [f32]) {
        super::exp_lanes(xs)
    }

    /// [`super::exp`] in 8-lane `ymm` registers.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn exp_avx2(xs: &mut [f32]) {
        super::exp_lanes(xs)
    }

    /// [`super::sigmoid`] in 16-lane `zmm` registers.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn sigmoid_avx512(xs: &mut [f32]) {
        super::sigmoid_lanes(xs)
    }

    /// [`super::sigmoid`] in 8-lane `ymm` registers.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sigmoid_avx2(xs: &mut [f32]) {
        super::sigmoid_lanes(xs)
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

    /// A `matmul_block` body at one level.
    type MatmulFn = fn(&[f32], usize, usize, &[f32], usize, &mut [f32]);
    /// A `gated_update` body at one level.
    type GatedFn = fn(&GatePack, &[f32], &[f32], Option<&[f32]>, &mut [f32], &[usize]);

    /// The matmul and the fused update at every level this CPU supports.
    fn gated_levels() -> Vec<(&'static str, MatmulFn, GatedFn)> {
        let mut levels: Vec<(&'static str, MatmulFn, GatedFn)> =
            vec![("plain", matmul_scalar, gated_scalar)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                // SAFETY: the CPU was just checked for AVX2 and FMA, and the
                // test passes `rows × d` inputs.
                levels.push((
                    "avx2",
                    |a, m, k, b, n, out| unsafe { x86::matmul_avx2(a, m, k, b, n, out) },
                    |p, h, m, h0, st, nodes| unsafe { x86::gated_avx2(p, h, m, h0, st, nodes) },
                ));
            }
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: the CPU was just checked for AVX-512F, and the
                // test passes `rows × d` inputs.
                levels.push((
                    "avx512",
                    |a, m, k, b, n, out| unsafe { x86::matmul_avx512(a, m, k, b, n, out) },
                    |p, h, m, h0, st, nodes| unsafe { x86::gated_avx512(p, h, m, h0, st, nodes) },
                ));
            }
        }
        levels
    }

    /// The update the fused kernel replaces, one op at a time: six
    /// matmuls at the given level, the adds in the tape's order, the
    /// `sigmoid` and `tanh` kernels and the blend.
    fn gated_unfused(
        matmul: MatmulFn,
        gate: &Gate,
        d: usize,
        (h, m, h0): (&[f32], &[f32], Option<&[f32]>),
        states: &mut [f32],
        nodes: &[usize],
    ) {
        let rows = nodes.len();
        let product = |a: &[f32], w: &[f32]| {
            let mut out = vec![0.0f32; rows * d];
            matmul(a, rows, d, w, d, &mut out);
            out
        };
        let pre = |w: &[f32], u: &[f32], v: Option<&[f32]>, b: &[f32]| {
            let mut s: Vec<f32> = product(h, w)
                .iter()
                .zip(product(m, u))
                .map(|(x, y)| x + y)
                .collect();
            if let (Some(h0), Some(v)) = (h0, v) {
                for (x, y) in s.iter_mut().zip(product(h0, v)) {
                    *x += y;
                }
            }
            for row in s.chunks_exact_mut(d) {
                for (x, &y) in row.iter_mut().zip(b) {
                    *x += y;
                }
            }
            s
        };
        let mut z = pre(gate.wz, gate.uz, gate.v.map(|v| v.0), gate.bz);
        let mut cand = pre(gate.wh, gate.uh, gate.v.map(|v| v.1), gate.bh);
        sigmoid(&mut z);
        tanh(&mut cand);
        for (r, &node) in nodes.iter().enumerate() {
            for j in 0..d {
                let e = r * d + j;
                states[node * d + j] = (1.0 - z[e]) * h[e] + z[e] * cand[e];
            }
        }
    }

    /// At every level, the fused update writes the unfused sequence's
    /// bits: state widths with and without a 16-column tail, every row
    /// count up to two full 4-row tiles and a tail, with and without the
    /// `h0` term, scattered to non-contiguous node rows.
    #[test]
    fn gated_update_matches_the_unfused_sequence() {
        let scaled = |len, seed, by: f32| -> Vec<f32> {
            pseudo(len, seed).into_iter().map(|x| x * by).collect()
        };
        for d in [8, 16, 20] {
            let mats: Vec<Vec<f32>> = (0..6).map(|i| scaled(d * d, 30 + i, 0.8)).collect();
            let (bz, bh) = (scaled(d, 40, 1.0), scaled(d, 41, 1.0));
            for with_h0 in [false, true] {
                let gate = Gate {
                    wz: &mats[0],
                    uz: &mats[1],
                    bz: &bz,
                    wh: &mats[3],
                    uh: &mats[4],
                    bh: &bh,
                    v: with_h0.then_some((&mats[2][..], &mats[5][..])),
                };
                let pack = GatePack::new(&gate, d);
                for rows in 1..=9 {
                    let total = rows + 3;
                    let nodes: Vec<usize> = (0..rows).rev().map(|r| r + 2).collect();
                    let h = scaled(rows * d, 50 + rows as u32, 3.0);
                    let m = scaled(rows * d, 60 + rows as u32, 3.0);
                    let h0 = scaled(rows * d, 70 + rows as u32, 3.0);
                    let h0 = with_h0.then_some(&h0[..]);
                    let init = scaled(total * d, 80, 1.0);
                    for (name, matmul, fused) in gated_levels() {
                        let mut want = init.clone();
                        gated_unfused(matmul, &gate, d, (&h, &m, h0), &mut want, &nodes);
                        let mut got = init.clone();
                        fused(&pack, &h, &m, h0, &mut got, &nodes);
                        let same = got
                            .iter()
                            .zip(&want)
                            .all(|(g, w)| g.to_bits() == w.to_bits());
                        assert!(same, "{name} d={d} rows={rows} h0={with_h0}: fused drifted");
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // tanh oracle: output bits pinned from glibc 2.36's `tanhf`
    // -----------------------------------------------------------------

    /// Digest of `tanh` over the tier-1 inputs of [`tanh_thresholds`].
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

    /// Bit patterns of `|x|` at which glibc's FMA `expf` changes branch,
    /// plus the one below which its result is subnormal.
    fn exp_thresholds() -> Vec<u32> {
        vec![
            0x0000_0000, // x = ±0
            0x42ae_ac50, // x ≈ −87.34: the result turns subnormal below
            0x42b0_0000, // |x| = 88: the special-case filter
            0x42b1_7217, // x > 88.72 overflows to +∞
            0x42ce_8ecf, // x < −103.28 gives 2^-149
            0x42cf_f1b4, // x < −103.97 gives +0
            0x7f80_0000, // infinity; NaN above
        ]
    }

    /// The tier-1 inputs: every 4,099th bit pattern, then ±2,048 ulps
    /// around each of `thresholds`, at both signs.
    fn tier1_inputs(thresholds: Vec<u32>) -> impl Iterator<Item = u32> {
        let windows = thresholds.into_iter().flat_map(|t| {
            let magnitudes = t.saturating_sub(2048)..=t + 2048;
            magnitudes
                .clone()
                .chain(magnitudes.map(|m| m | 0x8000_0000))
        });
        (0..=u32::MAX).step_by(4099).chain(windows)
    }

    /// FNV-1a over the output bits of `kernel` applied to `inputs`, one
    /// 32-bit word per value; `kernel` works in place on batches.
    fn digest_of(inputs: impl Iterator<Item = u32>, kernel: impl Fn(&mut [f32])) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut inputs = inputs.map(f32::from_bits).peekable();
        let mut batch = Vec::with_capacity(4096);
        while inputs.peek().is_some() {
            batch.clear();
            batch.extend(inputs.by_ref().take(4096));
            kernel(&mut batch);
            for y in &batch {
                h = (h ^ u64::from(y.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// An in-place slice kernel.
    type SliceFn = fn(&mut [f32]);

    /// A slice kernel at every level this CPU supports, by name: its plain
    /// body, then its `x86` AVX2 and AVX-512 wrappers where the CPU has
    /// them.
    macro_rules! at_levels {
        ($plain:ident, $avx2:ident, $avx512:ident) => {{
            let mut levels: Vec<(&'static str, SliceFn)> = vec![("plain", $plain)];
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                    // SAFETY: the CPU was just checked for AVX2 and FMA.
                    levels.push(("avx2", |xs| unsafe { x86::$avx2(xs) }));
                }
                if is_x86_feature_detected!("avx512f") {
                    // SAFETY: the CPU was just checked for AVX-512F.
                    levels.push(("avx512", |xs| unsafe { x86::$avx512(xs) }));
                }
            }
            levels
        }};
    }

    fn tanh_levels() -> Vec<(&'static str, SliceFn)> {
        at_levels!(tanh_lanes, tanh_avx2, tanh_avx512)
    }

    #[test]
    fn tanh_digest() {
        for (name, tanh) in tanh_levels() {
            assert_eq!(
                digest_of(tier1_inputs(tanh_thresholds()), tanh),
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
                digest_of(0..=u32::MAX, tanh),
                TANH_ALL_DIGEST,
                "{name} tanh drifted on some bit pattern"
            );
        }
    }

    // -----------------------------------------------------------------
    // exp oracle: output bits pinned from glibc 2.36's FMA `expf`
    // -----------------------------------------------------------------

    /// Digest of `exp` over the tier-1 inputs of [`exp_thresholds`].
    const EXP_TIER1_DIGEST: u64 = 0x9f2a_23f9_bcd6_c358;
    /// Digest of `exp` over all 2^32 bit patterns, ascending.
    const EXP_ALL_DIGEST: u64 = 0xb7ec_9ad6_d5fe_58ac;

    fn exp_levels() -> Vec<(&'static str, SliceFn)> {
        at_levels!(exp_lanes, exp_avx2, exp_avx512)
    }

    #[test]
    fn exp_digest() {
        for (name, exp) in exp_levels() {
            assert_eq!(
                digest_of(tier1_inputs(exp_thresholds()), exp),
                EXP_TIER1_DIGEST,
                "{name} exp drifted on the tier-1 inputs"
            );
        }
    }

    /// All 2^32 inputs; run in release with `--include-ignored`.
    #[test]
    #[ignore]
    fn exp_digest_all_bit_patterns() {
        for (name, exp) in exp_levels() {
            assert_eq!(
                digest_of(0..=u32::MAX, exp),
                EXP_ALL_DIGEST,
                "{name} exp drifted on some bit pattern"
            );
        }
    }

    /// `sigmoid` is `1 / (1 + e^(−x))` with the `exp` kernel's `e^(−x)`, at
    /// every level.
    #[test]
    fn sigmoid_composes_exp() {
        let xs: Vec<f32> = tier1_inputs(exp_thresholds()).map(f32::from_bits).collect();
        let mut want: Vec<f32> = xs.iter().map(|x| -x).collect();
        exp(&mut want);
        for e in &mut want {
            *e = 1.0 / (1.0 + *e);
        }
        for (name, sigmoid) in at_levels!(sigmoid_lanes, sigmoid_avx2, sigmoid_avx512) {
            let mut got = xs.clone();
            sigmoid(&mut got);
            let same = got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "{name} sigmoid is not 1/(1 + exp(-x))");
        }
    }
}
