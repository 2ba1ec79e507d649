//! Dense GEMM kernels: f32 for training, i8 -> i32 for quantized inference.
//!
//! The int8 kernel accumulates with **wrapping** i32 addition so that the CPU
//! reference executor and the accelerator model share overflow semantics even
//! under injected faults that blow up the dynamic range. Wrapping addition is
//! associative and commutative mod 2^32, which is what licenses the blocked /
//! unrolled schedule below to be **bit-identical** to the naive triple loop.
//!
//! The hot kernel is [`gemm_i8_i32_into`]: a register-blocked microkernel on
//! raw slices. Output rows are processed four at a time and columns in
//! fixed-width tiles (64, then 32, then 16, then a scalar tail) whose
//! `[i32; T]` accumulators stay in vector registers across the whole `k`
//! loop — each output element is loaded and stored once per GEMM, and each
//! `b` element serves four output rows. A 64-wide tile is four 512-bit
//! registers per row, so its 4 x 64 block holds 16 of AVX-512's 32 vector
//! registers and leaves the rest for the broadcast `a` values, the `b` rows
//! and the pair sums. Leftover rows (`m % 4`) fall back to a single-row
//! kernel that walks `COL_BLOCK`-wide panels with four fused `k`-steps.
//!
//! # Pair products
//!
//! An i8·i8 product fits in i16, so a tile puts two of them in one i16 lane:
//! for each k-pair it forms `a[p]·b[p] + a[p+1]·b[p+1]` with 16-bit vector
//! multiplies (`vpmullw`, 32 lanes per zmm register), sign-extends the sum
//! and accumulates it in i32. That halves the i32 work per product and
//! replaces the 32-bit `vpmulld`, which costs two uops. The pair sum of
//! i8 inputs lies in `[−32512, 32768]`, one past `i16::MAX` at the top, so
//! the tile multiplies the *negated* `a` (`−a ∈ [−127, 128]`): its pair sums
//! lie in `[−32768, 32512]`, which i16 holds exactly for every input, and the
//! tile subtracts them. No input needs a second kernel or a range check.
//!
//! The tile is three `T`-wide loops — widen the two `b` rows to i16, form
//! the four rows' pair sums, widen each sum and subtract it from its i32
//! accumulator — because LLVM vectorizes that shape with zmm `vpmullw` +
//! `vpmovsxwd`, but a single fused loop only with ymm `vpmullw`. The rows
//! are the inner loop: with the rows outside, LLVM unrolls the 32-wide tile
//! fully and vectorizes it across the four rows in xmm registers, about 6x
//! slower. The quad's rows are negated into a buffer before the tiles run:
//! negated inside the tile, the broadcast `a` values let LLVM move the
//! negation onto the vector sums, one more instruction per sum.
//!
//! # f32 tile
//!
//! Most GEMMs run their row quads on a second tile, in f32 with
//! `f32::mul_add`, and stay bit-identical to the wrapping i32 loop. An
//! i8·i8 product lies in `[−16256, 16384]`, so a sum of at most 1024 of
//! them is an integer of magnitude ≤ 2^24, and f32 holds every such integer
//! exactly: no FMA in such a chain ever rounds. A 4 x 64 tile of f32
//! accumulators fills 16 zmm registers, and each k step costs four panel
//! loads, four broadcasts and 16 `vfmadd231ps`.
//!
//! - **K-blocks and the flush.** K runs in blocks of at most `F32_KMAX`
//!   (1024) rows, split evenly: 1152 is two blocks of 576, not 1024 + 128.
//!   Each tile starts a block from zero and ends it by converting every
//!   partial to i32, exactly, and wrapping-adding it into `out`; no partial
//!   ever holds more than 1024 products. The conversion is an f64
//!   magic-number add, not `as i32`, which rustc lowers lane by lane and
//!   which cost the tile a third of its speed.
//! - **Packed panels.** Each K-block x 64-column panel of `b` is converted
//!   to f32 once, into one reused, cache-line aligned buffer of at most
//!   1024 x 64 x 4 B = 256 KiB, and serves every quad, BLIS-style. `a` is
//!   converted one K-block at a time (at most `m` x 1024 values). The
//!   im2col columns stay i8.
//! - **Dispatch.** [`gemm_i8_i32_into`] takes the f32 tile when `m ≥ 8`
//!   (`F32_MIN_M`), `k ≥ 12` (`F32_MIN_K`) and `n ≥ 64`, and the build
//!   has FMA. It covers the whole quads' whole 64-column panels; columns
//!   past `n / 64 * 64` and rows past `m / 4 * 4` stay on the i8 tiles. The
//!   constants come from a probe of `gemm_i8_i32_into` against the i8-only
//!   kernel on a 2-vCPU AVX-512 Xeon (f32 / i8 GMAC/s, three rounds): `m = 4`
//!   is one quad, which shares no panel, and ran 0.86–1.25x; `k ≤ 9` ran
//!   0.48–1.07x; every measured shape with `m ≥ 8` and `k ≥ 12` ran
//!   1.11–2.20x, among them all six of the medium fixture's batch-8 conv
//!   GEMMs (1.27x for the 32 x 16 x 2048 1x1 conv, 1.37x for the
//!   16 x 27 x 8192 stem, 1.6–2.2x for the rest). A 6 x 64 tile spilled its
//!   24 accumulators to the stack and ran at a third of the 4 x 64 tile's
//!   speed.

use crate::Mat;

/// Output-column panel width of the i8 microkernel. Four i8 `b`-panel rows
/// (4 x 768 B) plus one i32 output slab (3 KiB) fit comfortably in a 32 KiB
/// L1 alongside the streaming `a` row.
const COL_BLOCK: usize = 768;

/// Column width of the f32 tile: 64 f32 lanes, four zmm registers per row.
const F32_COLS: usize = 64;

/// Largest K-block of the f32 tile: a sum of at most 1024 i8·i8 products is
/// an integer of magnitude ≤ 2^24, which f32 holds exactly.
const F32_KMAX: usize = 1024;

/// Smallest output-row count `m` that takes the f32 tile: at least two
/// quads share each packed panel (see "f32 tile" in the module docs).
const F32_MIN_M: usize = 8;

/// Smallest reduction depth `k` that takes the f32 tile: below it the
/// per-block flush outweighs the FMAs it follows.
const F32_MIN_K: usize = 12;

/// `out += a * b` for f32 matrices.
///
/// The f32 kernel keeps the seed's straight loop order: float addition is
/// not associative, so re-blocking it would change results.
///
/// # Panics
///
/// Panics if the dimensions do not agree (`a: MxK`, `b: KxN`, `out: MxN`).
pub fn gemm_f32_acc(a: &Mat<f32>, b: &Mat<f32>, out: &mut Mat<f32>) {
    let (m, k, n) = check_dims(
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols(),
        out.rows(),
        out.cols(),
    );
    let bd = b.as_slice();
    for i in 0..m {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        for p in 0..k {
            let av = arow[p];
            if av == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// `a * b` for f32 matrices.
#[must_use]
pub fn gemm_f32(a: &Mat<f32>, b: &Mat<f32>) -> Mat<f32> {
    let mut out = Mat::zeros(a.rows(), b.cols());
    gemm_f32_acc(a, b, &mut out);
    out
}

/// `out = out (+) a * b` on raw row-major slices with wrapping i32
/// accumulation: `a` is `m x k`, `b` is `k x n`, `out` is `m x n`.
///
/// This is the workspace's int8 inference microkernel; the `Mat`-based
/// wrappers and the convolution path all funnel here.
///
/// # Panics
///
/// Panics if the slice lengths do not match the dimensions.
pub fn gemm_i8_i32_into(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a length does not match {m}x{k}");
    assert_eq!(b.len(), k * n, "b length does not match {k}x{n}");
    assert_eq!(out.len(), m * n, "out length does not match {m}x{n}");
    if k == 0 || n == 0 {
        return;
    }
    // 4-row register blocking: the four output rows of a quad share every
    // `b` panel load, quartering B-operand traffic. On deep shapes the f32
    // tile takes the quads' whole 64-column panels (see "f32 tile" above)
    // and the i8 tiles the columns from `j0` on. `neg` holds the current
    // quad's rows, negated (see "Pair products" above).
    let quads = m / 4;
    let j0 = if takes_f32_tile(m, k, n) {
        gemm_f32_panels(&a[..quads * 4 * k], b, &mut out[..quads * 4 * n], k, n);
        n / F32_COLS * F32_COLS
    } else {
        0
    };
    let mut neg = Vec::new();
    for q in 0..quads {
        let i = q * 4;
        gemm_quad_blocked(
            &a[i * k..(i + 4) * k],
            b,
            &mut out[i * n..(i + 4) * n],
            k,
            n,
            j0,
            &mut neg,
        );
    }
    for i in quads * 4..m {
        gemm_row_blocked(
            &a[i * k..(i + 1) * k],
            b,
            &mut out[i * n..(i + 1) * n],
            k,
            n,
        );
    }
}

/// Four output rows of the blocked microkernel over the columns from `j0`
/// on: `orow4 (+)= arow4 * b`, where `arow4` holds four consecutive rows of
/// `a` and `orow4` the four matching output rows. The rows are first
/// negated into `neg` as i16 (see the module docs), then columns are walked
/// in fixed-width register tiles (64-wide, then at most one 32- and one
/// 16-wide tile for the remainder, then a scalar tail): one tile is four
/// `[i32; T]` accumulators that live in vector registers across the whole
/// `k` loop, so every output element is loaded and stored exactly once per
/// GEMM, and each `b` element loaded serves four rows.
#[inline]
fn gemm_quad_blocked(
    arow4: &[i8],
    b: &[i8],
    orow4: &mut [i32],
    k: usize,
    n: usize,
    j0: usize,
    neg: &mut Vec<i16>,
) {
    if j0 == n {
        return;
    }
    neg.clear();
    neg.extend(arow4.iter().map(|&v| -i16::from(v)));
    let (x0, xrest) = neg.split_at(k);
    let (x1, xrest) = xrest.split_at(k);
    let (x2, x3) = xrest.split_at(k);
    let x4 = [x0, x1, x2, x3];
    let (o0, orest) = orow4.split_at_mut(n);
    let (o1, orest) = orest.split_at_mut(n);
    let (o2, o3) = orest.split_at_mut(n);
    let mut o4 = [o0, o1, o2, o3];
    let mut j = j0;
    while j + 64 <= n {
        gemm_quad_tile::<64>(&x4, b, &mut o4, k, n, j);
        j += 64;
    }
    if j + 32 <= n {
        gemm_quad_tile::<32>(&x4, b, &mut o4, k, n, j);
        j += 32;
    }
    if j + 16 <= n {
        gemm_quad_tile::<16>(&x4, b, &mut o4, k, n, j);
        j += 16;
    }
    // Column tail (n % 16): scalar, still four rows per b element.
    if j < n {
        let [o0, o1, o2, o3] = &mut o4;
        for p in 0..k {
            let v0 = i32::from(x0[p]);
            let v1 = i32::from(x1[p]);
            let v2 = i32::from(x2[p]);
            let v3 = i32::from(x3[p]);
            if v0 | v1 | v2 | v3 == 0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for t in j..n {
                let bv = i32::from(brow[t]);
                o0[t] = o0[t].wrapping_sub(v0.wrapping_mul(bv));
                o1[t] = o1[t].wrapping_sub(v1.wrapping_mul(bv));
                o2[t] = o2[t].wrapping_sub(v2.wrapping_mul(bv));
                o3[t] = o3[t].wrapping_sub(v3.wrapping_mul(bv));
            }
        }
    }
}

/// One 4 x `T` register tile of [`gemm_quad_blocked`] at column offset `j`,
/// in pair products (see the module docs).
///
/// `x4` holds the quad's `a` rows negated, `x = −a ∈ [−127, 128]`. For each
/// k-pair `(p, p + 1)` the tile forms, per row and column,
/// `s = x[p]·b[p] + x[p+1]·b[p+1]` in i16, sign-extends `s` and subtracts
/// it from the row's `[i32; T]` accumulator; an odd last k row runs in i32.
/// Each `x·b` lies in `[−16384, 16256]`, so `s ∈ [−32768, 32512]` never
/// wraps, and the i32 result is the naive wrapping sum for every input.
#[inline]
fn gemm_quad_tile<const T: usize>(
    x4: &[&[i16]; 4],
    b: &[i8],
    o4: &mut [&mut [i32]; 4],
    k: usize,
    n: usize,
    j: usize,
) {
    let mut c = [[0i32; T]; 4];
    for (c, o) in c.iter_mut().zip(o4.iter()) {
        c.copy_from_slice(&o[j..j + T]);
    }
    let [x0, x1, x2, x3] = *x4;
    let mut p = 0;
    while p + 2 <= k {
        let x = [x0[p], x1[p], x2[p], x3[p]];
        let y = [x0[p + 1], x1[p + 1], x2[p + 1], x3[p + 1]];
        let (b0, b1) = (&b[p * n + j..][..T], &b[(p + 1) * n + j..][..T]);
        let mut w0 = [0i16; T];
        let mut w1 = [0i16; T];
        for t in 0..T {
            w0[t] = i16::from(b0[t]);
            w1[t] = i16::from(b1[t]);
        }
        // Never wraps (range above); wrapping ops keep overflow checks out
        // of the vector loop in debug builds.
        let mut s = [[0i16; T]; 4];
        for t in 0..T {
            for r in 0..4 {
                s[r][t] = x[r]
                    .wrapping_mul(w0[t])
                    .wrapping_add(y[r].wrapping_mul(w1[t]));
            }
        }
        for t in 0..T {
            for r in 0..4 {
                c[r][t] = c[r][t].wrapping_sub(i32::from(s[r][t]));
            }
        }
        p += 2;
    }
    if p < k {
        let bs = &b[p * n + j..][..T];
        for (c, x) in c.iter_mut().zip(x4) {
            let v = i32::from(x[p]);
            for t in 0..T {
                c[t] = c[t].wrapping_sub(v.wrapping_mul(i32::from(bs[t])));
            }
        }
    }
    for (c, o) in c.iter().zip(o4.iter_mut()) {
        o[j..j + T].copy_from_slice(c);
    }
}

/// Whether [`gemm_i8_i32_into`] runs an `m x k x n` GEMM's quads on the f32
/// tile (see "f32 tile" in the module docs). Without the FMA target feature
/// `f32::mul_add` is a libm call, so such a build keeps the i8 tiles.
fn takes_f32_tile(m: usize, k: usize, n: usize) -> bool {
    cfg!(target_feature = "fma") && m >= F32_MIN_M && k >= F32_MIN_K && n >= F32_COLS
}

/// The f32 tile over every whole 64-column panel: `out[.., ..n / 64 * 64]
/// (+)= a * b`, where `a` holds whole row quads (`a.len() / k` rows, a
/// multiple of four). K runs in even blocks of at most `F32_KMAX` rows. Per
/// block, `x` holds `a`'s rows of the block in f32, and each 64-column
/// panel of `b` is packed to f32 once and serves every quad.
fn gemm_f32_panels(a: &[i8], b: &[i8], out: &mut [i32], k: usize, n: usize) {
    let blocks = k.div_ceil(F32_KMAX);
    let kb_max = k.div_ceil(blocks);
    let mut x = Vec::with_capacity(a.len() / k * kb_max);
    // The panel starts `off` floats into its buffer, on a cache-line
    // boundary: each of the tile's four zmm loads per k step then reads one
    // line, not two (unaligned, the deep shapes ran 20–35 % slower). The
    // buffer never grows past its capacity, so `off` holds for every panel.
    let mut panel = Vec::<f32>::with_capacity(kb_max * F32_COLS + 15);
    let off = panel.as_ptr().align_offset(64).min(15);
    let mut p0 = 0;
    for blk in 0..blocks {
        let kb = k / blocks + usize::from(blk < k % blocks);
        x.clear();
        for arow in a.chunks_exact(k) {
            x.extend(arow[p0..p0 + kb].iter().map(|&v| f32::from(v)));
        }
        for j in (0..n / F32_COLS).map(|c| c * F32_COLS) {
            panel.clear();
            panel.resize(off, 0.0);
            for p in p0..p0 + kb {
                panel.extend(b[p * n + j..][..F32_COLS].iter().map(|&v| f32::from(v)));
            }
            for (xq, oq) in x.chunks_exact(4 * kb).zip(out.chunks_exact_mut(4 * n)) {
                gemm_f32_tile(xq, &panel[off..], oq, n, j);
            }
        }
        p0 += kb;
    }
}

/// One 4 x 64 f32 tile: the quad's rows of one K-block (`xq`, four rows of
/// `kb` values) against the packed `kb x 64` `panel`, flushed into columns
/// `j..j + 64` of the quad's output rows `oq`. The accumulators stay in 16
/// zmm registers across the block; every partial is an integer of
/// magnitude ≤ 2^24, which [`exact_f32_to_i32`] converts exactly.
#[inline]
fn gemm_f32_tile(xq: &[f32], panel: &[f32], oq: &mut [i32], n: usize, j: usize) {
    let kb = panel.len() / F32_COLS;
    let [x0, x1, x2, x3] = [0, 1, 2, 3].map(|r| &xq[r * kb..][..kb]);
    let mut c = [[0f32; F32_COLS]; 4];
    let xs = x0.iter().zip(x1).zip(x2).zip(x3);
    for (bp, (((&v0, &v1), &v2), &v3)) in panel.chunks_exact(F32_COLS).zip(xs) {
        for (c, v) in c.iter_mut().zip([v0, v1, v2, v3]) {
            for (c, &bv) in c.iter_mut().zip(bp) {
                *c = v.mul_add(bv, *c);
            }
        }
    }
    for (r, c) in c.iter().enumerate() {
        let o = &mut oq[r * n + j..][..F32_COLS];
        for (o, &c) in o.iter_mut().zip(c) {
            *o = o.wrapping_add(exact_f32_to_i32(c));
        }
    }
}

/// An integer-valued `f32` of magnitude below 2^51 as `i32`, exactly.
///
/// `v as i32` gives the same value, but rustc lowers that saturating cast
/// one lane at a time (`vcvttss2si` plus two fix-ups), which cost the f32
/// tile a third of its speed; this form vectorizes. Adding 1.5·2^52 puts
/// `v` in `[2^52, 2^53)`, where f64 steps by exactly 1, so the sum is exact
/// and its low 32 mantissa bits hold `v + 2^51`, which is `v` mod 2^32.
#[inline]
fn exact_f32_to_i32(v: f32) -> i32 {
    const MAGIC: f64 = 6_755_399_441_055_744.0;
    (f64::from(v) + MAGIC).to_bits() as i32
}

/// One output row of the blocked microkernel: `orow (+)= arow * b`.
#[inline]
fn gemm_row_blocked(arow: &[i8], b: &[i8], orow: &mut [i32], k: usize, n: usize) {
    let mut j0 = 0;
    while j0 < n {
        let jn = (j0 + COL_BLOCK).min(n);
        let mut p = 0;
        // Main loop: four fused k-steps per pass over the output panel.
        while p + 4 <= k {
            let a0 = arow[p] as i32;
            let a1 = arow[p + 1] as i32;
            let a2 = arow[p + 2] as i32;
            let a3 = arow[p + 3] as i32;
            if a0 | a1 | a2 | a3 != 0 {
                let b0 = &b[p * n + j0..p * n + jn];
                let b1 = &b[(p + 1) * n + j0..(p + 1) * n + jn];
                let b2 = &b[(p + 2) * n + j0..(p + 2) * n + jn];
                let b3 = &b[(p + 3) * n + j0..(p + 3) * n + jn];
                let o = &mut orow[j0..jn];
                for ((((o, &v0), &v1), &v2), &v3) in o.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                    // Wrapping adds in ascending-p order: bit-identical to
                    // the naive accumulation order within this panel.
                    let s = o
                        .wrapping_add(a0.wrapping_mul(v0 as i32))
                        .wrapping_add(a1.wrapping_mul(v1 as i32))
                        .wrapping_add(a2.wrapping_mul(v2 as i32))
                        .wrapping_add(a3.wrapping_mul(v3 as i32));
                    *o = s;
                }
            }
            p += 4;
        }
        // k tail.
        while p < k {
            let av = arow[p] as i32;
            if av != 0 {
                let brow = &b[p * n + j0..p * n + jn];
                let o = &mut orow[j0..jn];
                for (o, &bv) in o.iter_mut().zip(brow) {
                    *o = o.wrapping_add(av * bv as i32);
                }
            }
            p += 1;
        }
        j0 = jn;
    }
}

/// `out = out (+) a * b` for int8 inputs with wrapping i32 accumulation.
///
/// # Panics
///
/// Panics if the dimensions do not agree.
pub fn gemm_i8_i32_acc(a: &Mat<i8>, b: &Mat<i8>, out: &mut Mat<i32>) {
    let (m, k, n) = check_dims(
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols(),
        out.rows(),
        out.cols(),
    );
    gemm_i8_i32_into(a.as_slice(), b.as_slice(), out.as_mut_slice(), m, k, n);
}

/// `a * b` for int8 inputs, producing wrapping i32 accumulators.
#[must_use]
pub fn gemm_i8_i32(a: &Mat<i8>, b: &Mat<i8>) -> Mat<i32> {
    let mut out = Mat::zeros(a.rows(), b.cols());
    gemm_i8_i32_acc(a, b, &mut out);
    out
}

/// Multi-threaded variant of [`gemm_i8_i32`]: rows of `a` are sharded over
/// at most `threads` OS threads (std scoped threads). With `threads <= 1`
/// this is the single-threaded kernel.
///
/// `threads` is clamped to the row count, so degenerate requests
/// (`threads > m`, or `m == 0`) never spawn idle workers or build
/// zero-sized row chunks.
///
/// # Panics
///
/// Panics if the dimensions do not agree.
#[must_use]
pub fn gemm_i8_i32_threaded(a: &Mat<i8>, b: &Mat<i8>, threads: usize) -> Mat<i32> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimensions disagree: {} vs {}",
        a.cols(),
        b.rows()
    );
    let mut out: Mat<i32> = Mat::zeros(a.rows(), b.cols());
    gemm_i8_i32_threaded_into(
        a.as_slice(),
        b.as_slice(),
        out.as_mut_slice(),
        a.rows(),
        a.cols(),
        b.cols(),
        threads,
    );
    out
}

/// Raw-slice variant of [`gemm_i8_i32_threaded`] accumulating into `out`.
///
/// # Panics
///
/// Panics if the slice lengths do not match the dimensions.
pub fn gemm_i8_i32_threaded_into(
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    // Clamp the shard count: more workers than rows would make
    // `rows_per * n` either zero (chunks_mut panics) or leave threads
    // with no rows. One row per worker is the finest useful split, and
    // empty operands (m == 0 or n == 0) never reach the sharded path.
    let threads = threads.min(m);
    if threads <= 1 || m < 2 || n == 0 {
        gemm_i8_i32_into(a, b, out, m, k, n);
        return;
    }
    assert_eq!(a.len(), m * k, "a length does not match {m}x{k}");
    assert_eq!(b.len(), k * n, "b length does not match {k}x{n}");
    assert_eq!(out.len(), m * n, "out length does not match {m}x{n}");
    let rows_per = m.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, chunk) in out.chunks_mut(rows_per * n).enumerate() {
            let row0 = t * rows_per;
            scope.spawn(move || {
                let rows_here = chunk.len() / n;
                let a_rows = &a[row0 * k..(row0 + rows_here) * k];
                gemm_i8_i32_into(a_rows, b, chunk, rows_here, k, n);
            });
        }
    });
}

fn check_dims(
    am: usize,
    ak: usize,
    bk: usize,
    bn: usize,
    om: usize,
    on: usize,
) -> (usize, usize, usize) {
    assert_eq!(ak, bk, "inner dimensions disagree: {ak} vs {bk}");
    assert_eq!(am, om, "output rows disagree: {am} vs {om}");
    assert_eq!(bn, on, "output cols disagree: {bn} vs {on}");
    (am, ak, bn)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_i32(a: &Mat<i8>, b: &Mat<i8>) -> Mat<i32> {
        let mut out = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0i32;
                for p in 0..a.cols() {
                    acc = acc.wrapping_add(a.at(i, p) as i32 * b.at(p, j) as i32);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn small_known_product() {
        let a = Mat::from_vec(2, 2, vec![1i8, 2, 3, 4]);
        let b = Mat::from_vec(2, 2, vec![5i8, 6, 7, 8]);
        let c = gemm_i8_i32(&a, &b);
        assert_eq!(c.as_slice(), &[19, 22, 43, 50]);
    }

    #[test]
    fn matches_naive_reference() {
        let a = Mat::from_vec(3, 4, (0..12).map(|v| (v as i8).wrapping_mul(7)).collect());
        let b = Mat::from_vec(4, 5, (0..20).map(|v| (v as i8).wrapping_sub(9)).collect());
        assert_eq!(gemm_i8_i32(&a, &b).as_slice(), naive_i32(&a, &b).as_slice());
    }

    #[test]
    fn blocked_kernel_matches_naive_across_shapes() {
        // Exercise the k-tail (k % 4 != 0), the column-panel boundary
        // (n > COL_BLOCK) and saturating products.
        let mut shapes = vec![(1, 1, 1), (3, 7, 5), (5, 9, 900), (2, 4, 769), (8, 6, 768)];
        // Every 64/32/16-wide column tile boundary and the scalar tail, for
        // whole quads, leftover rows and both together, including k == 0.
        let ns = [15, 16, 17, 31, 32, 33, 63, 64, 65, 96, 112, 127, 128, 129];
        for m in [1, 3, 4, 5, 8, 9] {
            for k in [0, 1, 7, 144] {
                shapes.extend(ns.iter().map(|&n| (m, k, n)));
            }
        }
        for (m, k, n) in shapes {
            let a = Mat::from_vec(m, k, (0..m * k).map(|v| (v * 37 % 251) as i8).collect());
            let b = Mat::from_vec(k, n, (0..k * n).map(|v| (v * 91 % 253) as i8).collect());
            assert_eq!(
                gemm_i8_i32(&a, &b).as_slice(),
                naive_i32(&a, &b).as_slice(),
                "shape {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn wrapping_overflow_matches_naive() {
        // All -128 * -128 products: k large enough to overflow i32 is not
        // reachable with these sizes, but wrapping is still exercised via
        // accumulation into pre-wrapped outputs near i32::MAX — at each
        // tile width (64, 32, 16, scalar tail) and their sum, for a quad
        // plus a leftover row, and for a lone row.
        let k = 8;
        for (m, n) in [
            (5, 64),
            (5, 32),
            (5, 16),
            (5, 5),
            (5, 64 + 32 + 16 + 5),
            (1, 3),
        ] {
            let a = Mat::from_vec(m, k, vec![-128i8; m * k]);
            let b = Mat::from_vec(k, n, vec![-128i8; k * n]);
            let init: Vec<i32> = (0..m * n).map(|v| i32::MAX - v as i32).collect();
            let mut out = Mat::from_vec(m, n, init.clone());
            gemm_i8_i32_acc(&a, &b, &mut out);
            let want: Vec<i32> = init
                .iter()
                .map(|v| v.wrapping_add(k as i32 * 128 * 128))
                .collect();
            assert_eq!(out.as_slice(), want.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn pair_sums_are_exact_over_the_i8_range() {
        // Every first pair (a0, b0) in i8 x i8 against each extreme or
        // trivial second pair (a1, b1), at each tile width. Quad q tests
        // a0 = q - 128 in row q % 4, so every tile row sees every value; the
        // quad's other rows hold `others`, once free of -128 and once with a
        // -128 in them: no row's result may depend on what shares its quad.
        const SECOND: [(i8, i8); 6] = [
            (-128, -128),
            (-128, 127),
            (127, -128),
            (127, 127),
            (0, 0),
            (1, -1),
        ];
        let all: Vec<i8> = (i8::MIN..=i8::MAX).collect();
        let m = 4 * all.len();
        for others in [[[127, -127]; 3], [[-128, -128], [127, -127], [127, -127]]] {
            for (a1, b1) in SECOND {
                let mut a = Vec::with_capacity(2 * m);
                for (q, &a0) in all.iter().enumerate() {
                    let mut quad = others.to_vec();
                    quad.insert(q % 4, [a0, a1]);
                    a.extend(quad.concat());
                }
                let a = Mat::from_vec(m, 2, a);
                for width in [64, 32, 16] {
                    for b0 in all.chunks(width) {
                        let b = Mat::from_vec(2, width, [b0, &vec![b1; width]].concat());
                        let mut got = vec![0i32; m * width];
                        gemm_i8_i32_into(a.as_slice(), b.as_slice(), &mut got, m, 2, width);
                        assert_eq!(
                            got,
                            naive_i32(&a, &b).as_slice(),
                            "second pair ({a1}, {b1}), width {width}, others {others:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn f32_tile_is_exact_across_k_blocks() {
        // Rows x columns on the f32 tile: all -128, and -128 against 127,
        // plus an adversarial column. Row 2 against column 2 is 1024
        // products of (-128)·(-128), then +1 (row 3: -1), then zeros: a
        // partial of 2^24 + 1 rounds in f32, so a K-block over 1024 rows or
        // an accumulator carried across blocks fails here. Every partial
        // of all -128 is a multiple of 16384, which f32 holds exactly far
        // past 2^24, so all -128 alone could not catch either. Row 8 and
        // the 3 columns past 64 run on the i8 tiles.
        let (m, n) = (9, 67);
        for k in [1023, 1024, 1025, 2048] {
            assert_eq!(takes_f32_tile(m, k, n), cfg!(target_feature = "fma"));
            let a = Mat::from_vec(
                m,
                k,
                (0..m * k)
                    .map(|v| match (v / k, v % k) {
                        (1, _) => 127,
                        (2, 1024) => 1,
                        (3, 1024) => -1,
                        (4..=7, p) if p % 2 == 1 => 127,
                        _ => -128,
                    })
                    .collect(),
            );
            let b = Mat::from_vec(
                k,
                n,
                (0..k * n)
                    .map(|v| match (v / n, v % n) {
                        (_, 1) => 127,
                        (1024, 2) => 1,
                        (p, 2) if p > 1024 => 0,
                        (p, c) if c > 2 && (p + c) % 3 == 0 => 127,
                        _ => -128,
                    })
                    .collect(),
            );
            let init: Vec<i32> = (0..m * n).map(|v| i32::MAX - v as i32).collect();
            let mut got = Mat::from_vec(m, n, init.clone());
            gemm_i8_i32_acc(&a, &b, &mut got);
            let want: Vec<i32> = init
                .iter()
                .zip(naive_i32(&a, &b).as_slice())
                .map(|(i, s)| i.wrapping_add(*s))
                .collect();
            assert_eq!(got.as_slice(), want.as_slice(), "k {k}");
        }
    }

    #[test]
    fn threaded_matches_single() {
        let a = Mat::from_vec(7, 9, (0..63).map(|v| (v * 3 % 251) as i8).collect());
        let b = Mat::from_vec(9, 5, (0..45).map(|v| (v * 5 % 251) as i8).collect());
        let single = gemm_i8_i32(&a, &b);
        for threads in [1, 2, 3, 4, 8, 16] {
            assert_eq!(
                gemm_i8_i32_threaded(&a, &b, threads).as_slice(),
                single.as_slice(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn threaded_more_threads_than_rows() {
        // Regression: threads > m used to rely on div_ceil keeping
        // rows_per >= 1 by accident; the clamp makes it explicit.
        let a = Mat::from_vec(2, 3, vec![1i8, 2, 3, 4, 5, 6]);
        let b = Mat::from_vec(3, 4, (0..12).map(|v| v as i8).collect());
        let single = gemm_i8_i32(&a, &b);
        for threads in [3, 7, 64, 1000] {
            assert_eq!(
                gemm_i8_i32_threaded(&a, &b, threads).as_slice(),
                single.as_slice(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn threaded_zero_rows() {
        // Regression: m == 0 must not panic in chunks_mut(0).
        let a = Mat::<i8>::zeros(0, 5);
        let b = Mat::<i8>::zeros(5, 4);
        for threads in [1, 2, 8] {
            let out = gemm_i8_i32_threaded(&a, &b, threads);
            assert_eq!((out.rows(), out.cols()), (0, 4), "threads={threads}");
            assert!(out.as_slice().is_empty());
        }
    }

    #[test]
    fn threaded_zero_cols() {
        // Regression: n == 0 must not reach the sharded path either — the
        // m clamp alone still left chunks_mut(rows_per * 0).
        let a = Mat::from_vec(4, 3, (0..12).map(|v| v as i8).collect());
        let b = Mat::<i8>::zeros(3, 0);
        for threads in [1, 2, 8] {
            let out = gemm_i8_i32_threaded(&a, &b, threads);
            assert_eq!((out.rows(), out.cols()), (4, 0), "threads={threads}");
            assert!(out.as_slice().is_empty());
        }
    }

    #[test]
    fn f32_identity() {
        let a = Mat::from_vec(2, 2, vec![1.0f32, 0.0, 0.0, 1.0]);
        let b = Mat::from_vec(2, 3, vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(gemm_f32(&a, &b).as_slice(), b.as_slice());
    }

    #[test]
    fn f32_accumulates() {
        let a = Mat::from_vec(1, 1, vec![2.0f32]);
        let b = Mat::from_vec(1, 1, vec![3.0f32]);
        let mut out = Mat::from_vec(1, 1, vec![10.0f32]);
        gemm_f32_acc(&a, &b, &mut out);
        assert_eq!(out.at(0, 0), 16.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Mat::<i8>::zeros(2, 3);
        let b = Mat::<i8>::zeros(2, 3);
        let _ = gemm_i8_i32(&a, &b);
    }
}
