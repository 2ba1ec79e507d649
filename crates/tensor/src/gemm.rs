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
//! registers and leaves the rest for the broadcast `a` values and the `b`
//! row. Leftover rows (`m % 4`) fall back to a single-row kernel that walks
//! `COL_BLOCK`-wide panels with four fused `k`-steps.

use crate::Mat;

/// Output-column panel width of the i8 microkernel. Four i8 `b`-panel rows
/// (4 x 768 B) plus one i32 output slab (3 KiB) fit comfortably in a 32 KiB
/// L1 alongside the streaming `a` row.
const COL_BLOCK: usize = 768;

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
    // `b` panel load, quartering B-operand traffic.
    let quads = m / 4;
    for q in 0..quads {
        let i = q * 4;
        gemm_quad_blocked(
            &a[i * k..(i + 4) * k],
            b,
            &mut out[i * n..(i + 4) * n],
            k,
            n,
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

/// Four output rows of the blocked microkernel: `orow4 (+)= arow4 * b`,
/// where `arow4` holds four consecutive rows of `a` and `orow4` the four
/// matching output rows. Columns are walked in fixed-width register tiles
/// (64-wide, then at most one 32- and one 16-wide tile for the remainder,
/// then a scalar tail): one tile is four `[i32; T]` accumulators that live
/// in vector registers across the whole `k` loop, so every output element
/// is loaded and stored exactly once per GEMM, and each `b` element loaded
/// serves four rows.
#[inline]
fn gemm_quad_blocked(arow4: &[i8], b: &[i8], orow4: &mut [i32], k: usize, n: usize) {
    let (a0, arest) = arow4.split_at(k);
    let (a1, arest) = arest.split_at(k);
    let (a2, a3) = arest.split_at(k);
    let a4 = [a0, a1, a2, a3];
    let (o0, orest) = orow4.split_at_mut(n);
    let (o1, orest) = orest.split_at_mut(n);
    let (o2, o3) = orest.split_at_mut(n);
    let mut o4 = [o0, o1, o2, o3];
    let mut j = 0;
    while j + 64 <= n {
        gemm_quad_tile::<64>(&a4, b, &mut o4, k, n, j);
        j += 64;
    }
    if j + 32 <= n {
        gemm_quad_tile::<32>(&a4, b, &mut o4, k, n, j);
        j += 32;
    }
    if j + 16 <= n {
        gemm_quad_tile::<16>(&a4, b, &mut o4, k, n, j);
        j += 16;
    }
    // Column tail (n % 16): scalar, still four rows per b element.
    if j < n {
        let [o0, o1, o2, o3] = &mut o4;
        for p in 0..k {
            let v0 = a0[p] as i32;
            let v1 = a1[p] as i32;
            let v2 = a2[p] as i32;
            let v3 = a3[p] as i32;
            if v0 | v1 | v2 | v3 == 0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for t in j..n {
                let bv = brow[t] as i32;
                o0[t] = o0[t].wrapping_add(v0.wrapping_mul(bv));
                o1[t] = o1[t].wrapping_add(v1.wrapping_mul(bv));
                o2[t] = o2[t].wrapping_add(v2.wrapping_mul(bv));
                o3[t] = o3[t].wrapping_add(v3.wrapping_mul(bv));
            }
        }
    }
}

/// One 4 x `T` register tile of [`gemm_quad_blocked`] at column offset `j`.
#[inline]
fn gemm_quad_tile<const T: usize>(
    a4: &[&[i8]; 4],
    b: &[i8],
    o4: &mut [&mut [i32]; 4],
    k: usize,
    n: usize,
    j: usize,
) {
    let [a0, a1, a2, a3] = *a4;
    let mut c0 = [0i32; T];
    let mut c1 = [0i32; T];
    let mut c2 = [0i32; T];
    let mut c3 = [0i32; T];
    c0.copy_from_slice(&o4[0][j..j + T]);
    c1.copy_from_slice(&o4[1][j..j + T]);
    c2.copy_from_slice(&o4[2][j..j + T]);
    c3.copy_from_slice(&o4[3][j..j + T]);
    for p in 0..k {
        let v0 = a0[p] as i32;
        let v1 = a1[p] as i32;
        let v2 = a2[p] as i32;
        let v3 = a3[p] as i32;
        if v0 | v1 | v2 | v3 == 0 {
            continue;
        }
        let bs = &b[p * n + j..p * n + j + T];
        for t in 0..T {
            let bv = bs[t] as i32;
            c0[t] = c0[t].wrapping_add(v0.wrapping_mul(bv));
            c1[t] = c1[t].wrapping_add(v1.wrapping_mul(bv));
            c2[t] = c2[t].wrapping_add(v2.wrapping_mul(bv));
            c3[t] = c3[t].wrapping_add(v3.wrapping_mul(bv));
        }
    }
    o4[0][j..j + T].copy_from_slice(&c0);
    o4[1][j..j + T].copy_from_slice(&c1);
    o4[2][j..j + T].copy_from_slice(&c2);
    o4[3][j..j + T].copy_from_slice(&c3);
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
