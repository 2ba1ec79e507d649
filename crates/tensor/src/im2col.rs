//! im2col / col2im lowering of convolution to matrix multiplication.
//!
//! The column matrix has one row per `(c, r, s)` weight tap and one column
//! per output pixel `(oy, ox)`; padded taps read as zero. Multiplying the
//! `K x (C*R*S)` weight matrix by the column matrix yields the `K x (OH*OW)`
//! output feature map — the same schedule the accelerator's MAC array walks,
//! which is what makes the fast fault-correction path algebraically exact.
//!
//! [`im2col_batched_into`] lowers a batch-innermost `[C][H][W][B]`
//! mini-batch in one call, columns in `(oy, ox, b)` order, so the GEMM
//! output is again `[K][OH][OW][B]` and every copy is `B` times longer.

use crate::{ConvGeom, Mat, Shape4};

/// Builds the column matrix for one batch item of `input`.
///
/// `image` must be the CHW slice of a single batch item whose shape matches
/// `geom.input` (with any `n`).
///
/// # Panics
///
/// Panics if `image.len() != geom.input.image_len()`.
///
/// # Examples
///
/// ```
/// use nvfi_tensor::{im2col, ConvGeom, Shape4, Tensor};
/// let geom = ConvGeom::new(Shape4::new(1, 1, 2, 2), 1, 2, 2, 1, 0);
/// let img = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1i8, 2, 3, 4]);
/// let cols = im2col::im2col(img.image(0), &geom);
/// assert_eq!((cols.rows(), cols.cols()), (4, 1));
/// assert_eq!(cols.as_slice(), &[1, 2, 3, 4]);
/// ```
#[must_use]
pub fn im2col<T: Copy + Default>(image: &[T], geom: &ConvGeom) -> Mat<T> {
    let mut out = Mat::zeros(geom.input.c * geom.r * geom.s, geom.oh * geom.ow);
    im2col_into(image, geom, out.as_mut_slice());
    out
}

/// Buffer-reusing [`im2col`]: fills `out` (length
/// `C*R*S * OH*OW`, row-major) with the column matrix, zeroing it first so
/// padded taps read as zero. This is what lets the steady-state inference
/// path run without per-op allocation — callers keep one scratch buffer
/// sized to the largest convolution of the plan. It is
/// [`im2col_batched_into`] with a batch of one.
///
/// # Panics
///
/// Panics if `image` or `out` have the wrong length for `geom`.
pub fn im2col_into<T: Copy + Default>(image: &[T], geom: &ConvGeom, out: &mut [T]) {
    im2col_batched_into(image, geom, 1, out);
}

/// Batched [`im2col_into`]: lowers `batch` images held batch-innermost,
/// `input[((c * H + y) * W + x) * batch + b]`, into the
/// `C*R*S x (OH*OW*batch)` column matrix whose column
/// `(oy * OW + ox) * batch + b` is image `b`'s output pixel `(oy, ox)`.
/// `out` is zeroed first, so padded taps read as zero. A stride-1 tap copies
/// runs of `OW * batch` elements, a strided one `batch` elements per pixel.
///
/// # Panics
///
/// Panics if `batch == 0`, or if `input` or `out` have the wrong length for
/// `geom` and `batch`.
pub fn im2col_batched_into<T: Copy + Default>(
    input: &[T],
    geom: &ConvGeom,
    batch: usize,
    out: &mut [T],
) {
    // A literal 1 lets the one-image body copy single elements instead of
    // one-element slices.
    if batch == 1 {
        im2col_body(input, geom, 1, out);
    } else {
        im2col_body(input, geom, batch, out);
    }
}

#[inline(always)]
fn im2col_body<T: Copy + Default>(input: &[T], geom: &ConvGeom, b: usize, out: &mut [T]) {
    let Shape4 { c: ci, h, w, .. } = geom.input;
    assert!(b > 0, "empty batch");
    assert_eq!(
        input.len(),
        geom.input.image_len() * b,
        "input does not match {b} image(s) of {}",
        geom.input
    );
    let (rows, cols, ow) = (ci * geom.r * geom.s, geom.oh * geom.ow * b, geom.ow);
    assert_eq!(out.len(), rows * cols, "column buffer mismatch for {geom}");
    out.fill(T::default());
    for c in 0..ci {
        for r in 0..geom.r {
            for s in 0..geom.s {
                let row_idx = (c * geom.r + r) * geom.s + s;
                let row = &mut out[row_idx * cols..(row_idx + 1) * cols];
                for oy in 0..geom.oh {
                    let iy = (oy * geom.stride + r) as isize - geom.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue; // whole row of taps falls in padding
                    }
                    let iy = iy as usize;
                    let src_row = &input[(c * h + iy) * w * b..(c * h + iy + 1) * w * b];
                    let dst_row = &mut row[oy * ow * b..(oy + 1) * ow * b];
                    if geom.stride == 1 {
                        // Contiguous run: the in-bounds ox span maps to a
                        // contiguous input span shifted by (s - pad).
                        let shift = s as isize - geom.pad as isize;
                        let ox_lo = (-shift).max(0) as usize;
                        let ox_hi = ((w as isize - shift).min(ow as isize)).max(0) as usize;
                        if ox_lo < ox_hi {
                            let src_lo = (ox_lo as isize + shift) as usize;
                            dst_row[ox_lo * b..ox_hi * b].copy_from_slice(
                                &src_row[src_lo * b..(src_lo + ox_hi - ox_lo) * b],
                            );
                        }
                    } else {
                        for (ox, dst) in dst_row.chunks_exact_mut(b).enumerate() {
                            let ix = (ox * geom.stride + s) as isize - geom.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let ix = ix as usize;
                            dst.copy_from_slice(&src_row[ix * b..(ix + 1) * b]);
                        }
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-adds a column-matrix gradient back onto an
/// image gradient buffer. Used by the convolution backward pass.
///
/// # Panics
///
/// Panics if the matrix or buffer dimensions do not match `geom`.
pub fn col2im_acc_f32(cols_grad: &Mat<f32>, geom: &ConvGeom, image_grad: &mut [f32]) {
    let Shape4 { c: ci, h, w, .. } = geom.input;
    assert_eq!(image_grad.len(), geom.input.image_len());
    assert_eq!(cols_grad.rows(), ci * geom.r * geom.s);
    assert_eq!(cols_grad.cols(), geom.oh * geom.ow);
    for c in 0..ci {
        for r in 0..geom.r {
            for s in 0..geom.s {
                let row_idx = (c * geom.r + r) * geom.s + s;
                let row = cols_grad.row(row_idx);
                for oy in 0..geom.oh {
                    let iy = (oy * geom.stride + r) as isize - geom.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..geom.ow {
                        let ix = (ox * geom.stride + s) as isize - geom.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        image_grad[(c * h + iy) * w + ix as usize] += row[oy * geom.ow + ox];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn identity_1x1_kernel() {
        let geom = ConvGeom::new(Shape4::new(1, 2, 2, 2), 1, 1, 1, 1, 0);
        let img = Tensor::from_vec(Shape4::new(1, 2, 2, 2), (0..8i8).collect());
        let cols = im2col(img.image(0), &geom);
        assert_eq!((cols.rows(), cols.cols()), (2, 4));
        assert_eq!(cols.as_slice(), img.as_slice());
    }

    #[test]
    fn padding_reads_zero() {
        let geom = ConvGeom::new(Shape4::new(1, 1, 1, 1), 1, 3, 3, 1, 1);
        let img = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![5i8]);
        let cols = im2col(img.image(0), &geom);
        assert_eq!((cols.rows(), cols.cols()), (9, 1));
        // Only the center tap reads the pixel; all others are padding.
        let expected: Vec<i8> = (0..9).map(|i| if i == 4 { 5 } else { 0 }).collect();
        assert_eq!(cols.as_slice(), expected.as_slice());
    }

    #[test]
    fn stride_two_samples_every_other_pixel() {
        let geom = ConvGeom::new(Shape4::new(1, 1, 4, 4), 1, 1, 1, 2, 0);
        let img = Tensor::from_fn(Shape4::new(1, 1, 4, 4), |_, _, h, w| (h * 4 + w) as i8);
        let cols = im2col(img.image(0), &geom);
        assert_eq!(cols.as_slice(), &[0, 2, 8, 10]);
    }

    /// The column matrix by definition, one image at a time: row `(c, r, s)`,
    /// column `(oy, ox)` reads pixel `(oy*stride + r - pad, ox*stride + s -
    /// pad)`, zero in the padding.
    fn naive_im2col(image: &[i32], g: &ConvGeom) -> Vec<i32> {
        let Shape4 { c: ci, h, w, .. } = g.input;
        let mut out = Vec::new();
        for c in 0..ci {
            for r in 0..g.r {
                for s in 0..g.s {
                    for oy in 0..g.oh {
                        for ox in 0..g.ow {
                            let iy = (oy * g.stride + r).checked_sub(g.pad).filter(|&y| y < h);
                            let ix = (ox * g.stride + s).checked_sub(g.pad).filter(|&x| x < w);
                            out.push(match (iy, ix) {
                                (Some(y), Some(x)) => image[(c * h + y) * w + x],
                                _ => 0,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Checks one geometry and batch size: see
    /// `batched_columns_permute_per_image_columns`.
    fn check_batched(g: &ConvGeom, batch: usize) {
        let (len, rows, pix) = (g.input.image_len(), g.input.c * g.r * g.s, g.oh * g.ow);
        // Distinct non-zero values, so a misplaced or missing copy cannot
        // pass for padding or for another pixel.
        let image =
            |b: usize| -> Vec<i32> { (0..len).map(|i| (1 + i + 1000 * b) as i32).collect() };
        let mut input = vec![0; len * batch];
        for b in 0..batch {
            for (i, v) in image(b).into_iter().enumerate() {
                input[i * batch + b] = v;
            }
        }
        let mut got = vec![-1; rows * pix * batch];
        im2col_batched_into(&input, g, batch, &mut got);
        for b in 0..batch {
            let want = naive_im2col(&image(b), g);
            for row in 0..rows {
                for px in 0..pix {
                    assert_eq!(
                        got[(row * pix + px) * batch + b],
                        want[row * pix + px],
                        "{g} batch {batch}: image {b} row {row} pixel {px}"
                    );
                }
            }
        }
        if batch == 1 {
            let mut one = vec![-1; rows * pix];
            im2col_into(&input, g, &mut one);
            assert_eq!(one, got, "{g}");
        }
    }

    /// Exhaustive layout proof over small geometries: the batched kernel's
    /// columns are the `(b, oy, ox) -> (oy, ox, b)` permutation of each
    /// image's own column matrix, every stale element of `out` is
    /// overwritten, and at one image it is element for element
    /// [`im2col_into`].
    #[test]
    fn batched_columns_permute_per_image_columns() {
        let mut cases = 0;
        for c in 1..=3 {
            for (h, w) in (1..=5).flat_map(|h| (1..=5).map(move |w| (h, w))) {
                for (r, s) in [(1, 1), (1, 3), (3, 1), (3, 3)] {
                    for (stride, pad) in [(1, 0), (1, 1), (2, 0), (2, 1)] {
                        if h + 2 * pad < r || w + 2 * pad < s {
                            continue;
                        }
                        let g = ConvGeom::new(Shape4::new(1, c, h, w), 1, r, s, stride, pad);
                        for batch in [1, 2, 3, 8] {
                            check_batched(&g, batch);
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases > 2000, "only {cases} cases");
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — checked on a dense
        // basis by transposing the implied linear operator.
        let geom = ConvGeom::new(Shape4::new(1, 2, 3, 3), 1, 2, 2, 1, 1);
        let in_len = geom.input.image_len();
        let cols_len = geom.input.c * geom.r * geom.s * geom.oh * geom.ow;
        // Operator matrix from im2col applied to basis vectors.
        let mut op = vec![vec![0f32; in_len]; cols_len];
        for i in 0..in_len {
            let mut x = vec![0f32; in_len];
            x[i] = 1.0;
            let cols = im2col(&x, &geom);
            for (j, &v) in cols.as_slice().iter().enumerate() {
                op[j][i] = v;
            }
        }
        // col2im applied to basis vectors must give the transpose.
        #[allow(clippy::needless_range_loop)]
        for j in 0..cols_len {
            let mut g = Mat::zeros(geom.input.c * geom.r * geom.s, geom.oh * geom.ow);
            g.as_mut_slice()[j] = 1.0;
            let mut back = vec![0f32; in_len];
            col2im_acc_f32(&g, &geom, &mut back);
            for i in 0..in_len {
                assert_eq!(back[i], op[j][i], "adjoint mismatch at ({j},{i})");
            }
        }
    }
}
