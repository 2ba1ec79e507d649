//! 2-D convolution: naive reference implementations and the im2col + GEMM
//! fast path. The two are property-tested against each other; the naive
//! versions are the semantic ground truth for the whole workspace.

use crate::{gemm, im2col, ConvGeom, MatRef, Tensor};

/// Reinterprets a `(K, C, R, S)` weight tensor as the `K x (C*R*S)` GEMM
/// operand. This is a **zero-copy** view: the dense row-major NCHW buffer
/// already is the row-major `K x (C*R*S)` matrix, so no bytes move.
#[must_use]
pub fn weights_as_mat<'a, T: Copy + Default>(
    weights: &'a Tensor<T>,
    geom: &ConvGeom,
) -> MatRef<'a, T> {
    let ws = weights.shape();
    assert_eq!(
        (ws.n, ws.c, ws.h, ws.w),
        (geom.k, geom.input.c, geom.r, geom.s),
        "weight shape {ws} does not match {geom}"
    );
    MatRef::from_slice(geom.k, geom.input.c * geom.r * geom.s, weights.as_slice())
}

/// Naive direct f32 convolution (reference).
///
/// # Panics
///
/// Panics if `input` or `weights` disagree with `geom`.
#[must_use]
pub fn conv2d_f32_naive(
    input: &Tensor<f32>,
    weights: &Tensor<f32>,
    geom: &ConvGeom,
) -> Tensor<f32> {
    assert_eq!(
        input.shape().with_n(geom.input.n),
        geom.input,
        "input mismatch"
    );
    let ws = weights.shape();
    assert_eq!(
        (ws.n, ws.c, ws.h, ws.w),
        (geom.k, geom.input.c, geom.r, geom.s)
    );
    let out_shape = geom.out_shape().with_n(input.shape().n);
    let mut out = Tensor::zeros(out_shape);
    for n in 0..input.shape().n {
        for k in 0..geom.k {
            for oy in 0..geom.oh {
                for ox in 0..geom.ow {
                    let mut acc = 0f32;
                    for c in 0..geom.input.c {
                        for r in 0..geom.r {
                            for s in 0..geom.s {
                                let iy = (oy * geom.stride + r) as isize - geom.pad as isize;
                                let ix = (ox * geom.stride + s) as isize - geom.pad as isize;
                                if iy < 0
                                    || ix < 0
                                    || iy >= geom.input.h as isize
                                    || ix >= geom.input.w as isize
                                {
                                    continue;
                                }
                                acc += input.at(n, c, iy as usize, ix as usize)
                                    * weights.at(k, c, r, s);
                            }
                        }
                    }
                    out.set(n, k, oy, ox, acc);
                }
            }
        }
    }
    out
}

/// Naive direct int8 convolution with wrapping i32 accumulation (reference).
///
/// # Panics
///
/// Panics if `input` or `weights` disagree with `geom`.
#[must_use]
pub fn conv2d_i8_naive(input: &Tensor<i8>, weights: &Tensor<i8>, geom: &ConvGeom) -> Tensor<i32> {
    assert_eq!(
        input.shape().with_n(geom.input.n),
        geom.input,
        "input mismatch"
    );
    let ws = weights.shape();
    assert_eq!(
        (ws.n, ws.c, ws.h, ws.w),
        (geom.k, geom.input.c, geom.r, geom.s)
    );
    let out_shape = geom.out_shape().with_n(input.shape().n);
    let mut out = Tensor::zeros(out_shape);
    for n in 0..input.shape().n {
        for k in 0..geom.k {
            for oy in 0..geom.oh {
                for ox in 0..geom.ow {
                    let mut acc = 0i32;
                    for c in 0..geom.input.c {
                        for r in 0..geom.r {
                            for s in 0..geom.s {
                                let iy = (oy * geom.stride + r) as isize - geom.pad as isize;
                                let ix = (ox * geom.stride + s) as isize - geom.pad as isize;
                                if iy < 0
                                    || ix < 0
                                    || iy >= geom.input.h as isize
                                    || ix >= geom.input.w as isize
                                {
                                    continue;
                                }
                                let a = input.at(n, c, iy as usize, ix as usize) as i32;
                                let w = weights.at(k, c, r, s) as i32;
                                acc = acc.wrapping_add(a * w);
                            }
                        }
                    }
                    out.set(n, k, oy, ox, acc);
                }
            }
        }
    }
    out
}

/// f32 convolution via im2col + GEMM.
///
/// # Panics
///
/// Panics if shapes disagree with `geom`.
#[must_use]
pub fn conv2d_f32(input: &Tensor<f32>, weights: &Tensor<f32>, geom: &ConvGeom) -> Tensor<f32> {
    let wmat = weights_as_mat(weights, geom).to_mat();
    let out_shape = geom.out_shape().with_n(input.shape().n);
    let mut out = Tensor::zeros(out_shape);
    for n in 0..input.shape().n {
        let cols = im2col::im2col(input.image(n), geom);
        let res = gemm::gemm_f32(&wmat, &cols);
        out.image_mut(n).copy_from_slice(res.as_slice());
    }
    out
}

/// int8 convolution via im2col + GEMM, optionally sharded over threads.
///
/// # Panics
///
/// Panics if shapes disagree with `geom`.
#[must_use]
pub fn conv2d_i8(
    input: &Tensor<i8>,
    weights: &Tensor<i8>,
    geom: &ConvGeom,
    threads: usize,
) -> Tensor<i32> {
    let wmat = weights_as_mat(weights, geom); // zero-copy view
    let out_shape = geom.out_shape().with_n(input.shape().n);
    let mut out = Tensor::zeros(out_shape);
    let (m, k, n_cols) = (geom.k, geom.input.c * geom.r * geom.s, geom.oh * geom.ow);
    let mut cols = vec![0i8; k * n_cols];
    for n in 0..input.shape().n {
        im2col::im2col_into(input.image(n), geom, &mut cols);
        gemm::gemm_i8_i32_threaded_into(
            wmat.as_slice(),
            &cols,
            out.image_mut(n),
            m,
            k,
            n_cols,
            threads,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape4;

    #[test]
    fn known_3x3_edge_detector() {
        // Sobel-like kernel on a vertical step image.
        let input = Tensor::from_fn(
            Shape4::new(1, 1, 4, 4),
            |_, _, _, w| {
                if w >= 2 {
                    1.0
                } else {
                    0.0
                }
            },
        );
        let weights = Tensor::from_vec(
            Shape4::new(1, 1, 3, 3),
            vec![-1.0, 0.0, 1.0, -1.0, 0.0, 1.0, -1.0, 0.0, 1.0],
        );
        let geom = ConvGeom::new(input.shape(), 1, 3, 3, 1, 0);
        let out = conv2d_f32_naive(&input, &weights, &geom);
        // Interior columns: step edge gives response 3 at the boundary.
        assert_eq!(out.at(0, 0, 0, 0), 3.0);
        assert_eq!(out.at(0, 0, 1, 1), 3.0);
    }

    #[test]
    fn im2col_path_matches_naive_f32() {
        let input = Tensor::from_fn(Shape4::new(2, 3, 7, 6), |n, c, h, w| {
            ((n * 31 + c * 17 + h * 5 + w * 3) % 13) as f32 - 6.0
        });
        let geom = ConvGeom::new(input.shape().with_n(1), 4, 3, 3, 2, 1);
        let weights = Tensor::from_fn(geom.weight_shape(), |k, c, r, s| {
            ((k * 7 + c * 5 + r * 3 + s) % 9) as f32 - 4.0
        });
        let a = conv2d_f32_naive(&input, &weights, &geom);
        let b = conv2d_f32(&input, &weights, &geom);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn im2col_path_matches_naive_i8() {
        let input = Tensor::from_fn(Shape4::new(1, 5, 6, 6), |_, c, h, w| {
            ((c * 43 + h * 11 + w * 7) % 255) as i8
        });
        let geom = ConvGeom::new(input.shape(), 7, 3, 3, 1, 1);
        let weights = Tensor::from_fn(geom.weight_shape(), |k, c, r, s| {
            ((k * 91 + c * 37 + r * 13 + s * 3) % 251) as i8
        });
        let a = conv2d_i8_naive(&input, &weights, &geom);
        for threads in [1, 3] {
            let b = conv2d_i8(&input, &weights, &geom, threads);
            assert_eq!(a.as_slice(), b.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn conv_1x1_is_channel_mix() {
        let input = Tensor::from_vec(Shape4::new(1, 2, 1, 2), vec![1i8, 2, 3, 4]);
        let geom = ConvGeom::new(input.shape(), 1, 1, 1, 1, 0);
        let weights = Tensor::from_vec(Shape4::new(1, 2, 1, 1), vec![2i8, 10]);
        let out = conv2d_i8_naive(&input, &weights, &geom);
        assert_eq!(out.as_slice(), &[2 + 30, 4 + 40]);
    }
}
