//! Property-based tests: the im2col + GEMM convolution path and the int8
//! GEMM kernel are bit-identical to the naive reference.

use nvfi_tensor::{conv, gemm, ConvGeom, Mat, Shape4, Tensor};
use proptest::prelude::*;

fn small_conv_case() -> impl Strategy<Value = (Tensor<i8>, Tensor<i8>, ConvGeom)> {
    (
        1usize..3,
        1usize..6,
        3usize..8,
        3usize..8,
        1usize..5,
        1usize..3,
        0usize..2,
    )
        .prop_flat_map(|(n, c, h, w, k, stride, pad)| {
            let r = 3.min(h + 2 * pad);
            let s = 3.min(w + 2 * pad);
            let input_shape = Shape4::new(n, c, h, w);
            let geom = ConvGeom::new(input_shape.with_n(1), k, r, s, stride, pad);
            let wlen = geom.weight_shape().len();
            (
                proptest::collection::vec(any::<i8>(), input_shape.len()),
                proptest::collection::vec(any::<i8>(), wlen),
                Just(geom),
                Just(input_shape),
            )
                .prop_map(move |(iv, wv, geom, ishape)| {
                    (
                        Tensor::from_vec(ishape, iv),
                        Tensor::from_vec(geom.weight_shape(), wv),
                        geom,
                    )
                })
        })
}

/// An `m x k` by `k x n` int8 GEMM (m <= 9, k <= 300, n <= 200) plus a
/// random initial output: every row and column tile of the blocked kernel.
fn gemm_case() -> impl Strategy<Value = (usize, usize, usize, Vec<i8>, Vec<i8>, Vec<i32>)> {
    (1usize..10, 0usize..301, 0usize..201).prop_flat_map(|(m, k, n)| {
        (
            Just((m, k, n)),
            proptest::collection::vec(any::<i8>(), m * k),
            proptest::collection::vec(any::<i8>(), k * n),
            proptest::collection::vec(any::<i32>(), m * n),
        )
            .prop_map(|((m, k, n), a, b, out)| (m, k, n, a, b, out))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The blocked int8 kernel accumulates exactly like the naive wrapping
    /// triple loop.
    #[test]
    fn gemm_i8_into_equals_naive((m, k, n, a, b, init) in gemm_case()) {
        let mut want = init.clone();
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    let prod = i32::from(a[i * k + p]) * i32::from(b[p * n + j]);
                    want[i * n + j] = want[i * n + j].wrapping_add(prod);
                }
            }
        }
        let mut got = init;
        gemm::gemm_i8_i32_into(&a, &b, &mut got, m, k, n);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn conv_i8_gemm_equals_naive((input, weights, geom) in small_conv_case()) {
        let a = conv::conv2d_i8_naive(&input, &weights, &geom);
        let b = conv::conv2d_i8(&input, &weights, &geom, 1);
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn conv_i8_threaded_equals_naive((input, weights, geom) in small_conv_case()) {
        let a = conv::conv2d_i8_naive(&input, &weights, &geom);
        let b = conv::conv2d_i8(&input, &weights, &geom, 4);
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn conv_f32_gemm_close_to_naive((input, weights, geom) in small_conv_case()) {
        let fi = input.map(|v| v as f32);
        let fw = weights.map(|v| v as f32);
        let a = conv::conv2d_f32_naive(&fi, &fw, &geom);
        let b = conv::conv2d_f32(&fi, &fw, &geom);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-2_f32.max(x.abs() * 1e-5));
        }
    }

    /// GEMM distributes over addition in the int8 domain:
    /// A*(B) accumulated twice == 2 passes of gemm_acc.
    #[test]
    fn gemm_acc_accumulates(
        av in proptest::collection::vec(any::<i8>(), 6),
        bv in proptest::collection::vec(any::<i8>(), 6),
    ) {
        let a = Mat::from_vec(2, 3, av);
        let b = Mat::from_vec(3, 2, bv);
        let once = gemm::gemm_i8_i32(&a, &b);
        let mut twice = gemm::gemm_i8_i32(&a, &b);
        gemm::gemm_i8_i32_acc(&a, &b, &mut twice);
        for (o, t) in once.as_slice().iter().zip(twice.as_slice()) {
            prop_assert_eq!(o.wrapping_mul(2), *t);
        }
    }

    /// Transposition is an involution.
    #[test]
    fn transpose_involution(v in proptest::collection::vec(any::<i32>(), 12)) {
        let m = Mat::from_vec(3, 4, v);
        prop_assert_eq!(m.transposed().transposed(), m);
    }
}
