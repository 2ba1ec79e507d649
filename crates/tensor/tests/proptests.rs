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
    gemm_case_of(any::<i8>, any::<i8>, any::<i32>)
}

/// [`gemm_case`] with the elements of `a`, `b` and the initial output drawn
/// from the strategies the three functions return.
fn gemm_case_of<A, B, O>(
    a_elem: fn() -> A,
    b_elem: fn() -> B,
    out_elem: fn() -> O,
) -> impl Strategy<Value = (usize, usize, usize, Vec<i8>, Vec<i8>, Vec<i32>)>
where
    A: Strategy<Value = i8>,
    B: Strategy<Value = i8>,
    O: Strategy<Value = i32>,
{
    (1usize..10, 0usize..301, 0usize..201).prop_flat_map(move |(m, k, n)| {
        (
            Just((m, k, n)),
            proptest::collection::vec(a_elem(), m * k),
            proptest::collection::vec(b_elem(), k * n),
            proptest::collection::vec(out_elem(), m * n),
        )
            .prop_map(|((m, k, n), a, b, out)| (m, k, n, a, b, out))
    })
}

/// An i8 other than -128. Uniform `any::<i8>()` puts a -128 in almost every
/// four-row quad of `a` once k is ~100 or more; this draws quads without one.
fn i8_without_min() -> impl Strategy<Value = i8> {
    (-127i16..128).prop_map(|v| v as i8)
}

/// An i8 from the ends of the range and around zero: the extreme pair sums
/// of the pair-product tile, e.g. `(-128)·(-128) + (-128)·(-128) = 32768`.
fn i8_extreme() -> impl Strategy<Value = i8> {
    const EXTREMES: [i8; 6] = [-128, -127, -1, 0, 1, 127];
    (0..EXTREMES.len()).prop_map(|i| EXTREMES[i])
}

/// An i32 within 2^20 of `i32::MAX`, so large positive sums wrap.
fn i32_near_max() -> impl Strategy<Value = i32> {
    (0i32..1 << 20).prop_map(|d| i32::MAX - d)
}

/// The naive wrapping triple loop: `init (+)= a * b`.
fn naive_gemm(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], init: &[i32]) -> Vec<i32> {
    let mut want = init.to_vec();
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                let prod = i32::from(a[i * k + p]) * i32::from(b[p * n + j]);
                want[i * n + j] = want[i * n + j].wrapping_add(prod);
            }
        }
    }
    want
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

    /// The same with no -128 in `a`, like the engine's quantized weights
    /// (symmetric in [-127, 127]).
    #[test]
    fn gemm_i8_into_equals_naive_without_i8_min_in_a(
        (m, k, n, a, b, init) in gemm_case_of(i8_without_min, any::<i8>, any::<i32>)
    ) {
        let want = naive_gemm(m, k, n, &a, &b, &init);
        let mut got = init;
        gemm::gemm_i8_i32_into(&a, &b, &mut got, m, k, n);
        prop_assert_eq!(got, want);
    }

    /// The same with `a` and `b` at the ends of the i8 range and outputs
    /// near `i32::MAX`: extreme pair sums, accumulated until they wrap.
    #[test]
    fn gemm_i8_into_equals_naive_at_extremes_near_i32_max(
        (m, k, n, a, b, init) in gemm_case_of(i8_extreme, i8_extreme, i32_near_max)
    ) {
        let want = naive_gemm(m, k, n, &a, &b, &init);
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
