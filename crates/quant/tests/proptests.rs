//! Property-based tests of the quantization pipeline.

use nvfi_hwnum::{sat, Requant};
use nvfi_nn::{DeployModel, DeployOp, DeployOpKind};
use nvfi_quant::exec::sdp_postprocess;
use nvfi_quant::{quantize, QuantConfig};
use nvfi_tensor::{Shape4, Tensor};
use proptest::prelude::*;

/// A single random conv layer as a deploy model.
fn conv_model(c: usize, k: usize, hw: usize, weights: Vec<f32>, bias: Vec<f32>) -> DeployModel {
    DeployModel {
        input_shape: Shape4::new(1, c, hw, hw),
        ops: vec![
            DeployOp {
                input: 0,
                kind: DeployOpKind::Conv {
                    weight: Tensor::from_vec(Shape4::new(k, c, 3, 3), weights),
                    bias,
                    stride: 1,
                    pad: 1,
                    relu: false,
                    fuse_add: None,
                },
            },
            DeployOp {
                input: 1,
                kind: DeployOpKind::GlobalAvgPool,
            },
            DeployOp {
                input: 2,
                kind: DeployOpKind::Linear {
                    weight: nvfi_tensor::Mat::from_vec(2, k, vec![0.5; 2 * k]),
                    bias: vec![0.0, 0.1],
                },
            },
        ],
        output: 3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Symmetric int8 quantization round-trips within half a step.
    #[test]
    fn quantize_dequantize_error_bound(v in -10.0f32..10.0, absmax in 0.5f32..20.0) {
        let v = v.clamp(-absmax, absmax);
        let scale = absmax / 127.0;
        let q = sat::quantize_f32_to_i8(v, scale);
        let back = f32::from(q) * scale;
        prop_assert!((v - back).abs() <= scale / 2.0 + 1e-6,
            "v={} back={} scale={}", v, back, scale);
    }

    /// The quantized conv model tracks the float model: per-logit error is
    /// bounded by a few output quantization steps.
    #[test]
    fn quantized_conv_tracks_float(
        c in 1usize..5,
        k in 1usize..7,
        seed in any::<u64>(),
    ) {
        let hw = 6usize;
        let wlen = k * c * 9;
        let weights: Vec<f32> = (0..wlen)
            .map(|i| ((seed.wrapping_add(i as u64 * 2654435761) % 2000) as f32 / 1000.0) - 1.0)
            .collect();
        let bias: Vec<f32> = (0..k).map(|i| i as f32 * 0.05 - 0.1).collect();
        let model = conv_model(c, k, hw, weights, bias);
        // Calibration images spanning the input range.
        let calib = Tensor::from_fn(Shape4::new(4, c, hw, hw), |n, ci, h, w| {
            ((n * 31 + ci * 17 + h * 5 + w) % 21) as f32 * 0.1 - 1.0
        });
        let q = quantize(&model, &calib, &QuantConfig::default()).unwrap();
        let test = calib.slice_image(1);
        let want = model.forward(&test);
        let got = nvfi_quant::exec::forward(&q, &q.quantize_input(&test), 1);
        // Compare in the logits' real-valued domain.
        let out_scale = q.ops.last().unwrap().out_scale;
        for (idx, (&w, &g)) in want.as_slice().iter().zip(&got[0]).enumerate() {
            let g_real = g as f32 * out_scale;
            // Error budget: input + weight + output rounding across the
            // network; generous but still catches systematic bugs.
            let budget = 0.1 + want.as_slice().iter().fold(0f32, |m, &v| m.max(v.abs())) * 0.1;
            prop_assert!((w - g_real).abs() <= budget,
                "logit {}: float {} vs int8 {}", idx, w, g_real);
        }
    }

    /// Per-channel quantization is at least as accurate as per-tensor on
    /// the weights themselves (reconstruction error).
    #[test]
    fn per_channel_weight_error_not_worse(seed in any::<u64>()) {
        let k = 4usize;
        let per_k = 9usize;
        // Channels with very different magnitudes — the case per-channel
        // scaling exists for.
        let weights: Vec<f32> = (0..k * per_k)
            .map(|i| {
                let ch = i / per_k;
                let mag = 10f32.powi(ch as i32 - 2);
                (((seed.wrapping_add(i as u64 * 97) % 200) as f32 / 100.0) - 1.0) * mag
            })
            .collect();
        let err = |per_channel: bool| -> f32 {
            let mut total = 0f32;
            if per_channel {
                for ch in 0..k {
                    let chunk = &weights[ch * per_k..(ch + 1) * per_k];
                    let absmax = chunk.iter().fold(0f32, |m, &v| m.max(v.abs())).max(1e-9);
                    let scale = absmax / 127.0;
                    for &v in chunk {
                        let q = sat::quantize_f32_to_i8(v, scale);
                        total += (v - f32::from(q) * scale).abs();
                    }
                }
            } else {
                let absmax = weights.iter().fold(0f32, |m, &v| m.max(v.abs())).max(1e-9);
                let scale = absmax / 127.0;
                for &v in &weights {
                    let q = sat::quantize_f32_to_i8(v, scale);
                    total += (v - f32::from(q) * scale).abs();
                }
            }
            total
        };
        prop_assert!(err(true) <= err(false) + 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batch quantization distributes over concatenation:
    /// `quantize(concat(a, b)) == concat(quantize(a), quantize(b))` for the
    /// input scales campaigns use. This is what makes the once-per-campaign
    /// quantization pass shard-order-invariant — a `QuantizedEvalSet` built
    /// up front is bit-identical to quantizing every device shard (or
    /// mini-batch) separately, wherever the shard boundaries fall.
    #[test]
    fn batch_quantization_distributes_over_concat(
        a in proptest::collection::vec(-4.0f32..4.0, 0..96),
        b in proptest::collection::vec(-4.0f32..4.0, 0..96),
        // Campaign input scales come from absmax/127 calibration of roughly
        // [-1, 1] images, i.e. small positive reals.
        scale in 0.001f32..0.2,
    ) {
        let whole: Vec<f32> = a.iter().chain(b.iter()).copied().collect();
        let q_whole = nvfi_quant::batch::quantize_slice(&whole, scale);
        let mut q_parts = nvfi_quant::batch::quantize_slice(&a, scale);
        q_parts.extend(nvfi_quant::batch::quantize_slice(&b, scale));
        prop_assert_eq!(q_whole, q_parts);
    }

    /// The batch helper agrees elementwise with the scalar quantizer it is
    /// hoisting (so routing every f32 wrapper through it changed nothing).
    #[test]
    fn batch_helper_matches_scalar_quantizer(
        xs in proptest::collection::vec(-300.0f32..300.0, 1..64),
        scale in 0.001f32..2.0,
    ) {
        let q = nvfi_quant::batch::quantize_slice(&xs, scale);
        for (x, got) in xs.iter().zip(&q) {
            prop_assert_eq!(*got, sat::quantize_f32_to_i8(*x, scale));
        }
    }
}

/// The SDP as the i128 requantizer defines it: requantize, add the
/// requantized residual, ReLU, saturate — each step in the widest type.
fn sdp_reference(acc: i32, requant: Requant, residual: Option<(i8, Requant)>, relu: bool) -> i8 {
    let mut v = i128::from(requant.apply(i64::from(acc)));
    if let Some((res, rq)) = residual {
        v += i128::from(rq.apply(i64::from(res)));
    }
    if relu && v < 0 {
        v = 0;
    }
    i8::try_from(v.clamp(-128, 127)).expect("clamped into i8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `sdp_postprocess` (branch-free i64) equals the i128 reference for any
    /// accumulator, requantizer, optional residual with its add-requant and
    /// ReLU flag. Raw parts over the whole valid range drive most outputs
    /// into saturation at either end; `from_scale` with calibration-sized
    /// scales keeps them in range. The engine, the exact oracle and the CPU
    /// reference all share `sdp_postprocess`, so this test (not the
    /// engine-equivalence suites) is what proves it.
    #[test]
    fn sdp_postprocess_matches_i128_reference(
        acc in any::<i32>(),
        (m, shift) in (0i32..i32::MAX, 0u8..(Requant::MAX_SHIFT + 1)),
        scale in 1e-6f64..2.0,
        res in any::<i8>(),
        (add_m, add_shift) in (0i32..i32::MAX, 0u8..(Requant::MAX_SHIFT + 1)),
        add_scale in 1e-3f64..4.0,
        form in 0u8..4,
        relu in any::<bool>(),
    ) {
        let raw = form & 1 == 0;
        let rq = if raw { Requant::from_parts(m, shift) } else { Requant::from_scale(scale).unwrap() };
        let add_rq = if raw {
            Requant::from_parts(add_m, add_shift)
        } else {
            Requant::from_scale(add_scale).unwrap()
        };
        let residual = (form & 2 == 0).then_some((res, add_rq));
        prop_assert_eq!(
            sdp_postprocess(acc, rq, residual, relu),
            sdp_reference(acc, rq, residual, relu),
            "acc={} rq={} residual={:?} relu={}", acc, rq, residual, relu
        );
    }
}

/// Saturation at both ends and the ReLU floor, at the accumulator extremes.
#[test]
fn sdp_postprocess_saturates_at_both_ends() {
    let unit = Requant::IDENTITY;
    let big = Requant::from_parts(i32::MAX, 0);
    for rq in [unit, big] {
        for residual in [None, Some((i8::MIN, big)), Some((i8::MAX, big))] {
            for relu in [false, true] {
                for acc in [i32::MIN, -129, -128, -1, 0, 1, 127, 128, i32::MAX] {
                    assert_eq!(
                        sdp_postprocess(acc, rq, residual, relu),
                        sdp_reference(acc, rq, residual, relu),
                        "acc={acc} rq={rq} residual={residual:?} relu={relu}"
                    );
                }
            }
        }
    }
    assert_eq!(sdp_postprocess(i32::MAX, big, None, false), 127);
    assert_eq!(sdp_postprocess(i32::MIN, big, None, false), -128);
    assert_eq!(sdp_postprocess(i32::MIN, big, None, true), 0);
}
