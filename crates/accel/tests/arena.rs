//! Property tests for the campaign-lifetime caches added to the engine:
//!
//! 1. **weight-arena invalidation** — `dma_write` / `flip_dram_bit` into a
//!    weight region followed by `run_inference_i8_view` matches a cold (freshly
//!    assembled, no warm arena) device bit-exactly;
//! 2. **fast-path + corrections with a warm arena** still equals the exact
//!    engine for full-override faults;
//! 3. **batched execution** (`run_batch_i8_view` / `classify_batch_i8`) is
//!    bit-identical to the per-image path, with and without faults;
//! 4. **DRAM footprint** — the device's resident DRAM backing never exceeds
//!    the plan's `dram_size` on any execution path, and a clone of a
//!    programmed, SEU-struck device predicts exactly like the original.

use nvfi_accel::{AccelConfig, Accelerator, ExecMode, FaultConfig, FaultKind, IdleLanePolicy};
use nvfi_compiler::regmap::MultId;
use nvfi_hwnum::Requant;
use nvfi_quant::{QConv, QLinear, QOp, QOpKind, QuantModel};
use nvfi_tensor::{Mat, Shape4, Tensor};
use proptest::prelude::*;

/// A small random conv + pool + linear model plus a batch of images.
fn case() -> impl Strategy<Value = (QuantModel, Tensor<f32>, Vec<MultId>, i32, u64)> {
    (
        1usize..10, // input channels
        1usize..14, // output channels
        4usize..7,  // spatial size
        1usize..3,  // stride
        0usize..2,  // pad
        2usize..6,  // batch size
        proptest::collection::vec(0usize..64, 1..4),
        -131072i32..131072,
        any::<u64>(),
    )
        .prop_map(|(c, k, hw, stride, pad, batch, lanes, value, seed)| {
            let r = 3.min(hw + 2 * pad);
            let weight = Tensor::from_fn(Shape4::new(k, c, r, r), |k2, c2, r2, s2| {
                (seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add((k2 * 131 + c2 * 31 + r2 * 7 + s2) as u64)
                    % 255) as i8
            });
            let model = QuantModel {
                input_shape: Shape4::new(1, c, hw, hw),
                input_scale: 0.05,
                ops: vec![
                    QOp {
                        input: 0,
                        kind: QOpKind::Conv(QConv {
                            weight,
                            bias: (0..k).map(|i| i as i32 * 3 - 5).collect(),
                            stride,
                            pad,
                            relu: true,
                            fuse_add: None,
                            requant: vec![Requant::from_scale(0.01).unwrap()],
                            add_requant: None,
                            out_scale: 0.1,
                        }),
                        out_scale: 0.1,
                    },
                    QOp {
                        input: 1,
                        kind: QOpKind::GlobalAvgPool,
                        out_scale: 0.1,
                    },
                    QOp {
                        input: 2,
                        kind: QOpKind::Linear(QLinear {
                            weight: Mat::from_vec(
                                3,
                                k,
                                (0..3 * k).map(|i| (i as i8).wrapping_mul(37)).collect(),
                            ),
                            bias: vec![7, -9, 0],
                            out_scale: 0.1,
                        }),
                        out_scale: 0.1,
                    },
                ],
                output: 3,
            };
            let images = Tensor::from_fn(Shape4::new(batch, c, hw, hw), |n, c2, h2, w2| {
                ((seed as usize + n * 71 + c2 * 17 + h2 * 5 + w2) % 40) as f32 * 0.05 - 0.5
            });
            let targets: Vec<MultId> = {
                let mut t: Vec<MultId> = lanes.into_iter().map(MultId::from_lane).collect();
                t.sort();
                t.dedup();
                t
            };
            (model, images, targets, value, seed)
        })
}

fn device(model: &QuantModel, mode: ExecMode) -> Accelerator {
    let plan = nvfi_compiler::compile(model, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY)
        .expect("compiles");
    let mut accel = Accelerator::new(AccelConfig {
        mode,
        idle_lanes: IdleLanePolicy::ZeroFed,
        ..Default::default()
    });
    accel.load_plan(&plan).expect("loads");
    accel
}

fn plan_of(model: &QuantModel) -> nvfi_compiler::ExecutionPlan {
    nvfi_compiler::compile(model, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).expect("compiles")
}

/// Byte offsets (relative to the weight region base) to corrupt, spread
/// over the first conv's packed weight region.
fn weight_region(model: &QuantModel) -> (u64, u64) {
    let plan = plan_of(model);
    let (addr, bytes) = &plan.weight_image[0];
    (*addr, bytes.len() as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SEU into a cached weight region: the warm device must match a
    /// freshly assembled device that sees the corrupted DRAM from cold.
    #[test]
    fn dram_bit_flip_invalidates_weight_arena((model, images, _, _, seed) in case()) {
        let (w_addr, w_len) = weight_region(&model);
        let img = model.quantize_input(&images.slice_image(0));

        let mut warm = device(&model, ExecMode::Auto);
        // Warm the arena (and scratch) with a few inferences first.
        let _ = warm.run_inference_i8_view(img.as_slice()).unwrap();
        let flip_at = w_addr + seed % w_len;
        let bit = (seed % 8) as u8;
        warm.flip_dram_bit(flip_at, bit).unwrap();
        let warm_logits = warm.run_inference_i8_view(img.as_slice()).unwrap().logits;

        // Cold device: same plan, same SEU, arena built after the flip.
        let mut cold = device(&model, ExecMode::Auto);
        cold.flip_dram_bit(flip_at, bit).unwrap();
        let cold_logits = cold.run_inference_i8_view(img.as_slice()).unwrap().logits;

        prop_assert_eq!(warm_logits, cold_logits);
    }

    /// `dma_write` of fresh weight bytes over a cached region: the warm
    /// device must behave exactly like a cold device loaded with the new
    /// bytes.
    #[test]
    fn dma_write_invalidates_weight_arena((model, images, _, _, seed) in case()) {
        let (w_addr, w_len) = weight_region(&model);
        let img = model.quantize_input(&images.slice_image(0));
        // Overwrite a slice in the middle of the region.
        let start = seed % w_len;
        let len = (1 + seed % 16).min(w_len - start) as usize;
        let patch: Vec<i8> = (0..len).map(|i| (seed as usize + i * 31) as i8).collect();

        let mut warm = device(&model, ExecMode::Auto);
        let _ = warm.run_inference_i8_view(img.as_slice()).unwrap();
        warm.dma_write(w_addr + start, &patch).unwrap();
        let warm_logits = warm.run_inference_i8_view(img.as_slice()).unwrap().logits;

        let mut cold = device(&model, ExecMode::Auto);
        cold.dma_write(w_addr + start, &patch).unwrap();
        let cold_logits = cold.run_inference_i8_view(img.as_slice()).unwrap().logits;

        prop_assert_eq!(warm_logits, cold_logits);
    }

    /// Clean GEMM + lane-delta corrections with a warm arena equal the exact
    /// engine (the arena must not change fault semantics).
    #[test]
    fn warm_arena_fast_corrections_equal_exact((model, images, targets, value, _) in case()) {
        let img = model.quantize_input(&images.slice_image(0));
        let fault = FaultConfig::new(targets, FaultKind::Constant(value));

        let mut fast = device(&model, ExecMode::Auto);
        let _ = fast.run_inference_i8_view(img.as_slice()).unwrap(); // warm
        fast.inject(&fault);
        let fast_logits = fast.run_inference_i8_view(img.as_slice()).unwrap().logits;

        let mut exact = device(&model, ExecMode::Exact);
        exact.inject(&fault);
        let exact_logits = exact.run_inference_i8_view(img.as_slice()).unwrap().logits;

        prop_assert_eq!(fast_logits, exact_logits);
    }

    /// The batched fast path is bit-identical to the per-image path, clean
    /// and faulted.
    #[test]
    fn batched_execution_matches_per_image((model, images, targets, value, _) in case()) {
        let qimgs = model.quantize_input(&images);

        for fault in [None, Some(FaultConfig::new(targets, FaultKind::Constant(value)))] {
            let mut per_image = device(&model, ExecMode::Auto);
            let mut batched = device(&model, ExecMode::Auto);
            if let Some(f) = &fault {
                per_image.inject(f);
                batched.inject(f);
            }
            let want: Vec<Vec<i32>> = (0..qimgs.shape().n)
                .map(|n| per_image.run_inference_i8_view(qimgs.image(n)).unwrap().logits)
                .collect();
            let got: Vec<Vec<i32>> = batched
                .run_batch_i8_view(qimgs.as_slice())
                .unwrap()
                .into_iter()
                .map(|r| r.logits)
                .collect();
            prop_assert_eq!(&got, &want, "fault: {:?}", fault);
        }
    }

    /// The resident DRAM backing stays within the plan's footprint after
    /// plan load, a per-image inference, a batched classify and a golden
    /// prefix/suffix pair — never the 256 MiB modelled capacity. A clone of
    /// a programmed device carrying a weight SEU predicts bit-identically to
    /// the original and to a cold device that imported its weight image.
    #[test]
    fn dram_footprint_bounded_and_clones_predict_identically(
        (model, images, _, _, seed) in case()
    ) {
        let plan = plan_of(&model);
        let qimgs = model.quantize_input(&images);
        let img = qimgs.slice_image(0);
        let within = |accel: &Accelerator, after: &str| {
            assert!(
                accel.dram_resident_bytes() <= plan.dram_size,
                "{after}: {} resident DRAM bytes exceed the plan's {}",
                accel.dram_resident_bytes(),
                plan.dram_size
            );
        };

        let mut accel = device(&model, ExecMode::Auto);
        within(&accel, "load_plan");
        let want = accel.run_inference_i8_view(img.as_slice()).unwrap().logits;
        within(&accel, "per-image inference");
        accel.classify_batch_i8(qimgs.as_slice()).unwrap();
        within(&accel, "classify_batch_i8");
        let boundary = 1 + seed as usize % (plan.ops.len() - 1);
        let surfaces = plan.live_in_surfaces(boundary);
        let mut data = Vec::new();
        accel.run_prefix_i8_view(img.as_slice(), boundary, &surfaces, &mut data).unwrap();
        within(&accel, "run_prefix_i8_view");
        let restored = accel.run_suffix_i8_view(boundary, &surfaces, &data).unwrap();
        within(&accel, "run_suffix_i8_view");
        prop_assert_eq!(&restored[0].logits, &want);

        // Weight SEU on the programmed device, then clone it.
        let (w_addr, w_len) = weight_region(&model);
        accel.flip_dram_bit(w_addr + seed % w_len, (seed % 8) as u8).unwrap();
        let mut clone = accel.clone();
        prop_assert_eq!(clone.dram_resident_bytes(), accel.dram_resident_bytes());
        let mut cold = Accelerator::new(*accel.config());
        cold.load_plan(&plan).unwrap();
        cold.import_weight_image(&accel.export_weight_image().unwrap()).unwrap();
        for n in 0..qimgs.shape().n {
            let one = qimgs.slice_image(n);
            let original = accel.run_inference_i8_view(one.as_slice()).unwrap().logits;
            prop_assert_eq!(&clone.run_inference_i8_view(one.as_slice()).unwrap().logits, &original);
            prop_assert_eq!(&cold.run_inference_i8_view(one.as_slice()).unwrap().logits, &original);
        }
        within(&clone, "clone inference");
    }

    /// `classify_batch_i8` agrees with per-image classification for every
    /// mini-batch size.
    #[test]
    fn classify_batch_size_invariant((model, images, _, _, _) in case()) {
        let mut reference = device(&model, ExecMode::Auto);
        let qimages = model.quantize_input(&images);
        let want: Vec<u8> = (0..images.shape().n)
            .map(|n| reference.run_inference_i8_view(qimages.image(n)).unwrap().class)
            .collect();
        for batch in [1, 2, 3, 8] {
            let plan = nvfi_compiler::compile(&model, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY)
                .unwrap();
            let mut accel = Accelerator::new(AccelConfig { batch, ..Default::default() });
            accel.load_plan(&plan).unwrap();
            let got = accel.classify_batch_i8(qimages.as_slice()).unwrap();
            prop_assert_eq!(&got, &want, "batch={}", batch);
        }
    }
}
