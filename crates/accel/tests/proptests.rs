//! Property-based equivalence: for random small convolution networks,
//! random inputs and random full-override fault configurations, the fast
//! (GEMM + correction) engine equals the exact (per-product mux) engine,
//! and with no faults both equal the CPU reference executor. Batched
//! lane-delta runs of random raw injector programming equal per-image
//! oracle runs. The sparse DRAM model is checked against a dense
//! byte-array reference.

use std::ops::Range;

use nvfi_accel::dram::Dram;
use nvfi_accel::{
    AccelConfig, AccelError, Accelerator, ExecMode, FaultConfig, FaultKind, IdleLanePolicy,
};
use nvfi_compiler::regmap::{self, MultId};
use nvfi_hwnum::Requant;
use nvfi_quant::{QConv, QLinear, QOp, QOpKind, QuantModel};
use nvfi_tensor::{Mat, Shape4, Tensor};
use proptest::prelude::*;

/// A random one-conv + pool + linear quantized model, input, and fault set.
fn case() -> impl Strategy<Value = (QuantModel, Tensor<f32>, Vec<MultId>, i32, bool)> {
    (
        1usize..12, // input channels (exercises idle lanes)
        1usize..14, // output channels (exercises kernel tails)
        4usize..7,  // spatial size
        1usize..3,  // stride
        0usize..2,  // pad
        proptest::collection::vec(0usize..64, 1..5),
        -131072i32..131072,
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(c, k, hw, stride, pad, lanes, value, gated, seed)| {
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
            let image = Tensor::from_fn(Shape4::new(1, c, hw, hw), |_, c2, h2, w2| {
                ((seed as usize + c2 * 17 + h2 * 5 + w2) % 40) as f32 * 0.05 - 0.5
            });
            let targets: Vec<MultId> = {
                let mut t: Vec<MultId> = lanes.into_iter().map(MultId::from_lane).collect();
                t.sort();
                t.dedup();
                t
            };
            (model, image, targets, value, gated)
        })
}

fn run(
    model: &QuantModel,
    image: &Tensor<f32>,
    mode: ExecMode,
    gated: bool,
    fault: Option<&FaultConfig>,
) -> Vec<i32> {
    let plan = nvfi_compiler::compile(model, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY)
        .expect("compiles");
    let idle = if gated {
        IdleLanePolicy::Gated
    } else {
        IdleLanePolicy::ZeroFed
    };
    let mut accel = Accelerator::new(AccelConfig {
        mode,
        idle_lanes: idle,
        ..Default::default()
    });
    accel.load_plan(&plan).expect("loads");
    if let Some(f) = fault {
        accel.inject(f);
    }
    let qimage = model.quantize_input(image);
    accel
        .run_inference_i8_view(qimage.as_slice())
        .expect("runs")
        .logits
}

/// Programs the injector bank through its CSB registers, unmasked values
/// included (the registers keep their low 18 bits).
fn program(accel: &mut Accelerator, sel: u64, fsel: u32, fdata: u32, xor: u32) {
    for (addr, value) in [
        (regmap::REG_FI_SEL_A, sel as u32),
        (regmap::REG_FI_SEL_B, (sel >> 32) as u32),
        (regmap::REG_FI_FSEL, fsel),
        (regmap::REG_FI_FDATA, fdata),
        (regmap::REG_FI_XOR, xor),
        (regmap::REG_FI_CTRL, 1),
    ] {
        accel
            .csb_write(addr, value)
            .expect("FI registers are mapped");
    }
}

/// The dense reference's bounds rule: the byte range of a valid access, or
/// the exact error the DRAM must report.
fn dense_range(capacity: u64, addr: u64, len: u64) -> Result<Range<usize>, AccelError> {
    match addr.checked_add(len) {
        Some(end) if end <= capacity => Ok(addr as usize..end as usize),
        _ => Err(AccelError::DramOutOfBounds {
            addr,
            len,
            capacity,
        }),
    }
}

/// Places a `len`-byte access, cycling through the edge cases of a sparse
/// backing whose current end is `top`: anywhere, straddling `top`,
/// entirely above `top`, ending exactly at `capacity`, ending one byte past
/// it, and overflowing `addr + len`.
fn place(edge: usize, off: u64, len: u64, top: u64, capacity: u64) -> u64 {
    match edge {
        0 => off % capacity,
        1 => top.saturating_sub(1 + off % len.saturating_sub(1).max(1)),
        2 => top + off % 64,
        3 => capacity.saturating_sub(len),
        4 => capacity.saturating_sub(len) + 1,
        _ => u64::MAX - off % len.max(1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random access sequences through the sparse DRAM and a dense
    /// `Vec<u8>` model return identical bytes and identical `Ok`/`Err`, and
    /// the backing is exactly as large as the highest byte written.
    #[test]
    fn sparse_dram_matches_dense_reference(
        capacity in 1u64..2048,
        ops in collection::vec((0u8..5, 0u64..(1 << 20), 0u64..24, any::<u32>()), 6..48usize),
        rotate in 0usize..6,
    ) {
        let mut dram = Dram::new(capacity);
        let mut dense = vec![0u8; capacity as usize];
        let mut high = 0u64;
        // Stale contents that `read_i8_into` must discard.
        let mut buf = vec![0x55i8; 5];
        for (i, &(kind, off, len, seed)) in ops.iter().enumerate() {
            let words = len as usize / 4;
            let n = if kind == 1 || kind == 4 { words as u64 * 4 } else { len };
            let addr = place((i + rotate) % 6, off, n, dram.resident_bytes(), capacity);
            let range = dense_range(capacity, addr, n);
            match kind {
                0 => {
                    let bytes: Vec<i8> =
                        (0..n).map(|j| (u64::from(seed) + j * 37) as i8).collect();
                    prop_assert_eq!(dram.write_i8(addr, &bytes), range.clone().map(|_| ()));
                    if let Ok(r) = range {
                        for (d, &b) in dense[r].iter_mut().zip(&bytes) {
                            *d = b as u8;
                        }
                        if n > 0 {
                            high = high.max(addr + n);
                        }
                    }
                }
                1 => {
                    let vals: Vec<i32> = (0..words as u32)
                        .map(|j| seed.wrapping_mul(j + 1).wrapping_add(j) as i32)
                        .collect();
                    prop_assert_eq!(dram.write_i32(addr, &vals), range.clone().map(|_| ()));
                    if let Ok(r) = range {
                        let le: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
                        dense[r].copy_from_slice(&le);
                        if n > 0 {
                            high = high.max(addr + n);
                        }
                    }
                }
                2 => {
                    let want = range.map(|r| dense[r].iter().map(|&b| b as i8).collect());
                    prop_assert_eq!(dram.read_i8(addr, n), want);
                }
                3 => {
                    let got = dram.read_i8_into(addr, n, &mut buf);
                    match range {
                        Ok(r) => {
                            prop_assert_eq!(got, Ok(()));
                            let want: Vec<i8> = dense[r].iter().map(|&b| b as i8).collect();
                            prop_assert_eq!(&buf, &want);
                        }
                        Err(e) => prop_assert_eq!(got, Err(e)),
                    }
                }
                _ => {
                    let want = range.map(|r| {
                        dense[r]
                            .chunks_exact(4)
                            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                            .collect()
                    });
                    prop_assert_eq!(dram.read_i32(addr, words), want);
                }
            }
            prop_assert_eq!(dram.resident_bytes(), high, "op {} at {:#x}+{}", i, addr, n);
        }
        let all: Vec<i8> = dense.iter().map(|&b| b as i8).collect();
        prop_assert_eq!(dram.read_i8(0, capacity).unwrap(), all.clone());
        prop_assert_eq!(dram.clone().read_i8(0, capacity).unwrap(), all);
    }

    #[test]
    fn fast_equals_exact_under_random_full_override_faults(
        (model, image, targets, value, gated) in case()
    ) {
        let fault = FaultConfig::new(targets, FaultKind::Constant(value));
        let exact = run(&model, &image, ExecMode::Exact, gated, Some(&fault));
        let auto = run(&model, &image, ExecMode::Auto, gated, Some(&fault));
        prop_assert_eq!(exact, auto);
    }

    #[test]
    fn fault_free_engines_match_cpu_reference(
        (model, image, _, _, gated) in case()
    ) {
        let want = nvfi_quant::exec::forward(&model, &model.quantize_input(&image), 1);
        let exact = run(&model, &image, ExecMode::Exact, gated, None);
        let auto = run(&model, &image, ExecMode::Auto, gated, None);
        prop_assert_eq!(&exact, &want[0]);
        prop_assert_eq!(&auto, &want[0]);
    }

    /// Bit-granular faults run batched: `classify_batch_i8` in mini-batches
    /// of 4, and the logits of one batch, equal per-image runs of the exact
    /// oracle for random raw `sel`/`fsel`/`fdata`/`xor`, permanent and
    /// windowed. The batch is one launch, windowed or not: it retires the
    /// MAC cycles of all four images.
    #[test]
    fn batched_lane_delta_equals_per_image_runs(
        (model, _, _, _, gated) in case(),
        (sel, one_lane, fsel, fdata, xor) in
            (any::<u64>(), any::<bool>(), any::<u32>(), any::<u32>(), any::<u32>()),
        (windowed, w0, w1) in (any::<bool>(), any::<u64>(), any::<u64>()),
    ) {
        let plan = nvfi_compiler::compile(&model, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY)
            .expect("compiles");
        let shape = model.input_shape;
        let images = model.quantize_input(&Tensor::from_fn(shape.with_n(6), |n, c, h, w| {
            ((n * 13 + c * 7 + h * 3 + w + w0 as usize % 5) % 40) as f32 * 0.05 - 1.0
        }));
        let sel = if one_lane { 1 << (sel % 64) } else { sel };
        let total = plan.total_mac_cycles();
        let window = windowed.then(|| {
            let start = 1 + w0 % total;
            start..start + 1 + w1 % total
        });
        let device = |mode| {
            let mut a = Accelerator::new(AccelConfig {
                mode,
                idle_lanes: if gated { IdleLanePolicy::Gated } else { IdleLanePolicy::ZeroFed },
                batch: 4,
                ..Default::default()
            });
            a.load_plan(&plan).expect("loads");
            program(&mut a, sel, fsel, fdata, xor);
            a.set_fault_window(window.clone()).expect("window overlaps the plan");
            a
        };
        let len = shape.image_len();
        let mut exact = device(ExecMode::Exact);
        let want: Vec<Vec<i32>> = images
            .as_slice()
            .chunks(len)
            .map(|img| exact.run_inference_i8_view(img).expect("runs").logits)
            .collect();
        let mut auto = device(ExecMode::Auto);
        let batched: Vec<Vec<i32>> = auto
            .run_batch_i8_view(&images.as_slice()[..4 * len])
            .expect("runs")
            .into_iter()
            .map(|r| r.logits)
            .collect();
        prop_assert_eq!(&batched[..], &want[..4]);
        prop_assert_eq!(auto.mac_cycles_retired(), 4 * total);
        let classes: Vec<u8> = want.iter().map(|l| nvfi_quant::exec::argmax(l)).collect();
        prop_assert_eq!(auto.classify_batch_i8(images.as_slice()).expect("runs"), classes);
    }

    #[test]
    fn stuck_at_zero_equals_constant_zero(
        (model, image, targets, _, gated) in case()
    ) {
        let a = run(&model, &image, ExecMode::Auto, gated,
            Some(&FaultConfig::new(targets.clone(), FaultKind::StuckAtZero)));
        let b = run(&model, &image, ExecMode::Auto, gated,
            Some(&FaultConfig::new(targets, FaultKind::Constant(0))));
        prop_assert_eq!(a, b);
    }
}
