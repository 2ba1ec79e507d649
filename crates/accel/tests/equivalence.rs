//! The load-bearing correctness tests of the whole platform:
//!
//! 1. with no faults, the accelerator model matches the CPU reference
//!    executor **bit-exactly**;
//! 2. the lane-delta fault path matches the exact (per-product) oracle for
//!    every fault kind, lane set, window and idle-lane policy;
//! 3. register-level fault programming is equivalent to the high-level API;
//! 4. fault effects are confined to the mapped output channels.

use nvfi_accel::{
    AccelConfig, AccelError, Accelerator, ExecMode, FaultConfig, FaultKind, IdleLanePolicy,
    InferenceResult,
};
use nvfi_compiler::regmap::{self, MultId};
use nvfi_dataset::{SynthCifar, SynthCifarConfig};
use nvfi_nn::fold::fold_resnet;
use nvfi_nn::resnet::ResNet;
use nvfi_quant::{quantize, QuantConfig, QuantModel};
use nvfi_tensor::Tensor;

/// A device plus its plan's input scale, for tests written with f32 and
/// owned i8 images: they quantize on the host, then run the device's
/// borrowed-i8 entry point.
#[derive(Clone)]
struct Device {
    accel: Accelerator,
    input_scale: f32,
}

impl Device {
    fn of(accel: Accelerator, plan: &nvfi_compiler::ExecutionPlan) -> Self {
        Device {
            accel,
            input_scale: plan.input_scale,
        }
    }

    fn run_inference(&mut self, image: &Tensor<f32>) -> Result<InferenceResult, AccelError> {
        let qimage = nvfi_quant::batch::quantize_slice(image.as_slice(), self.input_scale);
        self.accel.run_inference_i8_view(&qimage)
    }

    fn run_inference_i8(&mut self, image: &Tensor<i8>) -> Result<InferenceResult, AccelError> {
        self.accel.run_inference_i8_view(image.as_slice())
    }
}

impl std::ops::Deref for Device {
    type Target = Accelerator;
    fn deref(&self) -> &Accelerator {
        &self.accel
    }
}

impl std::ops::DerefMut for Device {
    fn deref_mut(&mut self) -> &mut Accelerator {
        &mut self.accel
    }
}

fn build_model(width: usize, seed: u64) -> (QuantModel, nvfi_dataset::TrainTest) {
    let data = SynthCifar::new(SynthCifarConfig {
        train: 16,
        test: 8,
        ..Default::default()
    })
    .generate();
    let net = ResNet::new(width, &[1, 1], 10, seed);
    let deploy = fold_resnet(&net, 32);
    let q = quantize(&deploy, &data.train.images, &QuantConfig::default()).unwrap();
    (q, data)
}

fn accel_with(q: &QuantModel, mode: ExecMode, idle: IdleLanePolicy) -> Device {
    let plan = nvfi_compiler::compile(q, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).unwrap();
    let mut a = Accelerator::new(AccelConfig {
        mode,
        idle_lanes: idle,
        ..Default::default()
    });
    a.load_plan(&plan).unwrap();
    Device::of(a, &plan)
}

#[test]
fn fault_free_accel_matches_cpu_reference_bit_exactly() {
    let (q, data) = build_model(4, 3);
    let mut accel = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
    for n in 0..data.test.len() {
        let img = data.test.images.slice_image(n);
        let want = nvfi_quant::exec::forward(&q, &q.quantize_input(&img), 1);
        let got = accel.run_inference(&img).unwrap();
        assert_eq!(got.logits, want[0], "image {n}");
    }
}

#[test]
fn fault_free_exact_mode_also_matches_cpu_reference() {
    let (q, data) = build_model(4, 5);
    let mut accel = accel_with(&q, ExecMode::Exact, IdleLanePolicy::ZeroFed);
    let img = data.test.images.slice_image(0);
    let want = nvfi_quant::exec::forward(&q, &q.quantize_input(&img), 1);
    let got = accel.run_inference(&img).unwrap();
    assert_eq!(got.logits, want[0]);
}

#[test]
fn exact_gated_also_matches_cpu_reference_when_fault_free() {
    // Without faults, zero-fed idle lanes contribute zero products, so both
    // policies equal the reference.
    let (q, data) = build_model(4, 7);
    let mut accel = accel_with(&q, ExecMode::Exact, IdleLanePolicy::Gated);
    let img = data.test.images.slice_image(1);
    let want = nvfi_quant::exec::forward(&q, &q.quantize_input(&img), 1);
    let got = accel.run_inference(&img).unwrap();
    assert_eq!(got.logits, want[0]);
}

#[test]
fn auto_equals_exact_for_full_override_faults() {
    let (q, data) = build_model(4, 11);
    // A spread of fault configurations across values and lane positions,
    // including multi-lane sets.
    let cases: Vec<(Vec<MultId>, FaultKind)> = vec![
        (vec![MultId::new(0, 0)], FaultKind::StuckAtZero),
        (vec![MultId::new(0, 7)], FaultKind::Constant(-1)),
        (vec![MultId::new(3, 2)], FaultKind::Constant(1)),
        (vec![MultId::new(7, 7)], FaultKind::Constant(131071)),
        (vec![MultId::new(5, 1)], FaultKind::Constant(-131072)),
        (
            vec![MultId::new(0, 1), MultId::new(2, 6), MultId::new(4, 4)],
            FaultKind::Constant(-1),
        ),
        (MultId::all().collect(), FaultKind::StuckAtZero),
    ];
    for idle in [IdleLanePolicy::ZeroFed, IdleLanePolicy::Gated] {
        for (targets, kind) in &cases {
            let mut exact = accel_with(&q, ExecMode::Exact, idle);
            let mut auto = accel_with(&q, ExecMode::Auto, idle);
            let cfg = FaultConfig::new(targets.clone(), *kind);
            exact.inject(&cfg);
            auto.inject(&cfg);
            for n in 0..3 {
                let img = data.test.images.slice_image(n);
                let a = exact.run_inference(&img).unwrap();
                let b = auto.run_inference(&img).unwrap();
                assert_eq!(
                    a.logits, b.logits,
                    "targets {targets:?} kind {kind:?} idle {idle:?} image {n}"
                );
            }
        }
    }
}

#[test]
fn register_programming_equals_api_injection() {
    let (q, data) = build_model(4, 13);
    let cfg = FaultConfig::new(
        vec![MultId::new(1, 7), MultId::new(6, 0)],
        FaultKind::Constant(1),
    );

    let mut via_api = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
    via_api.inject(&cfg);

    let mut via_regs = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
    // Program the same thing with raw AXI4-Lite writes.
    let sel: u64 = (1 << MultId::new(1, 7).lane()) | (1 << MultId::new(6, 0).lane());
    via_regs
        .csb_write(regmap::REG_FI_SEL_A, sel as u32)
        .unwrap();
    via_regs
        .csb_write(regmap::REG_FI_SEL_B, (sel >> 32) as u32)
        .unwrap();
    via_regs.csb_write(regmap::REG_FI_FSEL, 0x3FFFF).unwrap();
    via_regs.csb_write(regmap::REG_FI_FDATA, 1).unwrap();
    via_regs.csb_write(regmap::REG_FI_CTRL, 1).unwrap();

    let img = data.test.images.slice_image(0);
    assert_eq!(
        via_api.run_inference(&img).unwrap().logits,
        via_regs.run_inference(&img).unwrap().logits
    );
}

#[test]
fn faults_actually_corrupt_outputs() {
    let (q, data) = build_model(4, 17);
    let mut clean = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
    let mut faulty = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
    faulty.inject(&FaultConfig::new(
        MultId::all().collect(),
        FaultKind::Constant(131071),
    ));
    let img = data.test.images.slice_image(0);
    let a = clean.run_inference(&img).unwrap();
    let b = faulty.run_inference(&img).unwrap();
    assert_ne!(
        a.logits, b.logits,
        "an all-lane max-value fault must corrupt the logits"
    );
}

#[test]
fn clear_faults_restores_clean_behaviour() {
    let (q, data) = build_model(4, 19);
    let mut accel = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
    let img = data.test.images.slice_image(2);
    let clean = accel.run_inference(&img).unwrap().logits;
    accel.inject(&FaultConfig::new(
        vec![MultId::new(2, 2)],
        FaultKind::StuckAtZero,
    ));
    let _ = accel.run_inference(&img).unwrap();
    accel.clear_faults();
    assert_eq!(accel.run_inference(&img).unwrap().logits, clean);
}

#[test]
fn flip_bits_fault_is_an_involution() {
    // Running with a flip fault twice in a row gives the same (faulted)
    // result, and the faulted result differs from clean; flipping the same
    // wires via two stacked runs is not expressible, but the injector-level
    // involution is covered in unit tests — here we check end-to-end effect
    // and that Auto's lane-delta equals the exact engine.
    let (q, data) = build_model(4, 43);
    let img = data.test.images.slice_image(0);
    let mut clean = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
    let clean_logits = clean.run_inference(&img).unwrap().logits;

    let cfg = FaultConfig::new(
        vec![MultId::new(0, 0)],
        FaultKind::FlipBits { mask: 1 << 16 },
    );
    let mut auto = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
    let mut exact = accel_with(&q, ExecMode::Exact, IdleLanePolicy::ZeroFed);
    auto.inject(&cfg);
    exact.inject(&cfg);
    let a = auto.run_inference(&img).unwrap().logits;
    let e = exact.run_inference(&img).unwrap().logits;
    assert_eq!(a, e, "Auto must equal the exact engine on flip faults");
    assert_ne!(
        a, clean_logits,
        "a bit-16 flip on a busy lane must be visible"
    );
}

#[test]
fn auto_mode_handles_bit_faults_via_exact_path() {
    let (q, data) = build_model(4, 29);
    let mut auto = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
    let mut exact = accel_with(&q, ExecMode::Exact, IdleLanePolicy::ZeroFed);
    let cfg = FaultConfig::new(
        vec![MultId::new(0, 0)],
        FaultKind::StuckBits {
            fsel: 1 << 17,
            fdata: 1 << 17,
        }, // sign wire stuck at 1
    );
    auto.inject(&cfg);
    exact.inject(&cfg);
    let img = data.test.images.slice_image(0);
    assert_eq!(
        auto.run_inference(&img).unwrap().logits,
        exact.run_inference(&img).unwrap().logits
    );
}

#[test]
fn single_lane_fault_in_single_conv_touches_only_mapped_channels() {
    // Build a single-conv network by hand and verify the mapping invariant:
    // a fault on MAC m only perturbs output channels k with k % 8 == m.
    use nvfi_hwnum::Requant;
    use nvfi_quant::{QConv, QLinear, QOp, QOpKind};
    use nvfi_tensor::{Mat, Shape4};

    let k = 16usize;
    let c = 8usize;
    let weight = Tensor::from_fn(Shape4::new(k, c, 3, 3), |k, c, r, s| {
        (((k * 31 + c * 17 + r * 5 + s) % 11) as i8) - 5
    });
    let q = QuantModel {
        input_shape: Shape4::new(1, c, 8, 8),
        input_scale: 0.05,
        ops: vec![
            QOp {
                input: 0,
                kind: QOpKind::Conv(QConv {
                    weight,
                    bias: vec![0; k],
                    stride: 1,
                    pad: 1,
                    relu: false,
                    fuse_add: None,
                    requant: vec![Requant::from_scale(0.02).unwrap()],
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
                    weight: Mat::from_vec(2, k, vec![1i8; 2 * k]),
                    bias: vec![0; 2],
                    out_scale: 0.1,
                }),
                out_scale: 0.1,
            },
        ],
        output: 3,
    };
    let plan = nvfi_compiler::compile(&q, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).unwrap();
    let img = Tensor::from_fn(Shape4::new(1, c, 8, 8), |_, c, h, w| {
        ((c * 13 + h * 3 + w) % 17) as f32 * 0.01
    });

    // Read the conv output surface directly for clean vs faulted runs.
    let conv_out_addr = match &plan.ops[0] {
        nvfi_compiler::PlanOp::Conv(cv) => cv.output_addr,
        _ => unreachable!(),
    };
    let surf_bytes = nvfi_compiler::surface::surface_bytes(k, 8, 8) as u64;
    let out_shape = Shape4::new(1, k, 8, 8);

    let mut clean = Device::of(Accelerator::new(AccelConfig::default()), &plan);
    clean.load_plan(&plan).unwrap();
    clean.run_inference(&img).unwrap();
    let clean_surface = clean.dma_read(conv_out_addr, surf_bytes).unwrap();
    let clean_out = nvfi_compiler::surface::unpack_surface(&clean_surface, out_shape);

    let target_mac = 3u8;
    let mut faulty = Device::of(Accelerator::new(AccelConfig::default()), &plan);
    faulty.load_plan(&plan).unwrap();
    faulty.inject(&FaultConfig::new(
        vec![MultId::new(target_mac, 5)],
        FaultKind::Constant(-1),
    ));
    faulty.run_inference(&img).unwrap();
    let f_surface = faulty.dma_read(conv_out_addr, surf_bytes).unwrap();
    let fault_out = nvfi_compiler::surface::unpack_surface(&f_surface, out_shape);

    let mut touched = Vec::new();
    for kk in 0..k {
        let differs =
            (0..8).any(|h| (0..8).any(|w| clean_out.at(0, kk, h, w) != fault_out.at(0, kk, h, w)));
        if differs {
            touched.push(kk);
        }
        if kk % 8 != target_mac as usize {
            assert!(
                !differs,
                "channel {kk} not mapped to MAC {target_mac} but changed"
            );
        }
    }
    assert!(!touched.is_empty(), "fault had no visible effect");
    assert!(touched.iter().all(|kk| kk % 8 == target_mac as usize));
}

#[test]
fn idle_lane_policy_matters_for_narrow_layers() {
    // The 3-channel stem leaves lanes 3..8 idle. A fault on an idle lane
    // corrupts ZeroFed results but not Gated results *in the stem*; use a
    // single-conv model so only the stem exists.
    use nvfi_hwnum::Requant;
    use nvfi_quant::{QConv, QLinear, QOp, QOpKind};
    use nvfi_tensor::{Mat, Shape4};

    // 6 output channels keep lane 6 idle in the linear head too (its input
    // width is 6, so multiplier 6 never sees a real channel anywhere).
    let weight = Tensor::from_fn(Shape4::new(6, 3, 3, 3), |k, c, r, s| {
        (((k * 7 + c * 3 + r + s) % 9) as i8) - 4
    });
    let q = QuantModel {
        input_shape: Shape4::new(1, 3, 8, 8),
        input_scale: 0.05,
        ops: vec![
            QOp {
                input: 0,
                kind: QOpKind::Conv(QConv {
                    weight,
                    bias: vec![0; 6],
                    stride: 1,
                    pad: 1,
                    relu: false,
                    fuse_add: None,
                    requant: vec![Requant::from_scale(0.05).unwrap()],
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
                    weight: Mat::from_vec(2, 6, (0..12).map(|v| v as i8 - 6).collect()),
                    bias: vec![0; 2],
                    out_scale: 0.1,
                }),
                out_scale: 0.1,
            },
        ],
        output: 3,
    };
    let plan = nvfi_compiler::compile(&q, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).unwrap();
    let img = Tensor::from_fn(Shape4::new(1, 3, 8, 8), |_, c, h, w| {
        ((c + h + w) % 5) as f32 * 0.02
    });
    // Fault an idle lane (mult 6 serves channels 6, 14, ... — none exist).
    let cfg = FaultConfig::new(vec![MultId::new(0, 6)], FaultKind::Constant(1000));

    let run = |idle: IdleLanePolicy, faulted: bool| {
        let accel = Accelerator::new(AccelConfig {
            idle_lanes: idle,
            ..Default::default()
        });
        let mut a = Device::of(accel, &plan);
        a.load_plan(&plan).unwrap();
        if faulted {
            a.inject(&cfg);
        }
        a.run_inference(&img).unwrap().logits
    };

    let clean = run(IdleLanePolicy::ZeroFed, false);
    assert_eq!(clean, run(IdleLanePolicy::Gated, false));
    // Gated: idle-lane fault is invisible.
    assert_eq!(clean, run(IdleLanePolicy::Gated, true));
    // ZeroFed: the forced products enter the adder tree.
    assert_ne!(clean, run(IdleLanePolicy::ZeroFed, true));
}

#[test]
fn transient_window_limits_fault_scope() {
    let (q, data) = build_model(4, 31);
    let img = data.test.images.slice_image(0);

    let mut clean = accel_with(&q, ExecMode::Exact, IdleLanePolicy::ZeroFed);
    let _ = clean.run_inference(&img).unwrap();
    let total_cycles = clean.mac_cycles_retired();
    assert_eq!(
        Some(total_cycles),
        clean.total_mac_cycles(),
        "retired counter must agree with the plan schedule table"
    );

    // Window entirely after the run: rejected as a silent no-op (it used to
    // run a fault-free campaign at exact-engine cost).
    let mut late = accel_with(&q, ExecMode::Exact, IdleLanePolicy::ZeroFed);
    late.inject(&FaultConfig::new(
        MultId::all().collect(),
        FaultKind::Constant(131071),
    ));
    let err = late
        .set_fault_window(Some(total_cycles * 10..total_cycles * 11))
        .unwrap_err();
    assert!(
        err.to_string().contains("cannot overlap any MAC cycle"),
        "unexpected message: {err}"
    );
    // Same for a window that ends before the first cycle retires, and for
    // an empty window.
    assert!(late.set_fault_window(Some(0..1)).is_err());
    assert!(late.set_fault_window(Some(10..10)).is_err());

    // Window covering the whole first inference: same as permanent.
    let mut pulse = accel_with(&q, ExecMode::Exact, IdleLanePolicy::ZeroFed);
    pulse.inject(&FaultConfig::new(
        MultId::all().collect(),
        FaultKind::Constant(131071),
    ));
    pulse.set_fault_window(Some(0..total_cycles + 1)).unwrap();
    let mut permanent = accel_with(&q, ExecMode::Exact, IdleLanePolicy::ZeroFed);
    permanent.inject(&FaultConfig::new(
        MultId::all().collect(),
        FaultKind::Constant(131071),
    ));
    assert_eq!(
        pulse.run_inference(&img).unwrap().logits,
        permanent.run_inference(&img).unwrap().logits
    );
}

/// A window programmed before any plan is loaded (nothing to validate
/// against yet) — or left over from a previous plan — is re-validated when
/// a plan is installed: a stale past-the-end window would otherwise
/// silently disarm every injection under op-scoped execution.
#[test]
fn stale_window_is_revalidated_at_plan_load() {
    let (q, _) = build_model(4, 67);
    let plan = nvfi_compiler::compile(&q, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).unwrap();
    let mut a = Accelerator::new(AccelConfig::default());
    // No plan yet: the window is accepted provisionally...
    a.set_fault_window(Some(u64::MAX - 10..u64::MAX)).unwrap();
    // ...and rejected by the loader of a plan it cannot overlap.
    assert!(matches!(
        a.load_plan(&plan),
        Err(nvfi_accel::AccelError::BadPlan(_))
    ));
    // A window the plan can observe survives the load.
    a.set_fault_window(Some(1..100)).unwrap();
    a.load_plan(&plan).unwrap();
    assert!(a.total_mac_cycles().unwrap() >= 100);
}

/// Exhaustive window-placement equivalence of op-scoped execution: for a
/// window aligned to every op boundary, covering single ops, straddling op
/// pairs, and clipping single cycles, the Auto-mode pipeline
/// (prefix-fast / window-exact / suffix-fast) must match the all-exact
/// ground truth bit for bit — for a full-override fault *and* a
/// bit-granular flip fault.
#[test]
fn op_scoped_window_placement_matches_all_exact() {
    let (q, data) = build_model(4, 59);
    let img = data.test.images.slice_image(0);
    let probe = accel_with(&q, ExecMode::Exact, IdleLanePolicy::ZeroFed);
    let spans: Vec<_> = probe.mac_cycle_spans().to_vec();
    let total = probe.total_mac_cycles().unwrap();
    let mac_spans: Vec<_> = spans.iter().filter(|s| !s.is_empty()).cloned().collect();
    assert!(mac_spans.len() >= 3, "fixture has several MAC ops");

    let mut windows: Vec<std::ops::Range<u64>> = Vec::new();
    for s in &mac_spans {
        // Exactly one op.
        windows.push(s.clone());
        // A single cycle inside the op.
        let mid = s.start + (s.end - s.start) / 2;
        windows.push(mid..mid + 1);
    }
    for w in mac_spans.windows(2) {
        // Straddling two (or more) ops: mid of one to mid of the next.
        let a = w[0].start + (w[0].end - w[0].start) / 2;
        let b = w[1].start + (w[1].end - w[1].start) / 2;
        windows.push(a..b);
    }
    // The whole inference, and a window overhanging the end.
    windows.push(1..total + 1);
    windows.push(total..total * 2);

    let faults = [
        FaultConfig::new(MultId::all().collect(), FaultKind::Constant(131071)),
        FaultConfig::new(
            vec![MultId::new(0, 0), MultId::new(3, 2)],
            FaultKind::FlipBits { mask: 1 << 16 },
        ),
    ];
    let mut any_corruption = false;
    let clean_logits = {
        let mut a = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
        a.run_inference(&img).unwrap().logits
    };
    for fault in &faults {
        for w in &windows {
            let mut exact = accel_with(&q, ExecMode::Exact, IdleLanePolicy::ZeroFed);
            let mut scoped = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
            exact.inject(fault);
            scoped.inject(fault);
            exact.set_fault_window(Some(w.clone())).unwrap();
            scoped.set_fault_window(Some(w.clone())).unwrap();
            let a = exact.run_inference(&img).unwrap();
            let b = scoped.run_inference(&img).unwrap();
            assert_eq!(
                a.logits, b.logits,
                "op-scoped != all-exact for window {w:?} fault {fault:?}"
            );
            assert_eq!(
                exact.mac_cycles_retired(),
                scoped.mac_cycles_retired(),
                "cycle accounting must be path-independent (window {w:?})"
            );
            any_corruption |= a.logits != clean_logits;
        }
    }
    assert!(
        any_corruption,
        "at least one windowed fault must perturb the logits"
    );
}

/// The golden-prefix protocol at engine level: capturing the boundary's
/// live-in surfaces after a fault-free prefix run and restoring them into
/// a suffix run reproduces the full windowed inference bit for bit, for
/// every op boundary.
#[test]
fn golden_prefix_restore_is_bit_identical() {
    let (q, data) = build_model(4, 61);
    let plan = nvfi_compiler::compile(&q, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).unwrap();
    let img_f32 = data.test.images.slice_image(0);
    let img = q.quantize_input(&img_f32);
    let probe = accel_with(&q, ExecMode::Exact, IdleLanePolicy::ZeroFed);
    let spans: Vec<_> = probe.mac_cycle_spans().to_vec();

    for (boundary, span) in spans.iter().enumerate().take(plan.ops.len()).skip(1) {
        if span.is_empty() {
            continue; // pool op: no MAC cycles, no window can bite here
        }
        let window = span.clone();
        let fault = FaultConfig::new(MultId::all().collect(), FaultKind::Constant(131071));

        // Ground truth: the full op-scoped windowed run.
        let mut full = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
        full.inject(&fault);
        full.set_fault_window(Some(window.clone())).unwrap();
        let want = full.run_inference_i8(&img).unwrap();

        // Golden capture (fault-free), then restore + suffix under fault.
        let mut golden = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
        let surfaces = plan.live_in_surfaces(boundary);
        let mut data = Vec::new();
        golden
            .run_prefix_i8_view(img.as_slice(), boundary, &surfaces, &mut data)
            .unwrap();
        let dram: Vec<i8> = surfaces
            .iter()
            .flat_map(|&(addr, bytes)| golden.dma_read(addr, bytes).unwrap())
            .collect();
        assert_eq!(
            data, dram,
            "a one-image capture records the boundary's DRAM state (boundary {boundary})"
        );
        golden.inject(&fault);
        golden.set_fault_window(Some(window.clone())).unwrap();
        let got = golden
            .run_suffix_i8_view(boundary, &surfaces, &data)
            .unwrap()
            .remove(0);
        assert_eq!(
            want.logits, got.logits,
            "golden restore diverged at boundary {boundary} (window {window:?})"
        );
        assert_eq!(
            full.mac_cycles_retired(),
            golden.mac_cycles_retired(),
            "suffix run must end on the same retired count (boundary {boundary})"
        );
    }
}

/// A plan that decodes but whose second op reads a surface nothing writes:
/// a one-image launch reads that surface from DRAM and runs, and a
/// mini-batch launch, which keeps its surfaces off DRAM, returns
/// `BadPlan` instead of panicking.
#[test]
fn batched_launch_rejects_a_plan_reading_an_unwritten_surface() {
    use nvfi_compiler::PlanOp;

    let (q, data) = build_model(4, 71);
    let mut plan = nvfi_compiler::compile(&q, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).unwrap();
    let unwritten = plan.dram_size.next_multiple_of(64);
    match &mut plan.ops[1] {
        PlanOp::Conv(c) => c.input_addr = unwritten,
        PlanOp::Pool(p) => p.input_addr = unwritten,
        PlanOp::Linear(l) => l.input_addr = unwritten,
    }
    let words = nvfi_compiler::plan::encode_words(&plan);
    assert!(nvfi_compiler::plan::decode_words(&words).is_ok());

    let mut accel = Accelerator::new(AccelConfig::default());
    accel.load_plan(&plan).unwrap();
    let images = q.quantize_input(&data.test.images);
    accel.run_inference_i8_view(images.image(0)).unwrap();
    let two = &images.as_slice()[..2 * images.shape().image_len()];
    assert!(matches!(
        accel.run_batch_i8_view(two),
        Err(AccelError::BadPlan(_))
    ));
}

/// A one-image launch never reads a surface-map entry an earlier launch
/// left behind: after a mini-batch and image A's golden prefix, restoring
/// image B's live-ins reproduces a cold device's full run of B.
#[test]
fn golden_restore_on_a_dirty_device_matches_a_cold_run() {
    let (q, data) = build_model(4, 73);
    let plan = nvfi_compiler::compile(&q, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).unwrap();
    let images = q.quantize_input(&data.test.images);
    let (a, b) = (images.image(0), images.image(1));
    let boundary = plan.ops.len() / 2;
    let surfaces = plan.live_in_surfaces(boundary);

    let mut capture = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
    let mut live_in_b = Vec::new();
    capture
        .run_prefix_i8_view(b, boundary, &surfaces, &mut live_in_b)
        .unwrap();

    let mut dirty = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
    dirty.run_batch_i8_view(images.as_slice()).unwrap();
    dirty
        .run_prefix_i8_view(a, boundary, &surfaces, &mut Vec::new())
        .unwrap();
    let got = dirty
        .run_suffix_i8_view(boundary, &surfaces, &live_in_b)
        .unwrap();

    let mut cold = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
    assert_eq!(got[0].logits, cold.run_inference_i8_view(b).unwrap().logits);
}

#[test]
fn plan_via_command_fifo_matches_direct_load() {
    let (q, data) = build_model(4, 37);
    let plan = nvfi_compiler::compile(&q, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).unwrap();

    let mut direct = Device::of(Accelerator::new(AccelConfig::default()), &plan);
    direct.load_plan(&plan).unwrap();

    let mut streamed = Device::of(Accelerator::new(AccelConfig::default()), &plan);
    streamed
        .apply_reg_stream(&nvfi_compiler::plan::encode_reg_stream(&plan))
        .unwrap();
    streamed.commit_cmd_fifo().unwrap();
    // Weights arrive by DMA, as a real driver would do it.
    for (addr, bytes) in &plan.weight_image {
        streamed.dma_write(*addr, bytes).unwrap();
    }

    let img = data.test.images.slice_image(0);
    assert_eq!(
        direct.run_inference(&img).unwrap().logits,
        streamed.run_inference(&img).unwrap().logits
    );
}

#[test]
fn weight_memory_seu_perturbs_and_double_flip_restores() {
    let (q, data) = build_model(4, 47);
    let plan = nvfi_compiler::compile(&q, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).unwrap();
    let mut accel = Device::of(Accelerator::new(AccelConfig::default()), &plan);
    accel.load_plan(&plan).unwrap();
    let img = data.test.images.slice_image(0);
    let clean = accel.run_inference(&img).unwrap().logits;

    // Flip the MSB of a weight byte in the first conv's region.
    let (addr, _) = &plan.weight_image[0];
    accel.flip_dram_bit(*addr, 7).unwrap();
    let faulted = accel.run_inference(&img).unwrap().logits;
    assert_ne!(clean, faulted, "a weight-memory SEU must be visible");

    // SEU is a bit flip: flipping again restores the original behaviour.
    accel.flip_dram_bit(*addr, 7).unwrap();
    assert_eq!(accel.run_inference(&img).unwrap().logits, clean);
}

#[test]
fn perf_report_is_stable_and_fault_independent() {
    let (q, data) = build_model(4, 41);
    let mut a = accel_with(&q, ExecMode::Auto, IdleLanePolicy::ZeroFed);
    let img = data.test.images.slice_image(0);
    let r1 = a.run_inference(&img).unwrap().perf;
    a.inject(&FaultConfig::new(
        vec![MultId::new(0, 0)],
        FaultKind::StuckAtZero,
    ));
    let r2 = a.run_inference(&img).unwrap().perf;
    // FI muxes are combinational: latency identical with and without faults.
    assert_eq!(r1.total_cycles, r2.total_cycles);
    assert!(r1.latency_ms() > 0.0);
}

/// A three-conv + pool + linear network shaped to hit every lane-delta
/// corner: channel counts that are not multiples of 8 (idle multipliers in
/// ragged channel blocks), kernel counts that leave kernel-tail MACs, a 3x3
/// stride-2 padded conv, a 1x1 conv, and the linear head.
fn lane_delta_model() -> QuantModel {
    use nvfi_hwnum::Requant;
    use nvfi_quant::{QConv, QLinear, QOp, QOpKind};
    use nvfi_tensor::{Mat, Shape4};

    let conv = |k: usize, c: usize, r: usize, stride: usize, pad: usize, salt: usize| {
        let weight = Tensor::from_fn(Shape4::new(k, c, r, r), |k2, c2, r2, s2| {
            match (k2 * 37 + c2 * 11 + r2 * 5 + s2 + salt) % 23 {
                0 => -128,
                1 => 127,
                v => v as i8 - 11,
            }
        });
        QConv {
            weight,
            bias: (0..k).map(|i| i as i32 * 7 - 20).collect(),
            stride,
            pad,
            relu: salt != 2,
            fuse_add: None,
            requant: vec![Requant::from_scale(0.004).unwrap()],
            add_requant: None,
            out_scale: 0.1,
        }
    };
    let op = |input: usize, kind: QOpKind| QOp {
        input,
        kind,
        out_scale: 0.1,
    };
    QuantModel {
        input_shape: Shape4::new(1, 5, 7, 7),
        input_scale: 0.01,
        ops: vec![
            op(0, QOpKind::Conv(conv(11, 5, 3, 2, 1, 0))),
            op(1, QOpKind::Conv(conv(13, 11, 1, 1, 0, 1))),
            op(2, QOpKind::Conv(conv(6, 13, 3, 1, 1, 2))),
            op(3, QOpKind::GlobalAvgPool),
            op(
                4,
                QOpKind::Linear(QLinear {
                    weight: Mat::from_vec(3, 6, (0..18).map(|i| (i * 29 % 255) as i8).collect()),
                    bias: vec![5, -3, 0],
                    out_scale: 0.1,
                }),
            ),
        ],
        output: 5,
    }
}

/// Exhaustive lane-delta proof: the default engine (clean GEMM plus sparse
/// per-lane corrections) equals the per-product [`ExecMode::Exact`] oracle
/// bit for bit — every conv output surface, the logits and the retired
/// cycle count — for every fault kind x lane set x window x idle-lane
/// policy on [`lane_delta_model`]. Each case also runs the two images as
/// one batch and, under a window, as a golden-prefix restore plus suffix.
#[test]
fn lane_delta_matches_exact_exhaustively() {
    use nvfi_compiler::PlanOp;

    let q = lane_delta_model();
    let plan = nvfi_compiler::compile(&q, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).unwrap();
    let shape = q.input_shape;
    let images = q.quantize_input(&Tensor::from_fn(shape.with_n(2), |n, c, h, w| {
        ((n * 31 + c * 17 + h * 7 + w * 3) % 41) as f32 * 0.06 - 1.2
    }));
    let image_len = shape.image_len();
    let surfaces: Vec<(u64, u64)> = plan
        .ops
        .iter()
        .filter_map(|op| match op {
            PlanOp::Conv(c) => Some((
                c.output_addr,
                nvfi_compiler::surface::surface_bytes(c.geom.k, c.geom.oh, c.geom.ow) as u64,
            )),
            _ => None,
        })
        .collect();

    // (fsel, fdata, xor) as programmed into the injector registers.
    let kinds = [
        FaultKind::StuckAtZero,
        FaultKind::Constant(0),
        FaultKind::Constant(1),
        FaultKind::Constant(-1),
        FaultKind::Constant(131071),
        FaultKind::Constant(-131071),
        FaultKind::StuckBits {
            fsel: 1 << 17,
            fdata: 1 << 17,
        },
        FaultKind::StuckBits {
            fsel: 0b11,
            fdata: 0b01,
        },
        FaultKind::FlipBits {
            mask: (1 << 16) | 1,
        },
    ];
    let mut muxes: Vec<(u32, u32, u32)> = kinds.iter().map(|k| k.registers()).collect();
    muxes.extend([
        (0x0F0F0, 0x0A0A0, 0x00101),
        (1 << 17, 0, 0x3FFFF),
        (0x3FFFF, 0x12345, 0x10001),
    ]);
    let lane = |mac, mult| 1u64 << MultId::new(mac, mult).lane();
    let lane_sets = [
        lane(1, 2),
        0xFF << 16,
        u64::MAX,
        // Multipliers 6 and 7 never see a real channel of the 5-channel
        // stem or the 6-input head, and only partly in the 11/13 layers.
        lane(0, 6) | lane(0, 7) | lane(4, 6) | lane(4, 7),
        // MACs 6 and 7 sit past K in the 6-kernel conv and the 3-class
        // head, and in the second kernel group of the 11/13 layers.
        lane(6, 0) | lane(7, 3) | lane(7, 5),
    ];

    let probe = accel_with(&q, ExecMode::Exact, IdleLanePolicy::ZeroFed);
    let spans = probe.mac_cycle_spans().to_vec();
    let total = probe.total_mac_cycles().unwrap();
    let (a, b, c) = (&spans[0], &spans[1], &spans[2]);
    let windows = [
        None,
        Some(c.start + 5..c.end - 5),
        Some(a.start + (a.end - a.start) / 2..b.start + 3),
        Some(b.start + 7..b.start + 8),
        Some(0..a.start + 40),
        Some(0..total + 10),
    ];

    let mut perturbed = 0;
    for idle in [IdleLanePolicy::ZeroFed, IdleLanePolicy::Gated] {
        let exact_proto = accel_with(&q, ExecMode::Exact, idle);
        let auto_proto = accel_with(&q, ExecMode::Auto, idle);
        let clean = auto_proto
            .clone()
            .run_inference_i8_view(&images.as_slice()[..image_len])
            .unwrap()
            .logits;
        for &(fsel, fdata, xor) in &muxes {
            for &sel in &lane_sets {
                for window in &windows {
                    let program = |proto: &Accelerator| {
                        let mut d = proto.clone();
                        for (addr, value) in [
                            (regmap::REG_FI_SEL_A, sel as u32),
                            (regmap::REG_FI_SEL_B, (sel >> 32) as u32),
                            (regmap::REG_FI_FSEL, fsel),
                            (regmap::REG_FI_FDATA, fdata),
                            (regmap::REG_FI_XOR, xor),
                            (regmap::REG_FI_CTRL, 1),
                        ] {
                            d.csb_write(addr, value).unwrap();
                        }
                        d.set_fault_window(window.clone()).unwrap();
                        d
                    };
                    let (mut exact, mut auto) = (program(&exact_proto), program(&auto_proto));
                    let case = format!(
                        "fsel {fsel:#x} fdata {fdata:#x} xor {xor:#x} sel {sel:#x} \
                         window {window:?} {idle:?}"
                    );
                    let mut want = Vec::new();
                    for img in images.as_slice().chunks(image_len) {
                        let e = exact.run_inference_i8_view(img).unwrap();
                        let l = auto.run_inference_i8_view(img).unwrap();
                        assert_eq!(e.logits, l.logits, "logits: {case}");
                        for &(addr, bytes) in &surfaces {
                            assert_eq!(
                                exact.dma_read(addr, bytes).unwrap(),
                                auto.dma_read(addr, bytes).unwrap(),
                                "conv surface {addr:#x}: {case}"
                            );
                        }
                        assert_eq!(exact.mac_cycles_retired(), auto.mac_cycles_retired());
                        perturbed += usize::from(e.logits != clean);
                        want.push(e.logits);
                    }
                    let batched: Vec<Vec<i32>> = auto
                        .run_batch_i8_view(images.as_slice())
                        .unwrap()
                        .into_iter()
                        .map(|r| r.logits)
                        .collect();
                    assert_eq!(batched, want, "batched: {case}");
                    let Some(w) = window else { continue };
                    let boundary = auto.first_op_in_window(w).unwrap();
                    let live_in = plan.live_in_surfaces(boundary);
                    let mut data = Vec::new();
                    auto.run_prefix_i8_view(images.as_slice(), boundary, &live_in, &mut data)
                        .unwrap();
                    let got: Vec<Vec<i32>> = auto
                        .run_suffix_i8_view(boundary, &live_in, &data)
                        .unwrap()
                        .into_iter()
                        .map(|r| r.logits)
                        .collect();
                    assert_eq!(got, want, "golden suffix: {case}");
                }
            }
        }
    }
    assert!(
        perturbed > 100,
        "only {perturbed} faulted runs moved the logits"
    );
}

/// A hand-built network for the batched executors the ResNet fixtures miss
/// (they have no max pool) or cover only at power-of-two widths: ragged
/// channels (5 -> 11 -> 11 -> 13 -> 6), a 3x3 pad-1 conv, a 2x2
/// stride-2 max pool, a stride-1 conv adding the pool's output as its
/// residual, a 1x1 stride-2 downsample, a 1x1 stride-1 conv (whose column
/// matrix is its input), the global average and the linear head.
fn pool_and_residual_model() -> QuantModel {
    use nvfi_nn::deploy::{DeployModel, DeployOp, DeployOpKind};
    use nvfi_tensor::{Mat, Shape4};

    // Deterministic weights in [-0.5, 0.5), distinct per layer.
    let wave = |i: usize, salt: usize| ((i * 7919 + salt * 104_729) % 1000) as f32 / 1000.0 - 0.5;
    let conv = |k: usize, c: usize, r: usize, stride: usize, pad: usize, salt: usize| {
        let shape = Shape4::new(k, c, r, r);
        let fuse_add = (salt == 2).then_some(2);
        DeployOpKind::Conv {
            weight: Tensor::from_fn(shape, |a, b, y, x| wave(shape.index(a, b, y, x), salt)),
            bias: (0..k).map(|i| wave(i, salt + 9) * 0.2).collect(),
            stride,
            pad,
            relu: salt != 4,
            fuse_add,
        }
    };
    let op = |input: usize, kind: DeployOpKind| DeployOp { input, kind };
    let input_shape = Shape4::new(1, 5, 8, 8);
    let deploy = DeployModel {
        input_shape,
        ops: vec![
            op(0, conv(11, 5, 3, 1, 1, 1)),
            op(1, DeployOpKind::MaxPool { k: 2, stride: 2 }),
            op(2, conv(11, 11, 3, 1, 1, 2)),
            op(3, conv(13, 11, 1, 2, 0, 3)),
            op(4, conv(6, 13, 1, 1, 0, 4)),
            op(5, DeployOpKind::GlobalAvgPool),
            op(
                6,
                DeployOpKind::Linear {
                    weight: Mat::from_vec(3, 6, (0..18).map(|i| wave(i, 5)).collect()),
                    bias: vec![0.1, -0.05, 0.0],
                },
            ),
        ],
        output: 7,
    };
    let calib = Tensor::from_fn(input_shape.with_n(4), |n, c, y, x| {
        wave(((n * 5 + c) * 8 + y) * 8 + x, 7) * 2.0
    });
    quantize(&deploy, &calib, &QuantConfig::default()).unwrap()
}

/// Batched max pool, residual add and 1x1 ops against the oracle: for every
/// mini-batch size 1-9, with no fault and under permanent two-lane
/// `Constant(±1)` overrides (one lane on an idle multiplier of the 5-channel
/// stem), `run_batch_i8_view` and `classify_batch_i8` give each image the
/// logits and prediction of its own `ExecMode::Exact` run, and retire the
/// same MAC cycles per image.
#[test]
fn batched_pool_and_residual_match_exact() {
    let q = pool_and_residual_model();
    let shape = q.input_shape;
    let images = q.quantize_input(&Tensor::from_fn(shape.with_n(9), |n, c, h, w| {
        ((n * 37 + c * 17 + h * 7 + w * 3) % 43) as f32 * 0.05 - 1.0
    }));
    let image_len = shape.image_len();
    let faults = [
        None,
        Some(FaultKind::Constant(1)),
        Some(FaultKind::Constant(-1)),
    ];
    let mut clean = Vec::new();
    for fault in faults {
        let program = |mode| {
            let mut d = accel_with(&q, mode, IdleLanePolicy::ZeroFed).accel;
            if let Some(kind) = fault {
                d.inject(&FaultConfig::new(
                    vec![MultId::new(1, 2), MultId::new(5, 7)],
                    kind,
                ));
            }
            d
        };
        let mut exact = program(ExecMode::Exact);
        let (mut want, mut cycles) = (Vec::new(), 0);
        for img in images.as_slice().chunks(image_len) {
            want.push(exact.run_inference_i8_view(img).unwrap().logits);
            cycles = exact.mac_cycles_retired();
        }
        if fault.is_none() {
            clean.clone_from(&want);
        } else {
            assert_ne!(want, clean, "{fault:?} moved no logit");
        }
        let mut auto = program(ExecMode::Auto);
        for b_n in 1..=9 {
            let batch = &images.as_slice()[..b_n * image_len];
            let got: Vec<Vec<i32>> = auto
                .run_batch_i8_view(batch)
                .unwrap()
                .into_iter()
                .map(|r| r.logits)
                .collect();
            assert_eq!(got, want[..b_n], "{fault:?}, batch of {b_n}");
            assert_eq!(auto.mac_cycles_retired(), b_n as u64 * cycles);
            let classes: Vec<u8> = want[..b_n]
                .iter()
                .map(|l| nvfi_quant::exec::argmax(l))
                .collect();
            assert_eq!(auto.classify_batch_i8(batch).unwrap(), classes);
            let last_launch = (b_n - 1) % auto.config().batch + 1;
            assert_eq!(auto.mac_cycles_retired(), last_launch as u64 * cycles);
        }
    }
    assert!(
        clean.windows(2).any(|w| w[0] != w[1]),
        "every image has the same logits"
    );
}

/// Windowed mini-batches against the oracle, with and without golden
/// restores: on [`pool_and_residual_model`], for windows inside the
/// residual conv (whose two live-ins share one surface), straddling the two
/// 1x1 convs and on the linear head, under both idle-lane policies and
/// two-lane `Constant(±1)` and `StuckBits` programs. Each mini-batch size
/// 1-9 walks the nine images the way a device pool does: per chunk, the
/// cached images run as one golden restore and the rest as one full
/// launch, with a full cache, a partial one (a chunk can hold both kinds)
/// and none. Every image gets the logits and prediction of its own
/// `ExecMode::Exact` run, and every launch retires the MAC cycles of all
/// its images. Batched captures record the same bytes as one-image ones.
#[test]
fn windowed_batches_match_exact() {
    let q = pool_and_residual_model();
    let plan = nvfi_compiler::compile(&q, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).unwrap();
    let n = 9;
    let images = q.quantize_input(&Tensor::from_fn(q.input_shape.with_n(n), |n, c, h, w| {
        ((n * 37 + c * 17 + h * 7 + w * 3) % 43) as f32 * 0.05 - 1.0
    }));
    let image_len = q.input_shape.image_len();
    let probe = accel_with(&q, ExecMode::Exact, IdleLanePolicy::ZeroFed);
    let spans = probe.mac_cycle_spans().to_vec();
    let total = probe.total_mac_cycles().unwrap();
    assert!(matches!(plan.ops[2], nvfi_compiler::PlanOp::Conv(ref c) if c.fuse_add_addr.is_some()));
    let head = spans.len() - 1;
    let windows = [
        spans[2].start + 3..spans[2].end - 3,
        spans[3].end - 4..spans[4].start + 4,
        spans[head].clone(),
    ];
    let kinds = [
        FaultKind::Constant(1),
        FaultKind::Constant(-1),
        FaultKind::StuckBits {
            fsel: 1 << 17,
            fdata: 1 << 17,
        },
    ];
    let mut perturbed = 0;
    for idle in [IdleLanePolicy::ZeroFed, IdleLanePolicy::Gated] {
        let clean = accel_with(&q, ExecMode::Exact, idle)
            .run_inference_i8_view(images.image(0))
            .unwrap()
            .logits;
        for window in &windows {
            let boundary = probe.first_op_in_window(window).unwrap();
            assert!(boundary > 0);
            let surfaces = plan.live_in_surfaces(boundary);
            let mut records = Vec::new();
            let mut capture = accel_with(&q, ExecMode::Auto, idle).accel;
            for img in images.as_slice().chunks(image_len) {
                capture
                    .run_prefix_i8_view(img, boundary, &surfaces, &mut records)
                    .unwrap();
            }
            for b_n in 2..=n {
                let mut batched = Vec::new();
                for imgs in images.as_slice().chunks(b_n * image_len) {
                    capture
                        .run_prefix_i8_view(imgs, boundary, &surfaces, &mut batched)
                        .unwrap();
                }
                assert_eq!(batched, records, "capture in batches of {b_n}");
            }
            let stride = records.len() / n;
            for kind in kinds {
                let program = |mode| {
                    let mut d = accel_with(&q, mode, idle).accel;
                    d.inject(&FaultConfig::new(
                        vec![MultId::new(1, 2), MultId::new(5, 7)],
                        kind,
                    ));
                    d.set_fault_window(Some(window.clone())).unwrap();
                    d
                };
                let mut exact = program(ExecMode::Exact);
                let want: Vec<(Vec<i32>, u8)> = images
                    .as_slice()
                    .chunks(image_len)
                    .map(|img| {
                        let r = exact.run_inference_i8_view(img).unwrap();
                        assert_eq!(exact.mac_cycles_retired(), total);
                        (r.logits, r.class)
                    })
                    .collect();
                perturbed += want.iter().filter(|(l, _)| *l != clean).count();
                let mut auto = program(ExecMode::Auto);
                for b_n in 1..=n {
                    for cached in [n, 4, 0] {
                        let case = format!(
                            "{kind:?} window {window:?} {idle:?}, batch {b_n}, {cached} cached"
                        );
                        let mut got = Vec::new();
                        for c0 in (0..n).step_by(b_n) {
                            let c1 = (c0 + b_n).min(n);
                            let split = cached.clamp(c0, c1);
                            if c0 < split {
                                let run = &records[c0 * stride..split * stride];
                                got.extend(
                                    auto.run_suffix_i8_view(boundary, &surfaces, run).unwrap(),
                                );
                                let cycles = auto.mac_cycles_retired();
                                assert_eq!(cycles, (split - c0) as u64 * total, "restore: {case}");
                            }
                            if split < c1 {
                                let run = &images.as_slice()[split * image_len..c1 * image_len];
                                got.extend(auto.run_batch_i8_view(run).unwrap());
                                let cycles = auto.mac_cycles_retired();
                                assert_eq!(cycles, (c1 - split) as u64 * total, "batch: {case}");
                            }
                        }
                        let got: Vec<(Vec<i32>, u8)> =
                            got.into_iter().map(|r| (r.logits, r.class)).collect();
                        assert_eq!(got, want, "{case}");
                    }
                }
            }
        }
    }
    assert!(
        perturbed > 50,
        "only {perturbed} windowed runs moved the logits"
    );
}
