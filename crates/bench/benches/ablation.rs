//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `Auto` vs `Exact` fault execution (the reason campaigns are feasible);
//! * idle-lane policy (ZeroFed vs Gated) — functional policy, identical
//!   cost expected;
//! * im2col+GEMM vs naive direct convolution;
//! * per-channel vs per-tensor weight quantization (executor cost).

use criterion::{criterion_group, criterion_main, Criterion};
use nvfi::{EmulationPlatform, PlatformConfig};
use nvfi_accel::{AccelConfig, ExecMode, FaultConfig, FaultKind, IdleLanePolicy};
use nvfi_bench::small_fixture;
use nvfi_compiler::regmap::MultId;
use nvfi_nn::fold::fold_resnet;
use nvfi_nn::resnet::ResNet;
use nvfi_quant::{quantize, QuantConfig};
use nvfi_tensor::{conv, ConvGeom, Shape4, Tensor};

fn bench_auto_vs_exact(c: &mut Criterion) {
    let (q, data) = small_fixture();
    let img = data.test.images.slice_image(0);
    let fault = FaultConfig::new(vec![MultId::new(0, 0)], FaultKind::StuckAtZero);
    let mut g = c.benchmark_group("ablation_fi_exec_mode");
    g.sample_size(10);
    for (label, mode) in [("auto", ExecMode::Auto), ("exact", ExecMode::Exact)] {
        let cfg = PlatformConfig {
            accel: AccelConfig {
                mode,
                ..Default::default()
            },
        };
        let mut platform = EmulationPlatform::assemble(&q, cfg).unwrap();
        platform.inject(&fault);
        g.bench_function(label, |b| b.iter(|| platform.run(&img).unwrap()));
    }
    g.finish();
}

fn bench_idle_lane_policy(c: &mut Criterion) {
    let (q, data) = small_fixture();
    let img = data.test.images.slice_image(0);
    let mut g = c.benchmark_group("ablation_idle_lanes");
    g.sample_size(10);
    for (label, idle) in [
        ("zero_fed", IdleLanePolicy::ZeroFed),
        ("gated", IdleLanePolicy::Gated),
    ] {
        let cfg = PlatformConfig {
            accel: AccelConfig {
                idle_lanes: idle,
                ..Default::default()
            },
        };
        let mut platform = EmulationPlatform::assemble(&q, cfg).unwrap();
        platform.inject(&FaultConfig::new(
            vec![MultId::new(1, 1)],
            FaultKind::Constant(1),
        ));
        g.bench_function(label, |b| b.iter(|| platform.run(&img).unwrap()));
    }
    g.finish();
}

fn bench_conv_kernels(c: &mut Criterion) {
    let input = Tensor::from_fn(Shape4::new(1, 16, 16, 16), |_, ch, h, w| {
        ((ch * 7 + h * 3 + w) % 251) as i8
    });
    let geom = ConvGeom::new(input.shape(), 16, 3, 3, 1, 1);
    let weights = Tensor::from_fn(geom.weight_shape(), |k, ch, r, s| {
        ((k + ch + r + s) % 17) as i8
    });
    let mut g = c.benchmark_group("ablation_conv_kernel");
    g.sample_size(10);
    g.bench_function("im2col_gemm", |b| {
        b.iter(|| conv::conv2d_i8(&input, &weights, &geom, 1))
    });
    g.bench_function("naive_direct", |b| {
        b.iter(|| conv::conv2d_i8_naive(&input, &weights, &geom))
    });
    g.finish();
}

fn bench_quant_granularity(c: &mut Criterion) {
    let data = nvfi_dataset::SynthCifar::new(nvfi_dataset::SynthCifarConfig {
        train: 8,
        test: 4,
        ..Default::default()
    })
    .generate();
    let net = ResNet::new(4, &[1, 1], 10, 42);
    let deploy = fold_resnet(&net, 32);
    let mut g = c.benchmark_group("ablation_quant_granularity");
    g.sample_size(10);
    for (label, per_channel) in [("per_channel", true), ("per_tensor", false)] {
        let q = quantize(
            &deploy,
            &data.train.images,
            &QuantConfig {
                per_channel,
                calib_chunk: 8,
            },
        )
        .unwrap();
        let input = q.quantize_input(&data.test.images.slice_image(0));
        g.bench_function(label, |b| {
            b.iter(|| nvfi_quant::exec::forward(&q, &input, 1))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_auto_vs_exact,
    bench_idle_lane_policy,
    bench_conv_kernels,
    bench_quant_granularity
);
criterion_main!(benches);
