//! Criterion bench behind Table I's latency rows: the int8 CPU reference
//! executor (1 and 4 threads) against the emulated accelerator's
//! functional fast path, clean and under faults. The accelerator's *FPGA* latency is a cycle model
//! (reported by the `table1` binary); this bench measures the software
//! cost of each engine.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nvfi::{EmulationPlatform, PlatformConfig};
use nvfi_accel::{FaultConfig, FaultKind};
use nvfi_bench::{medium_fixture, small_fixture};
use nvfi_compiler::regmap::MultId;
use nvfi_compiler::PlanOp;
use nvfi_hwnum::Requant;
use nvfi_quant::exec::sdp_postprocess;
use nvfi_tensor::{im2col, ConvGeom};

fn bench_cpu_reference(c: &mut Criterion) {
    let (q, data) = medium_fixture();
    let input = q.quantize_input(&data.test.images.slice_image(0));
    let mut g = c.benchmark_group("table1_inference");
    g.sample_size(10);
    g.bench_function("cpu_int8_1thread_w16", |b| {
        b.iter(|| nvfi_quant::exec::forward(&q, &input, 1))
    });
    g.bench_function("cpu_int8_4threads_w16", |b| {
        b.iter(|| nvfi_quant::exec::forward(&q, &input, 4))
    });
    g.finish();
}

fn bench_accelerator_emulation(c: &mut Criterion) {
    let (q, data) = small_fixture();
    let mut platform = EmulationPlatform::assemble(&q, PlatformConfig::default()).unwrap();
    let img = data.test.images.slice_image(0);
    let mut g = c.benchmark_group("table1_inference");
    g.sample_size(10);
    g.bench_function("accel_fast_path_w4", |b| {
        b.iter(|| platform.run(&img).unwrap())
    });
    g.finish();
}

/// Steady-state emulated inference on the medium (Table I width-16) fixture
/// — the number the zero-realloc hot path is judged on. Measures the
/// single-image path and the batched classify path over the whole test set,
/// then the single-image path under one fault per lane-delta class: a
/// 1-lane bit-granular `StuckBits` fault and a 7-lane `Constant(+1)`
/// override. A return to per-product or scalar fault execution shows up as
/// a multiple of the clean row.
fn bench_accelerator_medium(c: &mut Criterion) {
    let (q, data) = medium_fixture();
    let mut platform = EmulationPlatform::assemble(&q, PlatformConfig::default()).unwrap();
    let img = data.test.images.slice_image(0);
    let mut g = c.benchmark_group("inference_medium");
    g.sample_size(10);
    g.bench_function("accel_fast_path_w16", |b| {
        b.iter(|| platform.run(&img).unwrap())
    });
    g.bench_function("accel_classify8_w16", |b| {
        b.iter(|| platform.classify(&data.test.images).unwrap())
    });
    let stuck_bit12 = FaultKind::StuckBits {
        fsel: 1 << 12,
        fdata: 1 << 12,
    };
    let faults = [
        (
            "accel_stuckbits1_w16",
            FaultConfig::new(vec![MultId::new(0, 0)], stuck_bit12),
        ),
        (
            "accel_const7_w16",
            FaultConfig::new(
                (0..7).map(|i| MultId::new(i, i)).collect(),
                FaultKind::Constant(1),
            ),
        ),
    ];
    for (name, fault) in &faults {
        platform.inject(fault);
        g.bench_function(name, |b| b.iter(|| platform.run(&img).unwrap()));
        platform.clear_faults();
    }
    g.finish();
}

/// The SDP alone: `sdp_postprocess` over one 16x32x32 accumulator block
/// (the medium fixture's first stage) with a residual and ReLU, in the
/// engine's per-channel loop shape (bias and requantizers hoisted out of
/// the pixel loop). A return to a branchy or i128 requantizer shows up
/// here as a multiple.
fn bench_sdp(c: &mut Criterion) {
    let (k, pix) = (16usize, 32 * 32);
    // Conv-sized accumulators (about ±2^19) and a full-range residual.
    let acc: Vec<i32> = (0..k * pix)
        .map(|i| (i as i32).wrapping_mul(-1_640_531_527) >> 12)
        .collect();
    let res: Vec<i8> = (0..k * pix).map(|i| (i * 37 % 256) as u8 as i8).collect();
    let requant: Vec<Requant> = (0..k)
        .map(|ch| Requant::from_scale(2e-4 * (1.0 + ch as f64 / 8.0)).unwrap())
        .collect();
    let add_rq = Requant::from_scale(0.8).unwrap();
    let bias: Vec<i32> = (0..k as i32).map(|ch| ch * 1000 - 8000).collect();
    let mut out = vec![0i8; k * pix];
    let mut g = c.benchmark_group("inference_medium");
    g.sample_size(50);
    g.bench_function("sdp_w16", |b| {
        b.iter(|| {
            for ch in 0..k {
                let (rq, bias) = (requant[ch], bias[ch]);
                let rows = ch * pix..(ch + 1) * pix;
                let orow = &mut out[rows.clone()];
                for ((o, &a), &r) in orow.iter_mut().zip(&acc[rows.clone()]).zip(&res[rows]) {
                    *o = sdp_postprocess(a.wrapping_add(bias), rq, Some((r, add_rq)), true);
                }
            }
            let _ = black_box(&out);
        })
    });
    g.finish();
}

/// im2col alone: every conv of the medium fixture's plan lowered at the
/// batch-8 width campaigns run, through the engine's batch-innermost
/// kernel. A return to per-image column blocks, which copy runs `B` times
/// shorter, shows up here as a multiple.
fn bench_im2col(c: &mut Criterion) {
    let (q, _) = medium_fixture();
    let plan = nvfi_compiler::compile(&q, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).unwrap();
    let batch = 8;
    let mut convs: Vec<(ConvGeom, Vec<i8>, Vec<i8>)> = plan
        .ops
        .iter()
        .filter_map(|op| match op {
            PlanOp::Conv(conv) => Some(conv.geom),
            _ => None,
        })
        .map(|g| {
            let len = g.input.image_len() * batch;
            let input = (0..len).map(|i| (i * 37 % 251) as u8 as i8).collect();
            let cols = vec![0; g.input.c * g.r * g.s * g.oh * g.ow * batch];
            (g, input, cols)
        })
        .collect();
    let mut g = c.benchmark_group("inference_medium");
    g.sample_size(20);
    g.bench_function("im2col_batch8_w16", |b| {
        b.iter(|| {
            for (geom, input, cols) in &mut convs {
                im2col::im2col_batched_into(input, geom, batch, cols);
                let _ = black_box(&cols);
            }
        })
    });
    g.finish();
}

/// The int8 GEMM kernel alone, one row per distinct conv GEMM of the medium
/// fixture at the batch-8 width campaigns run (`m x k x n` = output
/// channels x reduction x batch pixels). A row's GMAC/s is `m * k * n`
/// over its mean time.
fn bench_gemm_shapes(c: &mut Criterion) {
    let shapes = [
        (16, 27, 8192),
        (16, 144, 8192),
        (32, 288, 2048),
        (32, 16, 2048),
        (64, 576, 512),
        (128, 1152, 128),
    ];
    let mut g = c.benchmark_group("gemm_shapes");
    g.sample_size(50);
    for (m, k, n) in shapes {
        let a: Vec<i8> = (0..m * k).map(|i| (i * 37 % 251) as u8 as i8).collect();
        let b: Vec<i8> = (0..k * n).map(|i| (i * 91 % 253) as u8 as i8).collect();
        let mut out = vec![0i32; m * n];
        g.bench_function(&format!("{m}x{k}x{n}"), |bch| {
            bch.iter(|| {
                nvfi_tensor::gemm::gemm_i8_i32_into(&a, &b, &mut out, m, k, n);
                let _ = black_box(&out);
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_cpu_reference,
    bench_accelerator_emulation,
    bench_accelerator_medium,
    bench_sdp,
    bench_im2col,
    bench_gemm_shapes
);
criterion_main!(benches);
