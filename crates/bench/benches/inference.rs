//! Criterion bench behind Table I's latency rows: the int8 CPU reference
//! executor (1 and 4 threads) against the emulated accelerator's
//! functional fast path, clean and under faults. The accelerator's *FPGA* latency is a cycle model
//! (reported by the `table1` binary); this bench measures the software
//! cost of each engine.

use criterion::{criterion_group, criterion_main, Criterion};
use nvfi::{EmulationPlatform, PlatformConfig};
use nvfi_accel::{FaultConfig, FaultKind};
use nvfi_bench::{medium_fixture, small_fixture};
use nvfi_compiler::regmap::MultId;

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

criterion_group!(
    benches,
    bench_cpu_reference,
    bench_accelerator_emulation,
    bench_accelerator_medium
);
criterion_main!(benches);
