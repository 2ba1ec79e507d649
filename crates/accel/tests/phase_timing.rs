//! Engine phase histograms: recorded only while tracing is on, and never
//! change results. Its own test binary, because the trace gate and the
//! metrics registry are process-wide.

use nvfi_accel::{AccelConfig, Accelerator, FaultConfig, FaultKind, InferenceResult};
use nvfi_compiler::regmap::MultId;
use nvfi_dataset::{SynthCifar, SynthCifarConfig};
use nvfi_nn::fold::fold_resnet;
use nvfi_nn::resnet::ResNet;
use nvfi_obs::{metrics, trace};
use nvfi_quant::{quantize, QuantConfig};

const PHASES: [&str; 5] = ["im2col", "gemm", "lane_delta", "sdp", "surface"];

fn phase_counts() -> Vec<u64> {
    PHASES
        .iter()
        .map(|p| metrics::histogram(&format!("engine_phase_{p}_ns")).count())
        .collect()
}

/// Per-image and batched runs of four images under a permanent two-lane
/// fault, so every phase (surface pack/unpack only exists per image,
/// lane-delta only under a fault) executes.
fn run_all(accel: &mut Accelerator, images: &[i8]) -> (Vec<InferenceResult>, Vec<InferenceResult>) {
    let image_len = images.len() / 4;
    let per_image = images
        .chunks(image_len)
        .map(|img| accel.run_inference_i8_view(img).unwrap())
        .collect();
    let batched = accel.run_batch_i8_view(images).unwrap();
    (per_image, batched)
}

#[test]
fn phase_histograms_record_only_when_traced_and_change_nothing() {
    let data = SynthCifar::new(SynthCifarConfig {
        train: 8,
        test: 4,
        ..Default::default()
    })
    .generate();
    let net = ResNet::new(4, &[1, 1], 10, 7);
    let q = quantize(
        &fold_resnet(&net, 32),
        &data.train.images,
        &QuantConfig::default(),
    )
    .unwrap();
    let plan = nvfi_compiler::compile(&q, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).unwrap();
    let mut accel = Accelerator::new(AccelConfig::default());
    accel.load_plan(&plan).unwrap();
    accel.inject(&FaultConfig::new(
        vec![MultId::new(0, 0), MultId::new(3, 5)],
        FaultKind::Constant(1),
    ));
    let images = q.quantize_input(&data.test.images);

    trace::set_enabled(false);
    let untraced = run_all(&mut accel, images.as_slice());
    assert_eq!(
        phase_counts(),
        vec![0; PHASES.len()],
        "tracing off records nothing"
    );

    trace::set_enabled(true);
    let traced = run_all(&mut accel, images.as_slice());
    trace::set_enabled(false);
    for (phase, count) in PHASES.iter().zip(phase_counts()) {
        assert!(count > 0, "phase {phase} recorded no sample while traced");
    }
    let logits = |rs: &[InferenceResult]| rs.iter().map(|r| r.logits.clone()).collect::<Vec<_>>();
    assert_eq!(logits(&traced.0), logits(&untraced.0), "per-image logits");
    assert_eq!(logits(&traced.1), logits(&untraced.1), "batched logits");
    assert_eq!(logits(&traced.0), logits(&traced.1), "per-image vs batched");
}
