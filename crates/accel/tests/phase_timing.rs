//! Engine phase histograms: recorded only while tracing is on, and never
//! change results; the exact oracle records into a phase of its own. Its
//! own test binary, because the trace gate and the metrics registry are
//! process-wide.

use nvfi_accel::{AccelConfig, Accelerator, ExecMode, FaultConfig, FaultKind, InferenceResult};
use nvfi_compiler::regmap::MultId;
use nvfi_dataset::{SynthCifar, SynthCifarConfig};
use nvfi_nn::fold::fold_resnet;
use nvfi_nn::resnet::ResNet;
use nvfi_obs::{metrics, trace};
use nvfi_quant::{quantize, QuantConfig};

const PHASES: [&str; 6] = ["im2col", "gemm", "lane_delta", "sdp", "surface", "exact"];
const GEMM: usize = 1;
const EXACT: usize = 5;

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
    let fault = FaultConfig::new(
        vec![MultId::new(0, 0), MultId::new(3, 5)],
        FaultKind::Constant(1),
    );
    let accel_in = |mode| {
        let mut accel = Accelerator::new(AccelConfig {
            mode,
            ..AccelConfig::default()
        });
        accel.load_plan(&plan).unwrap();
        accel.inject(&fault);
        accel
    };
    let mut accel = accel_in(ExecMode::Auto);
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
    let after_auto = phase_counts();
    for (phase, &count) in PHASES[..EXACT].iter().zip(&after_auto) {
        assert!(count > 0, "phase {phase} recorded no sample while traced");
    }
    assert_eq!(after_auto[EXACT], 0, "the oracle never runs under Auto");
    let logits = |rs: &[InferenceResult]| rs.iter().map(|r| r.logits.clone()).collect::<Vec<_>>();
    assert_eq!(logits(&traced.0), logits(&untraced.0), "per-image logits");
    assert_eq!(logits(&traced.1), logits(&untraced.1), "batched logits");
    assert_eq!(logits(&traced.0), logits(&traced.1), "per-image vs batched");

    // The per-product oracle is its own phase: under Exact it records into
    // `exact`, never into `gemm`, and the logits are those of Auto.
    let mut oracle = accel_in(ExecMode::Exact);
    trace::set_enabled(true);
    let exact = run_all(&mut oracle, images.as_slice());
    trace::set_enabled(false);
    let after_exact = phase_counts();
    assert!(
        after_exact[EXACT] > 0,
        "phase exact recorded no sample under Exact"
    );
    assert_eq!(
        after_exact[GEMM], after_auto[GEMM],
        "phase gemm recorded samples under Exact"
    );
    assert_eq!(
        logits(&exact.0),
        logits(&untraced.0),
        "Exact per-image logits"
    );
    assert_eq!(
        logits(&exact.1),
        logits(&untraced.1),
        "Exact batched logits"
    );
}
