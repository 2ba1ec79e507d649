//! The quantize-once guarantee, asserted through the
//! `nvfi_quant::batch::quantization_passes` probe: one campaign performs
//! exactly **one** f32 → i8 quantization of its evaluation set, no matter
//! how many fault configurations, fault kinds, threads or device shards it
//! schedules.
//!
//! The probe counter is process-wide, so these tests live in their own
//! integration-test binary (cargo runs test binaries one at a time) and
//! serialize on [`PROBE`]: no concurrently running test can quantize in
//! between the two counter reads.

use std::sync::Mutex;

use zynq_nvdla_fi::nvfi::campaign::{Campaign, CampaignSpec, TargetSelection};
use zynq_nvdla_fi::nvfi::PlatformConfig;
use zynq_nvdla_fi::nvfi_accel::FaultKind;
use zynq_nvdla_fi::nvfi_compiler::regmap::MultId;
use zynq_nvdla_fi::nvfi_dataset::{SynthCifar, SynthCifarConfig};
use zynq_nvdla_fi::nvfi_dist::{run_campaign, FleetSpec};
use zynq_nvdla_fi::nvfi_nn::fold::fold_resnet;
use zynq_nvdla_fi::nvfi_nn::resnet::ResNet;
use zynq_nvdla_fi::nvfi_quant::batch::quantization_passes;
use zynq_nvdla_fi::nvfi_quant::{quantize, QuantConfig};

/// Held by every test that reads the process-wide probe.
static PROBE: Mutex<()> = Mutex::new(());

#[test]
fn campaign_quantizes_the_eval_set_exactly_once() {
    let _probe = PROBE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let q = zynq_nvdla_fi::nvfi::experiments::untrained_quant_model(4, 7);
    let data = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 10,
        ..Default::default()
    })
    .generate();
    // 2 target sets x 2 kinds = 4 work items, sharded over 3 threads: the
    // seed path would have re-quantized (at least) once per work item per
    // shard.
    let spec = CampaignSpec {
        selection: TargetSelection::Fixed(vec![
            vec![MultId::new(0, 1)],
            vec![MultId::new(2, 3), MultId::new(5, 6)],
        ]),
        kinds: vec![FaultKind::StuckAtZero, FaultKind::Constant(-1)],
        eval_images: 10,
        threads: 3,
        ..Default::default()
    };
    let campaign = Campaign::new(&q, PlatformConfig::default());

    let before = quantization_passes();
    let result = campaign.run(&spec, &data.test).unwrap();
    let after = quantization_passes();

    assert_eq!(result.records.len(), 4);
    assert_eq!(result.total_inferences, 5 * 10);
    assert_eq!(
        after - before,
        1,
        "a campaign must quantize its evaluation set exactly once \
         (the QuantizedEvalSet built in Campaign::run) — any extra pass \
         means per-work-item or per-shard re-quantization crept back in"
    );

    // Same guarantee when the pool degenerates to a single device.
    let single = CampaignSpec { threads: 1, ..spec };
    let before = quantization_passes();
    let _ = campaign.run(&single, &data.test).unwrap();
    assert_eq!(quantization_passes() - before, 1);
}

/// A distributed campaign whose every fault item is provably masked folds
/// its baseline on the prototype it prepared, without raising the fleet —
/// and without preparing (and quantizing) the campaign a second time.
#[test]
fn all_masked_distributed_campaign_quantizes_once() {
    let _probe = PROBE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // A single-stage width-2 net: multiplier lanes `j >= 3` are idle in
    // every MAC op, so stuck-at-zero on lane (0, 5) is provably masked.
    let data = SynthCifar::new(SynthCifarConfig {
        train: 16,
        test: 6,
        ..Default::default()
    })
    .generate();
    let deploy = fold_resnet(&ResNet::new(2, &[1], 10, 3), 32);
    let q = quantize(&deploy, &data.train.images, &QuantConfig::default()).unwrap();
    let spec = CampaignSpec {
        selection: TargetSelection::Fixed(vec![vec![MultId::new(0, 5)], vec![]]),
        kinds: vec![FaultKind::StuckAtZero],
        eval_images: 6,
        workers: 2,
        ..Default::default()
    };
    // Any spawn attempt fails the run: success proves no worker was raised.
    let unspawnable = FleetSpec::exe("/nonexistent/nvfi-worker-that-must-not-run");

    let before = quantization_passes();
    let result = run_campaign(
        &q,
        PlatformConfig::default(),
        &spec,
        &data.test,
        &unspawnable,
    )
    .unwrap();
    let after = quantization_passes();

    assert_eq!(result.masked_static, 2);
    assert_eq!(result.total_inferences, 6, "only the baseline ran");
    assert_eq!(
        after - before,
        1,
        "an all-masked distributed campaign must quantize its evaluation \
         set exactly once"
    );
}
