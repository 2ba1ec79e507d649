//! The serialize-once guarantee of a distributed campaign session.
//!
//! One campaign = exactly **one** encode of the compiled plan, one of the
//! DRAM weight image and one of the quantized evaluation set — however many
//! workers the frames are replayed to and however many work items follow
//! (probes: `nvfi_dist::wire::{plan,weight,eval}_serializations`). This
//! file holds a single test so the process-wide counters are never raced by
//! a sibling test, mirroring `tests/quantize_once.rs` /
//! `tests/golden_once.rs`.

use std::time::Duration;

use nvfi::campaign::{Campaign, CampaignSpec, TargetSelection};
use nvfi::PlatformConfig;
use nvfi_accel::FaultKind;
use nvfi_dataset::{SynthCifar, SynthCifarConfig};
use nvfi_dist::{wire, CampaignServer, FleetSpec};
use nvfi_nn::fold::fold_resnet;
use nvfi_nn::resnet::ResNet;
use nvfi_quant::{quantize, QuantConfig};

#[test]
fn plan_weights_and_eval_set_serialize_once_per_campaign() {
    let data = SynthCifar::new(SynthCifarConfig {
        train: 16,
        test: 12,
        ..Default::default()
    })
    .generate();
    let net = ResNet::new(4, &[1, 1], 10, 3);
    let q = quantize(
        &fold_resnet(&net, 32),
        &data.train.images,
        &QuantConfig::default(),
    )
    .unwrap();
    let config = PlatformConfig::default();
    // 8 work items across 2 workers: plenty of work frames per session.
    let spec = CampaignSpec {
        selection: TargetSelection::RandomSubsets {
            k: 2,
            trials: 4,
            seed: 11,
        },
        kinds: vec![FaultKind::StuckAtZero, FaultKind::Constant(1)],
        eval_images: 10,
        threads: 2,
        ..Default::default()
    };
    let fleet = FleetSpec {
        accept_timeout: Duration::from_secs(120),
        ..FleetSpec::exe(env!("CARGO_BIN_EXE_nvfi_worker"))
    };

    let plan0 = wire::plan_serializations();
    let weights0 = wire::weight_serializations();
    let eval0 = wire::eval_serializations();
    let dist = CampaignServer::start(&fleet, 2)
        .unwrap()
        .submit(&q, config, &spec, &data.test)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        wire::plan_serializations() - plan0,
        1,
        "one campaign must encode the plan exactly once, however many \
         workers replay the bytes"
    );
    assert_eq!(
        wire::weight_serializations() - weights0,
        1,
        "the DRAM weight image must be encoded exactly once per campaign"
    );
    assert_eq!(
        wire::eval_serializations() - eval0,
        1,
        "the evaluation set must be encoded exactly once per campaign"
    );

    // And the records of the probed run are still the in-process records.
    let in_process = Campaign::new(&q, config).run(&spec, &data.test).unwrap();
    assert_eq!(in_process.records, dist.records);
    assert_eq!(in_process.baseline_accuracy, dist.baseline_accuracy);
    assert_eq!(in_process.total_inferences, dist.total_inferences);
}
