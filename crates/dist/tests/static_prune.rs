//! Dead-fault pruning through the distributed coordinator.
//!
//! The contract: work items the static fault-reachability analysis proves
//! masked are never scheduled on the fleet — a campaign of *only* masked
//! items completes without dispatching a single shard — and everything
//! reachable stays bit-identical to the in-process run, with
//! `masked_static` counted the same on both paths.

use std::time::Duration;

use nvfi::campaign::{Campaign, CampaignSpec, TargetSelection};
use nvfi::PlatformConfig;
use nvfi_accel::FaultKind;
use nvfi_compiler::regmap::MultId;
use nvfi_dataset::{Dataset, SynthCifar, SynthCifarConfig};
use nvfi_dist::{CampaignServer, FleetSpec};
use nvfi_nn::fold::fold_resnet;
use nvfi_nn::resnet::ResNet;
use nvfi_quant::{quantize, QuantConfig, QuantModel};

/// The `nvfi_worker` binary built alongside these tests.
fn worker_fleet() -> FleetSpec {
    FleetSpec {
        accept_timeout: Duration::from_secs(120),
        ..FleetSpec::exe(env!("CARGO_BIN_EXE_nvfi_worker"))
    }
}

/// A single-stage width-2 net: channel counts are 3 (stem input) and 2
/// everywhere else, so multiplier lanes `j >= 3` are idle in every MAC op
/// and a stuck-at-zero fault on them is provably masked.
fn narrow_setup() -> (QuantModel, Dataset) {
    let data = SynthCifar::new(SynthCifarConfig {
        train: 16,
        test: 12,
        ..Default::default()
    })
    .generate();
    let net = ResNet::new(2, &[1], 10, 3);
    let deploy = fold_resnet(&net, 32);
    let q = quantize(&deploy, &data.train.images, &QuantConfig::default()).unwrap();
    (q, data.test)
}

/// Every fault item provably masked: the campaign must complete on a live
/// server without touching its fleet — not one shard dispatched.
#[test]
fn all_masked_campaign_never_touches_the_fleet() {
    let (q, eval) = narrow_setup();
    let config = PlatformConfig::default();
    let spec = CampaignSpec {
        selection: TargetSelection::Fixed(vec![
            vec![MultId::new(0, 5)], // idle lane, stuck-at-zero: masked
            vec![],                  // no lanes selected: masked
        ]),
        kinds: vec![FaultKind::StuckAtZero],
        eval_images: 6,
        ..Default::default()
    };
    let server = CampaignServer::start(&worker_fleet(), 2).unwrap();
    let dispatched = server.stats().tasks_dispatched;
    let result = server
        .submit(&q, config, &spec, &eval)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        server.stats().tasks_dispatched,
        dispatched,
        "an all-masked campaign dispatches nothing"
    );
    server.shutdown();
    assert_eq!(result.masked_static, 2, "both items statically masked");
    assert_eq!(result.records.len(), 2);
    for r in &result.records {
        assert_eq!(r.outcomes.sdc, 0, "masked items are fully masked");
        assert_eq!(r.drop_pct, 0.0);
    }
    // Only the baseline pass ran.
    assert_eq!(result.total_inferences, 6);
}

/// Mixed reachable/masked work over a real two-worker fleet: only the
/// reachable item is scheduled, and the merged result — records, baseline,
/// inference count, `masked_static` — is bit-identical to in-process.
#[test]
fn partially_masked_campaign_matches_in_process() {
    let (q, eval) = narrow_setup();
    let config = PlatformConfig::default();
    let spec = CampaignSpec {
        selection: TargetSelection::Fixed(vec![
            vec![MultId::new(0, 0)], // live lane: must execute on the fleet
            vec![MultId::new(0, 5)], // idle lane: pruned
        ]),
        kinds: vec![FaultKind::StuckAtZero],
        eval_images: 10,
        threads: 2,
        ..Default::default()
    };
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();
    assert_eq!(in_process.masked_static, 1);
    let dist = CampaignServer::start(&worker_fleet(), 2)
        .unwrap()
        .submit(&q, config, &spec, &eval)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(dist.masked_static, in_process.masked_static, "masked count");
    assert_eq!(dist.baseline_accuracy, in_process.baseline_accuracy);
    assert_eq!(dist.records, in_process.records, "records bit-identical");
    assert_eq!(dist.total_inferences, in_process.total_inferences);
}

/// A no-op fault kind is refused by `submit`, on the distributed path too,
/// and nothing is dispatched.
#[test]
fn no_op_kind_is_rejected_before_dispatch() {
    let (q, eval) = narrow_setup();
    let spec = CampaignSpec {
        kinds: vec![FaultKind::FlipBits { mask: 0 }],
        eval_images: 2,
        ..Default::default()
    };
    let server = CampaignServer::start(&worker_fleet(), 2).unwrap();
    let dispatched = server.stats().tasks_dispatched;
    let Err(err) = server.submit(&q, PlatformConfig::default(), &spec, &eval) else {
        panic!("no-op kind must be rejected");
    };
    assert!(
        err.to_string().contains("no-op"),
        "error names the rejection: {err}"
    );
    assert_eq!(server.stats().tasks_dispatched, dispatched);
    server.shutdown();
}
