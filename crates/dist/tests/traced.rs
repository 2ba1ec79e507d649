//! The flight recorder must be a pure observer: a distributed campaign
//! traced end to end (coordinator phase spans, worker span summaries
//! shipped over the wire, audit events) produces **bit-identical** records
//! to the untraced in-process run, and the recorded timeline actually
//! contains the span taxonomy the dist README documents.
//!
//! Also covers the wire-level stats poll: `query_stats` against a live
//! server returns well-formed Prometheus text including the server's own
//! counters and the registry metrics.
//!
//! The recorder ring and enable bit are process-global, so this file holds
//! a single test (mirroring `dist_once.rs`).

use std::collections::BTreeSet;
use std::time::Duration;

use nvfi::campaign::{Campaign, CampaignSpec, TargetSelection};
use nvfi::PlatformConfig;
use nvfi_accel::FaultKind;
use nvfi_dataset::{SynthCifar, SynthCifarConfig};
use nvfi_dist::{query_stats, CampaignServer, FleetSpec};
use nvfi_nn::fold::fold_resnet;
use nvfi_nn::resnet::ResNet;
use nvfi_obs::trace;
use nvfi_quant::{quantize, QuantConfig};

#[test]
fn traced_distributed_campaign_is_bit_identical_and_timeline_is_complete() {
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
        audit_rate: 0.5,
        ..FleetSpec::exe(env!("CARGO_BIN_EXE_nvfi_worker"))
    };

    // Untraced baseline first: the recorder must not perturb results.
    let untraced = Campaign::new(&q, config).run(&spec, &data.test).unwrap();

    trace::set_enabled(true);
    trace::clear();
    let server = CampaignServer::start(&fleet, 2).unwrap();
    let traced = server
        .submit(&q, config, &spec, &data.test)
        .unwrap()
        .wait()
        .unwrap();

    assert_eq!(untraced.records, traced.records, "tracing changed results");
    assert_eq!(untraced.baseline_accuracy, traced.baseline_accuracy);
    assert_eq!(untraced.total_inferences, traced.total_inferences);

    // The wire stats poll, against the still-live server.
    let stats = query_stats(server.addr()).expect("stats query");
    for needle in [
        "nvfi_server_campaigns_submitted 1",
        "nvfi_server_tasks_dispatched",
        "nvfi_quantization_passes",
        "nvfi_wire_plan_serializations",
    ] {
        assert!(stats.contains(needle), "stats missing `{needle}`:\n{stats}");
    }

    server.shutdown();
    let events = trace::snapshot();
    trace::set_enabled(false);

    let names: BTreeSet<&str> = events.iter().map(|e| e.name.as_ref()).collect();
    for required in [
        "server.dispatch",
        "shard.queue_wait",
        "shard.ship",
        "shard.execute",
        "shard.merge",
        "worker.execute",
        "audit.dispatch",
    ] {
        assert!(
            names.contains(required),
            "no `{required}` span in {names:?}"
        );
    }
    // Worker span summaries shipped over the wire land on one lane per
    // worker; two workers ran real shards, so two lanes must appear.
    let lanes: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.name == "worker.execute")
        .map(|e| e.tid)
        .collect();
    assert!(
        lanes.len() >= 2,
        "expected worker.execute spans from >=2 worker lanes, got {lanes:?}"
    );
    trace::clear();
}
