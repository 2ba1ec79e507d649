//! Fleet soak: one **persistent** worker fleet multiplexing several
//! concurrent client campaigns — with a worker killed mid-soak.
//!
//! One `CampaignServer` over two `nvfi_worker` processes serves three
//! concurrently submitted campaigns (different fault configurations, and
//! submitted together, so none is a cache hit). Worker 0 is told (via the
//! `NVFI_WORKER_EXIT_AFTER` test hook) to die after its second shard —
//! mid-soak, while multiple clients are in flight. The server must requeue
//! only the dead worker's shard onto the survivor, and **every** client's
//! merged result must stay bit-identical to its own in-process
//! [`Campaign::run`]. This is the CI smoke for the multiplexing server:
//! one fleet, many clients, a chaos kill, zero divergence.

use std::time::Duration;

use nvfi::campaign::{Campaign, CampaignSpec, TargetSelection};
use nvfi::PlatformConfig;
use nvfi_accel::FaultKind;
use nvfi_compiler::regmap::MultId;
use nvfi_dataset::{SynthCifar, SynthCifarConfig};
use nvfi_dist::{worker, CampaignServer, FleetSpec};
use nvfi_nn::fold::fold_resnet;
use nvfi_nn::resnet::ResNet;
use nvfi_quant::{quantize, QuantConfig};

#[test]
fn persistent_fleet_soaks_three_concurrent_clients_through_a_worker_kill() {
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
    let eval = data.test;
    let config = PlatformConfig::default();

    // Three distinct campaigns: different fault programs, so each has its
    // own result key and genuinely runs on the fleet.
    let specs: Vec<CampaignSpec> = vec![
        CampaignSpec {
            selection: TargetSelection::Fixed(vec![
                vec![MultId::new(0, 0)],
                vec![MultId::new(1, 1), MultId::new(2, 2)],
            ]),
            kinds: vec![FaultKind::StuckAtZero],
            eval_images: 8,
            threads: 2,
            ..Default::default()
        },
        CampaignSpec {
            selection: TargetSelection::Fixed(vec![
                vec![MultId::new(3, 4)],
                vec![MultId::new(7, 7)],
            ]),
            kinds: vec![FaultKind::Constant(-1)],
            eval_images: 8,
            threads: 2,
            ..Default::default()
        },
        CampaignSpec {
            selection: TargetSelection::Fixed(vec![vec![MultId::new(5, 6)]]),
            kinds: vec![FaultKind::FlipBits { mask: 1 }],
            eval_images: 8,
            threads: 2,
            ..Default::default()
        },
    ];

    // Worker 0 dies after two shards — mid-soak; worker 1 soaks on.
    let fleet = FleetSpec {
        accept_timeout: Duration::from_secs(120),
        worker_env: vec![vec![(worker::ENV_EXIT_AFTER.to_string(), "2".to_string())]],
        ..FleetSpec::exe(env!("CARGO_BIN_EXE_nvfi_worker"))
    };
    let server = CampaignServer::start(&fleet, 2).unwrap();

    // Submit all three before waiting on any: the fleet multiplexes them
    // concurrently, fair-share interleaved.
    let handles: Vec<_> = specs
        .iter()
        .map(|spec| server.submit(&q, config, spec, &eval).unwrap())
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();

    for (i, (spec, dist)) in specs.iter().zip(&results).enumerate() {
        let in_process = Campaign::new(&q, config).run(spec, &eval).unwrap();
        assert_eq!(
            in_process.baseline_accuracy, dist.baseline_accuracy,
            "client {i}: baseline"
        );
        assert_eq!(in_process.records, dist.records, "client {i}: records");
        assert_eq!(
            in_process.total_inferences, dist.total_inferences,
            "client {i}: inferences"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.campaigns_submitted, 3);
    assert_eq!(
        stats.cache_hits, 0,
        "three distinct campaigns, no cache hit"
    );
    server.shutdown();
}
