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

use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use zynq_nvdla_fi::nvfi::campaign::{Campaign, CampaignSpec, TargetSelection};
use zynq_nvdla_fi::nvfi::PlatformConfig;
use zynq_nvdla_fi::nvfi_accel::FaultKind;
use zynq_nvdla_fi::nvfi_compiler::regmap::MultId;
use zynq_nvdla_fi::nvfi_dataset::{SynthCifar, SynthCifarConfig};
use zynq_nvdla_fi::nvfi_dist::{worker, CampaignServer, FleetSpec, ServeEnd};
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
/// its baseline on the prototype it prepared, without dispatching to the
/// fleet — and without preparing (and quantizing) the campaign a second
/// time. The server's one worker serves from a thread of this process; it
/// is shipped no evaluation set, so it quantizes nothing either.
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
        ..Default::default()
    };
    // A free port (bind, read, drop) for the server to listen on.
    let addr = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let in_thread_worker = std::thread::spawn(move || {
        let mut stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        worker::serve(&mut stream)
    });
    let fleet = FleetSpec {
        listen: Some(addr.to_string()),
        external_workers: 1,
        ..FleetSpec::default()
    };
    let server = CampaignServer::start(&fleet, 0).unwrap();

    let before = quantization_passes();
    let result = server
        .submit(&q, PlatformConfig::default(), &spec, &data.test)
        .unwrap()
        .wait()
        .unwrap();
    let after = quantization_passes();
    let dispatched = server.stats().tasks_dispatched;
    server.shutdown();
    assert!(matches!(
        in_thread_worker.join().unwrap(),
        Ok(ServeEnd::Shutdown)
    ));

    assert_eq!(result.masked_static, 2);
    assert_eq!(result.total_inferences, 6, "only the baseline ran");
    assert_eq!(dispatched, 0, "the fleet was not engaged");
    assert_eq!(
        after - before,
        1,
        "an all-masked distributed campaign must quantize its evaluation \
         set exactly once"
    );
}
