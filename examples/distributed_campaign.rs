//! A distributed fault-injection campaign: this one binary is both the
//! campaign server *and* (via self-exec) its two worker processes.
//!
//! `CampaignServer::start` raises the fleet; `submit` compiles the plan
//! once, ships it with the DRAM weight image and the quantized evaluation
//! set to each worker over localhost sockets, and schedules
//! `(fault configuration × image shard)` tasks across the fleet; `wait`
//! merges the records — asserted bit-identical to the in-process
//! [`Campaign::run`] at the end. Dropping the server releases the workers.
//!
//! Run with: `cargo run --release --example distributed_campaign`
//!
//! For cross-host campaigns, the server listens on a fixed address
//! (`FleetSpec::listen`, `NVFI_DIST_ADDR` in the experiment binaries) and
//! remote machines attach with `nvfi_worker <server-addr>` instead of being
//! spawned locally.

use nvfi::campaign::{Campaign, CampaignSpec, TargetSelection};
use nvfi::PlatformConfig;
use nvfi_accel::FaultKind;
use nvfi_dataset::{SynthCifar, SynthCifarConfig};
use nvfi_dist::{CampaignServer, FleetSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Self-exec hook FIRST: when the coordinator below re-executes this
    // binary with NVFI_WORKER_CONNECT set, the copy becomes a worker,
    // serves its session and exits here — it never reaches the code below.
    nvfi_dist::worker::maybe_serve();

    // A small untrained fixture: fault-injection scheduling is
    // weight-independent, so there is no need to train for this demo.
    let data = SynthCifar::new(SynthCifarConfig {
        train: 16,
        test: 16,
        ..Default::default()
    })
    .generate();
    let net = nvfi_nn::resnet::ResNet::new(4, &[1, 1], 10, 42);
    let deploy = nvfi_nn::fold::fold_resnet(&net, 32);
    let q = nvfi_quant::quantize(
        &deploy,
        &data.train.images,
        &nvfi_quant::QuantConfig::default(),
    )?;
    let config = PlatformConfig::default();

    // 3 random 2-multiplier subsets x 2 injected faults = 6 work items,
    // spread over 2 worker processes x 2 local devices each.
    let spec = CampaignSpec {
        selection: TargetSelection::RandomSubsets {
            k: 2,
            trials: 3,
            seed: 7,
        },
        kinds: vec![FaultKind::StuckAtZero, FaultKind::Constant(-1)],
        eval_images: 16,
        threads: 4,
        verbose: true,
        ..Default::default()
    };

    eprintln!("running distributed: 2 self-exec workers over localhost...");
    let dist = CampaignServer::start(&FleetSpec::self_exec(), 2)?
        .submit(&q, config, &spec, &data.test)?
        .wait()?;
    eprintln!("running the same campaign in-process for comparison...");
    let local = Campaign::new(&q, config).run(&spec, &data.test)?;

    assert_eq!(
        local.records, dist.records,
        "distributed records must be bit-identical to the in-process pool"
    );
    assert_eq!(local.baseline_accuracy, dist.baseline_accuracy);
    assert_eq!(local.total_inferences, dist.total_inferences);

    println!(
        "distributed campaign: {} records, baseline {:.1}%, {} inferences in {:.2}s \
         ({:.0} inf/s)",
        dist.records.len(),
        dist.baseline_accuracy * 100.0,
        dist.total_inferences,
        dist.wall_seconds,
        dist.inferences_per_second(),
    );
    for r in &dist.records {
        println!(
            "  {:?} on {} mult(s): accuracy {:.1}% (drop {:+.1} pp, sdc {:.0}%)",
            r.kind,
            r.targets.len(),
            r.accuracy * 100.0,
            r.drop_pct,
            r.outcomes.sdc_rate() * 100.0,
        );
    }
    println!("bit-identical to the in-process run — OK");
    Ok(())
}
