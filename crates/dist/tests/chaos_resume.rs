//! Chaos hardening of the campaign fabric, end to end over real sockets and
//! worker processes: every injectable failure class — a corrupted frame, a
//! connection dropped mid-frame, a stalled shard, a worker crash with
//! reconnection and mid-campaign re-admission, a killed-and-restarted
//! coordinator, a foreign checkpoint log — must leave the campaign records
//! **bit-identical** to the in-process [`Campaign::run`], or fail with a
//! named error. Never a hang, never a panic, never a silently wrong merge.
//!
//! Chaos is injected deterministically: worker processes get a
//! `NVFI_CHAOS_PLAN` (or `NVFI_CHAOS_SEED`) through `FleetSpec::worker_env`,
//! which arms the worker-side `ChaosStream` for its first session only —
//! the reconnected session runs clean, exactly like a real transient fault.

use std::path::{Path, PathBuf};
use std::time::Duration;

use nvfi::campaign::{Campaign, CampaignResult, CampaignSpec, TargetSelection};
use nvfi::PlatformConfig;
use nvfi_accel::FaultKind;
use nvfi_compiler::regmap::MultId;
use nvfi_dataset::{Dataset, SynthCifar, SynthCifarConfig};
use nvfi_dist::chaos::{ENV_CHAOS_PLAN, ENV_CHAOS_SEED};
use nvfi_dist::{worker, CampaignServer, Checkpoint, DistError, FleetSpec};
use nvfi_nn::fold::fold_resnet;
use nvfi_nn::resnet::ResNet;
use nvfi_quant::{quantize, QuantConfig, QuantModel};

/// The `nvfi_worker` binary built alongside these tests, with a short
/// re-admission grace so fleet-lost tests do not wait out the 5 s default.
fn worker_fleet() -> FleetSpec {
    FleetSpec {
        accept_timeout: Duration::from_secs(120),
        readmission_grace: Duration::from_millis(500),
        ..FleetSpec::exe(env!("CARGO_BIN_EXE_nvfi_worker"))
    }
}

fn setup() -> (QuantModel, Dataset) {
    let data = SynthCifar::new(SynthCifarConfig {
        train: 16,
        test: 12,
        ..Default::default()
    })
    .generate();
    let net = ResNet::new(4, &[1, 1], 10, 3);
    let deploy = fold_resnet(&net, 32);
    let q = quantize(&deploy, &data.train.images, &QuantConfig::default()).unwrap();
    (q, data.test)
}

/// Runs one campaign on a fresh server of `workers` spawned workers, then
/// shuts the server down.
fn served(
    fleet: &FleetSpec,
    workers: usize,
    q: &QuantModel,
    config: PlatformConfig,
    spec: &CampaignSpec,
    eval: &Dataset,
) -> Result<CampaignResult, DistError> {
    CampaignServer::start(fleet, workers)?
        .submit(q, config, spec, eval)?
        .wait()
}

/// Seven work items (baseline + 3 target sets × 2 kinds), one shard each.
fn base_spec() -> CampaignSpec {
    CampaignSpec {
        selection: TargetSelection::Fixed(vec![
            vec![MultId::new(0, 0)],
            vec![MultId::new(1, 1), MultId::new(2, 2)],
            vec![MultId::new(7, 7)],
        ]),
        kinds: vec![FaultKind::StuckAtZero, FaultKind::Constant(-1)],
        eval_images: 10,
        threads: 2,
        ..Default::default()
    }
}

fn assert_identical(
    a: &nvfi::campaign::CampaignResult,
    b: &nvfi::campaign::CampaignResult,
    what: &str,
) {
    assert_eq!(a.baseline_accuracy, b.baseline_accuracy, "{what}: baseline");
    assert_eq!(a.records, b.records, "{what}: records");
    assert_eq!(a.total_inferences, b.total_inferences, "{what}: inferences");
}

/// Env for spawned worker 0 only: one chaos plan, everyone else clean.
fn chaos_on_worker_0(plan: &str) -> Vec<Vec<(String, String)>> {
    vec![vec![(ENV_CHAOS_PLAN.to_string(), plan.to_string())]]
}

/// **Corrupt frame.** Worker 0 flips one bit of its third outgoing frame —
/// its first post-handshake frame (frames 0 and 1 are the hello and the v3
/// cache advertisement), i.e. its first shard reply or heartbeat. The
/// coordinator must diagnose the CRC failure, drop the connection, requeue
/// the shard — and the worker, seeing its session die, reconnects and is
/// re-admitted. Records stay bit-identical.
#[test]
fn corrupt_frame_is_requeued_and_worker_readmitted() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let spec = base_spec();
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();
    let fleet = FleetSpec {
        worker_env: chaos_on_worker_0("flip:2:9:3"),
        ..worker_fleet()
    };
    let dist = served(&fleet, 2, &q, config, &spec, &eval).unwrap();
    assert_identical(&in_process, &dist, "after corrupt frame");
}

/// **Connection drop mid-frame.** Worker 0's link dies five bytes into its
/// first post-handshake outgoing frame — the coordinator sees a torn frame
/// and EOF, the worker sees a broken pipe, backs off, reconnects, and is
/// re-admitted mid-campaign. Records stay bit-identical.
#[test]
fn connection_drop_mid_frame_reconnects_and_readmits() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let spec = base_spec();
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();
    let fleet = FleetSpec {
        worker_env: chaos_on_worker_0("drop:2:5"),
        ..worker_fleet()
    };
    let dist = served(&fleet, 2, &q, config, &spec, &eval).unwrap();
    assert_identical(&in_process, &dist, "after mid-frame drop");
}

/// **Stalled shard.** Worker 0 goes silent for 4 s before its first reply;
/// with a 2 s `task_timeout` the coordinator must declare the shard lost
/// and requeue it (a *heartbeating* worker would never trip this — silence
/// is what times out). Records stay bit-identical.
#[test]
fn stalled_shard_is_timed_out_and_requeued() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let spec = base_spec();
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();
    let fleet = FleetSpec {
        worker_env: chaos_on_worker_0("stall:2:4000"),
        task_timeout: Some(Duration::from_secs(2)),
        ..worker_fleet()
    };
    let dist = served(&fleet, 2, &q, config, &spec, &eval).unwrap();
    assert_identical(&in_process, &dist, "after stalled shard");
}

/// **Seeded chaos.** `NVFI_CHAOS_SEED` derives the survivable-classes plan
/// (one bit flip, one sub-second stall, one mid-frame drop) the CI smoke
/// also uses; the campaign must absorb all three and stay bit-identical.
#[test]
fn seeded_chaos_plan_campaign_is_bit_identical() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let spec = base_spec();
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();
    let fleet = FleetSpec {
        worker_env: vec![vec![(ENV_CHAOS_SEED.to_string(), "7".to_string())]],
        task_timeout: Some(Duration::from_secs(10)),
        ..worker_fleet()
    };
    let dist = served(&fleet, 2, &q, config, &spec, &eval).unwrap();
    assert_identical(&in_process, &dist, "under seeded chaos");
}

/// **Coordinator kill + resume.** Run 1 checkpoints three completed shards,
/// then loses its only worker (deliberate death) and fails with
/// `FleetLost`, leaving the checkpoint on disk — exactly the state a killed
/// coordinator leaves behind. Run 2, same spec and path, must resume:
/// re-ship artifacts to a fresh fleet and redo **only** the four unfinished
/// shards. The proof is in the worker budget: run 2's worker dies on its
/// *fifth* `Work` frame, so if the coordinator re-dispatched even one
/// already-checkpointed shard the fleet would be lost again. Records must
/// be bit-identical to an uninterrupted run, and the log must keep every
/// shard: a fresh server at the path dispatches none of them.
#[test]
fn coordinator_kill_and_resume_redoes_only_unfinished_shards() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let dir = std::env::temp_dir().join(format!("nvfi-chaos-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt: PathBuf = dir.join("campaign.ckpt");
    let spec = base_spec();
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();

    // Run 1: the sole worker completes 3 of the 7 shards, then dies.
    let fleet = FleetSpec {
        worker_env: vec![vec![(worker::ENV_EXIT_AFTER.to_string(), "3".to_string())]],
        checkpoint_path: Some(ckpt.clone()),
        ..worker_fleet()
    };
    match served(&fleet, 1, &q, config, &spec, &eval) {
        Err(DistError::FleetLost { incomplete }) => assert_eq!(incomplete, 4),
        other => panic!("expected FleetLost, got {other:?}"),
    }
    let left_behind = Checkpoint::load(&ckpt).expect("interrupted run leaves a checkpoint");
    assert_eq!(left_behind.entries.len(), 3, "three shards were persisted");

    // Run 2: a fresh worker with budget for exactly the 4 unfinished shards.
    let fleet = FleetSpec {
        worker_env: vec![vec![(worker::ENV_EXIT_AFTER.to_string(), "4".to_string())]],
        checkpoint_path: Some(ckpt.clone()),
        ..worker_fleet()
    };
    let resumed = served(&fleet, 1, &q, config, &spec, &eval).unwrap();
    assert_identical(&in_process, &resumed, "resumed campaign");
    assert_log_answers_all(&ckpt, 7, &q, config, &spec, &eval);
    let _ = std::fs::remove_dir_all(&dir);
}

/// **Foreign log at the checkpoint path.** Campaign A logs three shards at
/// path P — the baseline and target set 0 under both of its kinds — then
/// loses its only worker and fails with `FleetLost`. Campaign B, whose
/// second fault kind differs, then runs at P on a fresh server. Log records
/// are keyed by shard content, so B must take from A's log exactly the
/// two shards they share (the baseline and target set 0 stuck at zero),
/// run its other five and finish bit-identical to its in-process run. P
/// keeps the shards of both, so a fresh server there dispatches none of B's.
#[test]
fn foreign_log_at_the_checkpoint_path_serves_only_shared_shards() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let dir = std::env::temp_dir().join(format!("nvfi-foreign-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt: PathBuf = dir.join("campaign.ckpt");
    let spec_a = base_spec();

    // Campaign A: the sole worker completes 3 of the 7 shards, then dies.
    let fleet = FleetSpec {
        worker_env: vec![vec![(worker::ENV_EXIT_AFTER.to_string(), "3".to_string())]],
        checkpoint_path: Some(ckpt.clone()),
        ..worker_fleet()
    };
    match served(&fleet, 1, &q, config, &spec_a, &eval) {
        Err(DistError::FleetLost { incomplete }) => assert_eq!(incomplete, 4),
        other => panic!("expected FleetLost, got {other:?}"),
    }
    let left_behind = Checkpoint::load(&ckpt).expect("campaign A leaves its log");
    assert_eq!(left_behind.entries.len(), 3, "three shards were logged");

    // Campaign B at the same path: same model, another second fault kind.
    let spec_b = CampaignSpec {
        kinds: vec![FaultKind::StuckAtZero, FaultKind::Constant(1)],
        ..spec_a
    };
    let in_process = Campaign::new(&q, config).run(&spec_b, &eval).unwrap();
    let at_ckpt = FleetSpec {
        checkpoint_path: Some(ckpt.clone()),
        ..worker_fleet()
    };
    let server = CampaignServer::start(&at_ckpt, 1).unwrap();
    let resumed = server
        .submit(&q, config, &spec_b, &eval)
        .unwrap()
        .wait()
        .unwrap();
    let stats = server.stats();
    server.shutdown();
    assert_identical(&in_process, &resumed, "campaign B over A's log");
    assert_eq!(
        stats.tasks_dispatched, 5,
        "B must run its seven shards minus the two it shares with A's log"
    );
    assert_eq!(
        stats.audits_dispatched, 0,
        "B's baseline came from the log, so no executed baseline needs an audit"
    );
    // A's three shards and B's five: the two they share are logged once.
    assert_log_answers_all(&ckpt, 8, &q, config, &spec_b, &eval);
    let _ = std::fs::remove_dir_all(&dir);
}

/// **Restart at the log.** Server 1 at path P finishes campaign A and shuts
/// down. Server 2 at P answers A from its store without dispatching a
/// shard (a cache hit), then runs campaign B, which shares A's baseline and
/// A's stuck-at-zero shards, and dispatches only B's other three. Every
/// result is bit-identical to the in-process run.
#[test]
fn a_restarted_server_answers_finished_and_partial_campaigns_from_its_log() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let dir = std::env::temp_dir().join(format!("nvfi-restart-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt: PathBuf = dir.join("server.ckpt");
    let fleet = FleetSpec {
        checkpoint_path: Some(ckpt.clone()),
        ..worker_fleet()
    };
    let spec_a = base_spec();
    let spec_b = CampaignSpec {
        kinds: vec![FaultKind::StuckAtZero, FaultKind::Constant(1)],
        ..base_spec()
    };
    let in_process_a = Campaign::new(&q, config).run(&spec_a, &eval).unwrap();
    let in_process_b = Campaign::new(&q, config).run(&spec_b, &eval).unwrap();

    let first = served(&fleet, 1, &q, config, &spec_a, &eval).unwrap();
    assert_identical(&in_process_a, &first, "campaign A on server 1");

    let server = CampaignServer::start(&fleet, 1).unwrap();
    let again = server
        .submit(&q, config, &spec_a, &eval)
        .unwrap()
        .wait()
        .unwrap();
    let after_a = server.stats();
    let b = server
        .submit(&q, config, &spec_b, &eval)
        .unwrap()
        .wait()
        .unwrap();
    let after_b = server.stats();
    server.shutdown();
    assert_identical(&in_process_a, &again, "campaign A from the log");
    assert_eq!(after_a.tasks_dispatched, 0, "A is wholly in the log");
    assert_eq!(after_a.cache_hits, 1, "A is a cache hit");
    assert_identical(&in_process_b, &b, "campaign B over A's log");
    assert_eq!(
        after_b.tasks_dispatched, 3,
        "B runs only its three Constant(1) shards"
    );
    assert_eq!(after_b.cache_hits, 1, "B is not a cache hit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts that the log at `ckpt` holds `shards` shards and that a fresh
/// server there answers `spec` without dispatching any.
fn assert_log_answers_all(
    ckpt: &Path,
    shards: usize,
    q: &QuantModel,
    config: PlatformConfig,
    spec: &CampaignSpec,
    eval: &Dataset,
) {
    let logged = Checkpoint::load(ckpt).expect("a finished campaign keeps its log");
    assert_eq!(logged.entries.len(), shards, "the log holds every shard");
    let fleet = FleetSpec {
        checkpoint_path: Some(ckpt.to_path_buf()),
        ..worker_fleet()
    };
    let server = CampaignServer::start(&fleet, 1).unwrap();
    let expect = Campaign::new(q, config).run(spec, eval).unwrap();
    let got = server
        .submit(q, config, spec, eval)
        .unwrap()
        .wait()
        .unwrap();
    let stats = server.stats();
    server.shutdown();
    assert_identical(&expect, &got, "a fresh server at the log");
    assert_eq!(
        stats.tasks_dispatched, 0,
        "a fresh server at the log dispatches nothing"
    );
}

/// **Versioned rejection.** With the re-admission cap at zero, worker 0's
/// chaos-dropped session may not rejoin: its reconnect must be answered
/// with a `Goodbye` (never TCP limbo), and the campaign must still complete
/// bit-identically on the surviving worker via requeue.
#[test]
fn reconnect_beyond_cap_is_turned_away_and_campaign_completes() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let spec = base_spec();
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();
    let fleet = FleetSpec {
        worker_env: chaos_on_worker_0("drop:2:5"),
        max_readmissions: 0,
        ..worker_fleet()
    };
    let dist = served(&fleet, 2, &q, config, &spec, &eval).unwrap();
    assert_identical(&in_process, &dist, "with re-admission capped at 0");
}
