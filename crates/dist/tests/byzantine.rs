//! Byzantine drills: the fabric must survive workers that return **wrong
//! answers**, not just workers that crash or garble frames. Four adversaries,
//! each end to end over real sockets and worker processes:
//!
//! * a **self-consistent liar** — the `NVFI_WORKER_CORRUPT_AFTER` hook flips
//!   predictions *before* the attestation is computed, so the reply passes
//!   both the CRC trailer and the attestation check. Only the audit
//!   re-execution can catch it; arbitration must convict the right replica
//!   and quarantine the worker, with every concurrent client's result still
//!   bit-identical to the in-process run;
//! * a **lone liar** — the same hook on the only worker of a one-worker
//!   fleet, where no other replica exists: the in-process arbiter audits
//!   every shard itself and must repair the lie and convict the worker;
//! * a **transport liar** — the chaos `lie` verb mangles a `ShardDone` body
//!   *after* the worker computed its attestation and reseals the CRC, so the
//!   wire layer cannot catch it. The server's attestation recompute must:
//!   a named integrity reject, a requeue, and a clean final result;
//! * a **stutterer** — the chaos `ldup` verb re-emits a completed
//!   `ShardDone` frame later in the stream. The duplicate-completion dedup
//!   must absorb it without a single spurious requeue.

use std::time::{Duration, Instant};

use nvfi::campaign::{Campaign, CampaignSpec, TargetSelection};
use nvfi::PlatformConfig;
use nvfi_accel::FaultKind;
use nvfi_compiler::regmap::MultId;
use nvfi_dataset::{Dataset, SynthCifar, SynthCifarConfig};
use nvfi_dist::chaos::ENV_CHAOS_PLAN;
use nvfi_dist::{worker, CampaignServer, FleetSpec};
use nvfi_nn::fold::fold_resnet;
use nvfi_nn::resnet::ResNet;
use nvfi_quant::{quantize, QuantConfig, QuantModel};

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

/// Seven work items (baseline + 3 target sets × 2 kinds), one shard each.
fn spec_with_kinds(kinds: Vec<FaultKind>) -> CampaignSpec {
    CampaignSpec {
        selection: TargetSelection::Fixed(vec![
            vec![MultId::new(0, 0)],
            vec![MultId::new(1, 1), MultId::new(2, 2)],
            vec![MultId::new(7, 7)],
        ]),
        kinds,
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

/// Env for spawned worker 0 only, everyone else clean.
fn env_on_worker_0(key: &str, value: &str) -> Vec<Vec<(String, String)>> {
    vec![vec![(key.to_string(), value.to_string())]]
}

/// **Self-consistent liar.** Worker 0 serves two shards honestly, then
/// silently corrupts every later one — predictions flipped *before* the
/// attestation, so CRC and attestation both pass. With `audit_rate: 1.0`
/// every landed shard is silently re-run on the other worker; the first
/// mismatch is arbitrated by an authoritative in-process re-execution,
/// the liar is convicted and quarantined, and its unverified shards are
/// swept. Two concurrent clients both finish **bit-identical** to the
/// in-process run — the conviction is fatal only to the worker.
#[test]
fn corrupting_worker_is_convicted_and_quarantined() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let spec_a = spec_with_kinds(vec![FaultKind::StuckAtZero, FaultKind::Constant(-1)]);
    let spec_b = spec_with_kinds(vec![FaultKind::StuckAtZero, FaultKind::Constant(1)]);
    let in_process_a = Campaign::new(&q, config).run(&spec_a, &eval).unwrap();
    let in_process_b = Campaign::new(&q, config).run(&spec_b, &eval).unwrap();

    let fleet = FleetSpec {
        worker_env: env_on_worker_0(worker::ENV_CORRUPT_AFTER, "2"),
        audit_rate: 1.0,
        ..worker_fleet()
    };
    let server = CampaignServer::start(&fleet, 2).unwrap();
    let handle_a = server.submit(&q, config, &spec_a, &eval).unwrap();
    let handle_b = server.submit(&q, config, &spec_b, &eval).unwrap();
    let dist_a = handle_a.wait().unwrap();
    let dist_b = handle_b.wait().unwrap();

    assert_identical(&in_process_a, &dist_a, "client A beside a liar");
    assert_identical(&in_process_b, &dist_b, "client B beside a liar");

    let stats = server.stats();
    assert!(
        stats.audits_dispatched > 0,
        "full-rate auditing must dispatch audits: {stats:?}"
    );
    assert!(
        stats.audit_mismatches >= 1,
        "the corrupted shard must surface as an audit mismatch: {stats:?}"
    );
    assert!(
        stats.workers_quarantined >= 1,
        "the convicted worker must be quarantined: {stats:?}"
    );
    assert_eq!(
        stats.integrity_rejects, 0,
        "a self-consistent lie passes attestation — only the audit may \
         catch it: {stats:?}"
    );
}

/// **One-worker liar.** With a single worker nobody else can audit it, so
/// every audit (`audit_rate: 1.0`) is settled by the in-process arbiter
/// against the stored result. On a fresh one-worker server the campaign
/// executes one shard per unmasked work item plus the baseline shard;
/// worker 0 serves all but the last honestly and flips every prediction of
/// the last one. The local audit must catch that lie, repair the slot and
/// convict the worker, leaving the records bit-identical.
#[test]
fn one_worker_liar_is_repaired_by_the_local_arbiter() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let spec = spec_with_kinds(vec![FaultKind::StuckAtZero, FaultKind::Constant(-1)]);
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();
    // One worker: every executed work item is one shard.
    let honest = in_process.records.len() - in_process.masked_static;
    assert!(honest > 0, "the campaign must run fault shards");

    let fleet = FleetSpec {
        worker_env: env_on_worker_0(worker::ENV_CORRUPT_AFTER, &honest.to_string()),
        audit_rate: 1.0,
        ..worker_fleet()
    };
    let server = CampaignServer::start(&fleet, 1).unwrap();
    let dist = server
        .submit(&q, config, &spec, &eval)
        .unwrap()
        .wait()
        .unwrap();
    assert_identical(&in_process, &dist, "after a repaired one-worker lie");

    // The verdict closes the audit, which may finish the client, before it
    // convicts the worker: wait for the conviction to land.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = server.stats();
        if stats.workers_quarantined > 0 || Instant::now() >= deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(
        stats.audit_mismatches, 1,
        "only the last shard lied, and only the local audit can see it: {stats:?}"
    );
    assert_eq!(
        stats.workers_quarantined, 1,
        "the arbiter's verdict must convict the worker: {stats:?}"
    );
    assert_eq!(
        stats.integrity_rejects, 0,
        "a self-consistent lie passes attestation: {stats:?}"
    );
}

/// **Transport liar.** Worker 0's chaos plan mangles the first byte of the
/// attestation inside its first `ShardDone` *after* the payload was built
/// and reseals the CRC — the wire layer sees a perfectly valid frame. The
/// server's recompute of [`nvfi_dist::wire::shard_attestation`] over the
/// *assigned* session must reject it as a named integrity failure, requeue
/// the shard, and finish bit-identically (the lying frame never merges).
#[test]
fn post_crc_corruption_is_caught_by_attestation() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let spec = spec_with_kinds(vec![FaultKind::StuckAtZero, FaultKind::Constant(-1)]);
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();

    // lie:0:12:0 — worker 0's first ShardDone frame, payload offset
    // 5 + 12 = byte 13 of the payload: the attestation's first byte.
    let fleet = FleetSpec {
        worker_env: env_on_worker_0(ENV_CHAOS_PLAN, "lie:0:12:0"),
        ..worker_fleet()
    };
    let server = CampaignServer::start(&fleet, 2).unwrap();
    let dist = server
        .submit(&q, config, &spec, &eval)
        .unwrap()
        .wait()
        .unwrap();
    assert_identical(&in_process, &dist, "after a post-CRC mangled reply");

    let stats = server.stats();
    assert!(
        stats.integrity_rejects >= 1,
        "the resealed frame must fail the attestation recompute: {stats:?}"
    );
    assert_eq!(
        stats.workers_quarantined, 0,
        "one integrity strike suspends, it must not quarantine: {stats:?}"
    );
}

/// **Stutterer.** Worker 0's chaos plan captures its first post-handshake
/// frame — its first `ShardDone` — and re-emits it two frames later, while
/// the worker is already on another shard. The duplicate-completion dedup
/// must recognize the already-recorded `(client, shard)` key and drop the
/// replay: exactly one dispatch per task, no spurious requeue, records
/// bit-identical.
#[test]
fn late_duplicate_shard_done_is_deduplicated() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let spec = spec_with_kinds(vec![FaultKind::StuckAtZero, FaultKind::Constant(-1)]);
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();

    // ldup:2:2 — capture outgoing frame 2 (hello and the cache
    // advertisement are frames 0 and 1), replay it after two more frames.
    let fleet = FleetSpec {
        worker_env: env_on_worker_0(ENV_CHAOS_PLAN, "ldup:2:2"),
        ..worker_fleet()
    };
    let server = CampaignServer::start(&fleet, 2).unwrap();
    let dist = server
        .submit(&q, config, &spec, &eval)
        .unwrap()
        .wait()
        .unwrap();
    assert_identical(&in_process, &dist, "after a replayed completion");

    let stats = server.stats();
    // 7 work items, one shard each: a replayed completion absorbed by the
    // dedup costs zero extra dispatches; treating it as garbage would tear
    // the connection and requeue (tasks_dispatched > 7).
    assert_eq!(
        stats.tasks_dispatched, 7,
        "the replayed frame must be absorbed, not requeued: {stats:?}"
    );
    assert_eq!(stats.integrity_rejects, 0, "{stats:?}");
}
