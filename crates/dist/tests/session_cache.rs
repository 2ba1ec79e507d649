//! The content-addressed session cache and the multiplexing campaign
//! server, end to end over real worker processes:
//!
//! * a **warm session** — a second campaign over unchanged plan / weights /
//!   evaluation set — re-ships **zero** artifact bytes and re-encodes
//!   nothing (the serialize-once probes prove both);
//! * a **repeat query** whose every shard is in the server's shard store
//!   is served from it without dispatching a single shard;
//! * a **sweep** of campaigns over one model takes the shared fault-free
//!   baseline shard from the shard store: it runs, and is audited, once
//!   per server;
//! * a **changed weight image** (an SEU in storage) changes the content
//!   hash, so the stale cached artifact is never reused — both campaigns
//!   stay bit-identical to their own in-process runs;
//! * **fair-share interleaving** — a small campaign submitted next to a
//!   large one finishes while the large one is still draining, instead of
//!   starving behind it.
//!
//! The serialization/shipping probes are process-wide counters, so every
//! test in this file takes one static lock: a sibling test's fleet traffic
//! must never pollute a probe delta.

use std::sync::Mutex;
use std::time::Duration;

use nvfi::campaign::{Campaign, CampaignSpec, TargetSelection};
use nvfi::PlatformConfig;
use nvfi_accel::FaultKind;
use nvfi_compiler::regmap::MultId;
use nvfi_dataset::{Dataset, SynthCifar, SynthCifarConfig};
use nvfi_dist::{wire, CampaignServer, FleetSpec};
use nvfi_nn::fold::fold_resnet;
use nvfi_nn::resnet::ResNet;
use nvfi_quant::{quantize, QuantConfig, QuantModel};

/// Serializes the whole file: the wire probes are process-global.
static PROBE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    PROBE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_fleet() -> FleetSpec {
    FleetSpec {
        accept_timeout: Duration::from_secs(120),
        ..FleetSpec::exe(env!("CARGO_BIN_EXE_nvfi_worker"))
    }
}

fn setup_with_seed(seed: u64) -> (QuantModel, Dataset) {
    let data = SynthCifar::new(SynthCifarConfig {
        train: 16,
        test: 12,
        ..Default::default()
    })
    .generate();
    let net = ResNet::new(4, &[1, 1], 10, seed);
    let deploy = fold_resnet(&net, 32);
    let q = quantize(&deploy, &data.train.images, &QuantConfig::default()).unwrap();
    (q, data.test)
}

fn setup() -> (QuantModel, Dataset) {
    setup_with_seed(3)
}

fn spec_with_kinds(kinds: Vec<FaultKind>) -> CampaignSpec {
    CampaignSpec {
        selection: TargetSelection::Fixed(vec![
            vec![MultId::new(0, 0)],
            vec![MultId::new(1, 1), MultId::new(2, 2)],
            vec![MultId::new(7, 7)],
        ]),
        kinds,
        eval_images: 8,
        threads: 1,
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

/// A second campaign over the **same** plan / weight image / evaluation
/// set (only the fault kind differs, so the result key differs and the
/// fleet genuinely runs it) must re-encode nothing and re-ship zero
/// artifact bytes: the worker's content-addressed cache survives the
/// campaign switch. One worker, so the shipping assertion is exact.
#[test]
fn warm_session_reships_zero_artifact_bytes() {
    let _g = lock();
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let server = CampaignServer::start(&worker_fleet(), 1).unwrap();

    let spec_a = spec_with_kinds(vec![FaultKind::StuckAtZero]);
    let cold = server
        .submit(&q, config, &spec_a, &eval)
        .unwrap()
        .wait()
        .unwrap();
    assert_identical(
        &Campaign::new(&q, config).run(&spec_a, &eval).unwrap(),
        &cold,
        "cold session",
    );

    let plan0 = wire::plan_serializations();
    let weights0 = wire::weight_serializations();
    let eval0 = wire::eval_serializations();
    let shipped0 = wire::artifact_bytes_shipped();

    let spec_b = spec_with_kinds(vec![FaultKind::Constant(-1)]);
    let warm = server
        .submit(&q, config, &spec_b, &eval)
        .unwrap()
        .wait()
        .unwrap();
    assert_identical(
        &Campaign::new(&q, config).run(&spec_b, &eval).unwrap(),
        &warm,
        "warm session",
    );

    assert_eq!(
        wire::plan_serializations() - plan0,
        0,
        "a warm session must not re-encode the plan"
    );
    assert_eq!(
        wire::weight_serializations() - weights0,
        0,
        "a warm session must not re-encode the weight image"
    );
    assert_eq!(
        wire::eval_serializations() - eval0,
        0,
        "a warm session must not re-encode the evaluation set"
    );
    assert_eq!(
        wire::artifact_bytes_shipped() - shipped0,
        0,
        "a warm session over unchanged artifacts must re-ship zero bytes"
    );
    server.shutdown();
}

/// A repeat submission whose every shard is in the shard store must be
/// answered from it: same records, one more cache hit, and **no** new
/// shard dispatched to the fleet.
#[test]
fn repeat_query_is_served_from_the_result_cache() {
    let _g = lock();
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let spec = spec_with_kinds(vec![FaultKind::StuckAtZero]);
    let server = CampaignServer::start(&worker_fleet(), 1).unwrap();

    let first = server
        .submit(&q, config, &spec, &eval)
        .unwrap()
        .wait()
        .unwrap();
    let stats_after_first = server.stats();
    assert_eq!(stats_after_first.cache_hits, 0, "first run is a miss");
    assert!(
        stats_after_first.tasks_dispatched > 0,
        "first run used the fleet"
    );

    let repeat = server
        .submit(&q, config, &spec, &eval)
        .unwrap()
        .wait()
        .unwrap();
    let stats_after_repeat = server.stats();

    assert_eq!(
        first.records, repeat.records,
        "cached records are the records"
    );
    assert_eq!(first.baseline_accuracy, repeat.baseline_accuracy);
    assert_eq!(first.total_inferences, repeat.total_inferences);
    assert_eq!(
        stats_after_repeat.cache_hits,
        stats_after_first.cache_hits + 1,
        "the repeat must hit the result cache"
    );
    assert_eq!(
        stats_after_repeat.tasks_dispatched, stats_after_first.tasks_dispatched,
        "a cache hit must not dispatch any fleet work"
    );
    assert_eq!(
        stats_after_repeat.campaigns_submitted,
        stats_after_first.campaigns_submitted + 1,
    );
    server.shutdown();
}

/// Two campaigns one after the other over the same artifacts, with
/// different fault kinds, share exactly one shard: the fault-free
/// baseline. The second must take it from the shard store — dispatching
/// only its fault shards and scheduling no baseline audit — and both must
/// stay bit-identical to their in-process runs.
#[test]
fn second_campaign_takes_the_shared_baseline_from_the_shard_store() {
    let _g = lock();
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let server = CampaignServer::start(&worker_fleet(), 1).unwrap();

    let spec_a = spec_with_kinds(vec![FaultKind::StuckAtZero]);
    let first = server
        .submit(&q, config, &spec_a, &eval)
        .unwrap()
        .wait()
        .unwrap();
    assert_identical(
        &Campaign::new(&q, config).run(&spec_a, &eval).unwrap(),
        &first,
        "first campaign",
    );
    let before = server.stats();
    assert_eq!(
        before.audits_dispatched, 1,
        "the executed baseline is audited"
    );

    let spec_b = spec_with_kinds(vec![FaultKind::Constant(-1)]);
    let in_process_b = Campaign::new(&q, config).run(&spec_b, &eval).unwrap();
    let second = server
        .submit(&q, config, &spec_b, &eval)
        .unwrap()
        .wait()
        .unwrap();
    assert_identical(&in_process_b, &second, "second campaign");
    let after = server.stats();

    // One worker: every executed work item is one shard.
    let fault_shards = (in_process_b.records.len() - in_process_b.masked_static) as u64;
    assert!(
        fault_shards > 0,
        "the second campaign must run fault shards"
    );
    assert_eq!(
        after.tasks_dispatched - before.tasks_dispatched,
        fault_shards,
        "the second campaign must dispatch its fault shards only"
    );
    assert_eq!(
        after.audits_dispatched, before.audits_dispatched,
        "a baseline taken from the store must not be audited again"
    );
    assert_eq!(
        after.cache_hits, before.cache_hits,
        "a campaign that still runs shards is not a cache hit"
    );
    server.shutdown();
}

/// A changed weight image — the storage-SEU case: same architecture, same
/// plan, different weight bytes — changes the weight-image content hash, so
/// the worker's cached artifact is **invalidated**, a fresh image ships,
/// and both campaigns stay bit-identical to their own in-process runs
/// (reusing the stale image would corrupt the second campaign's records).
#[test]
fn changed_weights_invalidate_the_cached_artifact() {
    let _g = lock();
    let (q1, eval) = setup_with_seed(3);
    let (q2, _) = setup_with_seed(5);
    let config = PlatformConfig::default();
    let spec = spec_with_kinds(vec![FaultKind::StuckAtZero]);
    let server = CampaignServer::start(&worker_fleet(), 1).unwrap();

    let first = server
        .submit(&q1, config, &spec, &eval)
        .unwrap()
        .wait()
        .unwrap();
    assert_identical(
        &Campaign::new(&q1, config).run(&spec, &eval).unwrap(),
        &first,
        "original weights",
    );

    let weights0 = wire::weight_serializations();
    let shipped0 = wire::artifact_bytes_shipped();

    let second = server
        .submit(&q2, config, &spec, &eval)
        .unwrap()
        .wait()
        .unwrap();
    assert_identical(
        &Campaign::new(&q2, config).run(&spec, &eval).unwrap(),
        &second,
        "changed weights",
    );
    assert_ne!(
        first.records, second.records,
        "different weights must produce different records — identical ones \
         would mean the stale cached image was reused"
    );

    assert_eq!(
        wire::weight_serializations() - weights0,
        1,
        "a changed weight image is a new content hash: encoded once more"
    );
    assert!(
        wire::artifact_bytes_shipped() - shipped0 > 0,
        "the invalidated weight image must actually re-ship"
    );
    server.shutdown();
}

/// Fair-share interleaving: with a **single** worker and a large campaign
/// mid-drain, a small campaign submitted afterwards must complete while
/// the large one still has shards outstanding — the scheduler serves the
/// least-dispatched client first instead of draining queues FIFO.
#[test]
fn small_campaign_is_not_starved_by_a_large_one() {
    let _g = lock();
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let server = CampaignServer::start(&worker_fleet(), 1).unwrap();

    // 12 fault items + baseline = 13 shards of real inference work.
    let big_spec = CampaignSpec {
        selection: TargetSelection::Fixed((0..6).map(|i| vec![MultId::new(i, i)]).collect()),
        kinds: vec![FaultKind::StuckAtZero, FaultKind::Constant(-1)],
        eval_images: 8,
        threads: 1,
        ..Default::default()
    };
    let small_spec = spec_with_kinds(vec![FaultKind::StuckAtZero]);

    let big = server.submit(&q, config, &big_spec, &eval).unwrap();
    // Let the big campaign actually start draining before the small one
    // arrives, so the fair-share choice is real, not just submission order.
    let first = big
        .progress()
        .recv_timeout(Duration::from_secs(120))
        .expect("the big campaign must make progress");
    assert!(first.total > 4, "the big campaign must be genuinely large");

    let small = server.submit(&q, config, &small_spec, &eval).unwrap();
    let small_result = small.wait().unwrap();

    // The moment the small campaign finished, the big one must still have
    // shards outstanding — fair-share served the small client through.
    let mut big_done = first.done;
    for p in big.progress().try_iter() {
        big_done = p.done;
    }
    assert!(
        big_done < first.total,
        "the big campaign finished ({big_done}/{} shards) before the small \
         one completed — the small client starved in its queue",
        first.total
    );

    let big_result = big.wait().unwrap();
    assert_identical(
        &Campaign::new(&q, config).run(&small_spec, &eval).unwrap(),
        &small_result,
        "small client",
    );
    assert_identical(
        &Campaign::new(&q, config).run(&big_spec, &eval).unwrap(),
        &big_result,
        "big client",
    );
    server.shutdown();
}
