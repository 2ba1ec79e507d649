//! Criterion bench behind Fig. 2 / Fig. 3: the cost of one fault-injection
//! evaluation (program registers, run the evaluation set, read accuracy),
//! of fault (re)programming alone, and of a pool-sharded
//! single-configuration campaign (the worst case for per-configuration
//! parallelism, and the case `DevicePool` exists for).

use criterion::{criterion_group, Criterion};
use nvfi::campaign::{Campaign, CampaignSpec, TargetSelection};
use nvfi::{DevicePool, EmulationPlatform, PlatformConfig, QuantizedEvalSet};
use nvfi_accel::{AccelConfig, ExecMode, FaultConfig, FaultKind};
use nvfi_bench::{medium_fixture, small_fixture};
use nvfi_compiler::regmap::MultId;
use nvfi_dataset::{SynthCifar, SynthCifarConfig};
use nvfi_dist::{run_campaign, CampaignServer, FleetSpec};
use nvfi_obs::trace;
use nvfi_quant::QuantModel;

fn bench_single_fi_evaluation(c: &mut Criterion) {
    let (q, data) = small_fixture();
    let mut platform = EmulationPlatform::assemble(&q, PlatformConfig::default()).unwrap();
    let eval = data.test.take(4);
    let cfg = FaultConfig::new(vec![MultId::new(0, 7)], FaultKind::StuckAtZero);
    let mut g = c.benchmark_group("campaign");
    g.sample_size(10);
    g.bench_function("one_fi_eval_4_images", |b| {
        b.iter(|| {
            platform.inject(&cfg);
            let acc = platform.accuracy(&eval.images, &eval.labels).unwrap();
            platform.clear_faults();
            acc
        })
    });
    g.finish();
}

fn bench_fault_programming(c: &mut Criterion) {
    let (q, _) = small_fixture();
    let mut platform = EmulationPlatform::assemble(&q, PlatformConfig::default()).unwrap();
    let cfg = FaultConfig::new(MultId::all().collect(), FaultKind::Constant(-1));
    let mut g = c.benchmark_group("campaign");
    g.bench_function("program_fi_registers", |b| {
        b.iter(|| {
            platform.inject(&cfg);
            platform.clear_faults();
        })
    });
    g.finish();
}

/// The pool-sharding acceptance scenario: one fault configuration, 256
/// synthetic images. Single device vs. the full host thread budget sharding
/// the batch across a device pool. Records are bit-identical (asserted);
/// wall-clock is what the two-level scheduler is judged on.
fn bench_pool_sharded_campaign(c: &mut Criterion) {
    let (q, _) = small_fixture();
    let eval = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 256,
        ..Default::default()
    })
    .generate()
    .test;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let campaign = Campaign::new(&q, PlatformConfig::default());
    let mk = |threads| CampaignSpec {
        selection: TargetSelection::Fixed(vec![vec![MultId::new(0, 7)]]),
        kinds: vec![FaultKind::StuckAtZero],
        eval_images: 256,
        threads,
        ..Default::default()
    };
    assert_eq!(
        campaign.run(&mk(1), &eval).unwrap().records,
        campaign.run(&mk(threads), &eval).unwrap().records,
        "pool sharding must not change records"
    );
    let mut g = c.benchmark_group("campaign");
    g.sample_size(10);
    g.bench_function("one_cfg_256img_single_device", |b| {
        b.iter(|| campaign.run(&mk(1), &eval).unwrap())
    });
    g.bench_function(&format!("one_cfg_256img_pool_{threads}threads"), |b| {
        b.iter(|| campaign.run(&mk(threads), &eval).unwrap())
    });
    g.finish();
}

/// The PR 3 quantize-once scenario, on the same one-configuration/256-image
/// fixture as `bench_pool_sharded_campaign`: each iteration is one fault
/// evaluation (inject, classify the whole set, clear). `f32_requant` pays
/// one f32 → i8 quantization pass of all 256 images per evaluation — the
/// per-work-item cost the seed campaign loop paid; `quantize_once`
/// classifies borrowed sub-views of a `QuantizedEvalSet` built once outside
/// the loop, which is what `Campaign::run` now does. Predictions are
/// asserted bit-identical.
fn bench_quantize_once(c: &mut Criterion) {
    let (q, _) = small_fixture();
    let eval = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 256,
        ..Default::default()
    })
    .generate()
    .test;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut pool = DevicePool::assemble(&q, PlatformConfig::default(), threads).unwrap();
    let cfg = FaultConfig::new(vec![MultId::new(0, 7)], FaultKind::StuckAtZero);
    let qset = QuantizedEvalSet::build(&q, &eval.images);
    pool.inject(&cfg);
    assert_eq!(
        pool.classify(&eval.images).unwrap(),
        pool.classify_i8(&qset).unwrap(),
        "borrowed-i8 and f32 paths must agree"
    );
    pool.clear_faults();
    let mut g = c.benchmark_group("campaign");
    g.sample_size(10);
    g.bench_function("one_cfg_256img_f32_requant", |b| {
        b.iter(|| {
            pool.inject(&cfg);
            let preds = pool.classify(&eval.images).unwrap();
            pool.clear_faults();
            preds
        })
    });
    g.bench_function("one_cfg_256img_quantize_once", |b| {
        b.iter(|| {
            pool.inject(&cfg);
            let preds = pool.classify_i8(&qset).unwrap();
            pool.clear_faults();
            preds
        })
    });
    g.finish();
}

/// Runs one windowed campaign under each of the three execution strategies
/// and benches them, asserting the records bit-identical first:
///
/// * **all-exact** (`ExecMode::Exact`): every op of every inference through
///   the per-product engine — what any windowed campaign cost before
///   op-scoped execution;
/// * **op-scoped** (`ExecMode::Auto`, golden cache disabled): only the ops
///   whose MAC-cycle span intersects the window pay for lane-delta
///   corrections; the fault-free prefix is recomputed per work item;
/// * **op-scoped + golden cache** (the default): the prefix is captured
///   once per image per campaign and restored per work item.
#[allow(clippy::too_many_arguments)]
fn bench_windowed_trio(
    c: &mut Criterion,
    q: &QuantModel,
    eval: &nvfi_dataset::Dataset,
    work_items: usize,
    prefix: &str,
    sample_size: usize,
    window_of: impl Fn(u64) -> std::ops::Range<u64>,
) {
    let total = EmulationPlatform::assemble(q, PlatformConfig::default())
        .unwrap()
        .accel()
        .total_mac_cycles()
        .unwrap();
    let window = window_of(total);
    let targets: Vec<Vec<MultId>> = (0..work_items)
        .map(|i| vec![MultId::new((i % 8) as u8, ((i * 3 + 7) % 8) as u8)])
        .collect();
    let mk_campaign = |mode| {
        let config = PlatformConfig {
            accel: AccelConfig {
                mode,
                ..Default::default()
            },
            ..Default::default()
        };
        Campaign::new(q, config)
    };
    let mk_spec = |golden_cache_bytes| CampaignSpec {
        selection: TargetSelection::Fixed(targets.clone()),
        kinds: vec![FaultKind::StuckAtZero],
        eval_images: eval.len(),
        threads: 1,
        fault_window: Some(window.clone()),
        golden_cache_bytes,
        ..Default::default()
    };
    let all_exact = mk_campaign(ExecMode::Exact);
    let op_scoped = mk_campaign(ExecMode::Auto);
    let a = all_exact.run(&mk_spec(0), eval).unwrap();
    let b = op_scoped.run(&mk_spec(0), eval).unwrap();
    let g = op_scoped.run(&mk_spec(usize::MAX), eval).unwrap();
    assert_eq!(
        a.records, b.records,
        "op-scoped execution must not change windowed records"
    );
    assert_eq!(
        a.records, g.records,
        "golden-prefix restore must not change windowed records"
    );
    let mut group = c.benchmark_group("campaign");
    group.sample_size(sample_size);
    group.bench_function(&format!("{prefix}_all_exact"), |bch| {
        bch.iter(|| all_exact.run(&mk_spec(0), eval).unwrap())
    });
    group.bench_function(&format!("{prefix}_op_scoped"), |bch| {
        bch.iter(|| op_scoped.run(&mk_spec(0), eval).unwrap())
    });
    group.bench_function(&format!("{prefix}_golden_cache"), |bch| {
        bch.iter(|| op_scoped.run(&mk_spec(usize::MAX), eval).unwrap())
    });
    group.finish();
}

/// The per-campaign set-up cost on the medium (width-16 ResNet-18)
/// fixture: assemble one programmed device, clone it into a two-device
/// pool, drop everything. Every in-process `Campaign::run` pays this. The
/// sparse DRAM backing makes the clones cost the plan's footprint, not the
/// 256 MiB modelled capacity, so a return to dense allocation shows up here
/// as a multi-x regression.
fn bench_fleet_setup(c: &mut Criterion) {
    let (q, _) = medium_fixture();
    let mut g = c.benchmark_group("campaign");
    g.sample_size(10);
    g.bench_function("fleet_setup_2dev_medium", |b| {
        b.iter(|| {
            let proto = EmulationPlatform::assemble(&q, PlatformConfig::default()).unwrap();
            DevicePool::from_device(proto, 2).size()
        })
    });
    g.finish();
}

/// The op-scoped + golden-cache acceptance scenarios.
///
/// * `win4cfg_256img_*`: a window over the third quarter of the MAC cycles
///   (1/4 of the inference), 256 small-fixture images, 4 fault
///   configurations — the shape transient-SEU sweeps take.
/// * `pulse4cfg_256img_*`: a 2000-cycle pulse at the 3/4 mark (a DeepStrike
///   / EMFI-style narrow transient, ~3% of the inference). Lane-delta makes
///   the pulse itself nearly free, so the golden cache's prefix restore is
///   the dominant saving.
/// * `win1cfg_16img_medium_*`: the quarter-window trio on the medium
///   (paper-sized, width-16 ResNet-18) fixture — fewer images because the
///   all-exact baseline costs ~100 ms/inference there — for the >= 2x
///   acceptance ratio.
fn bench_windowed_campaign(c: &mut Criterion) {
    let (q, _) = small_fixture();
    let eval = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 256,
        ..Default::default()
    })
    .generate()
    .test;
    bench_windowed_trio(c, &q, &eval, 4, "win4cfg_256img", 3, |t| t / 2..t * 3 / 4);
    bench_windowed_trio(c, &q, &eval, 4, "pulse4cfg_256img", 3, |t| {
        t * 3 / 4..t * 3 / 4 + 2000
    });

    let (qm, _) = medium_fixture();
    let eval_m = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 16,
        ..Default::default()
    })
    .generate()
    .test;
    bench_windowed_trio(c, &qm, &eval_m, 1, "win1cfg_16img_medium", 3, |t| {
        t / 2..t * 3 / 4
    });
}

/// The `nvfi-dist` acceptance trio: the same 4-configuration x 128-image
/// campaign through the in-process pool, one worker process, and two worker
/// processes (coordinator + self-exec'd copies of this bench binary over
/// localhost). Each iteration is a **whole** distributed campaign — worker
/// spawn, session programming (plan + weights + eval set shipped once) and
/// shutdown included — so the rows measure the real end-to-end cost a user
/// pays, not just the steady state. Records are asserted bit-identical
/// across the three paths first.
fn bench_dist_campaign(c: &mut Criterion) {
    let (q, _) = small_fixture();
    let eval = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 128,
        ..Default::default()
    })
    .generate()
    .test;
    let config = PlatformConfig::default();
    let mk = |workers| CampaignSpec {
        selection: TargetSelection::Fixed(
            (0..4)
                .map(|i| vec![MultId::new(i as u8, (7 - i) as u8)])
                .collect(),
        ),
        kinds: vec![FaultKind::StuckAtZero],
        eval_images: 128,
        threads: 2,
        workers,
        ..Default::default()
    };
    let fleet = FleetSpec::self_exec();
    let run = |workers: usize| run_campaign(&q, config, &mk(workers), &eval, &fleet).unwrap();
    let inproc = Campaign::new(&q, config).run(&mk(0), &eval).unwrap();
    assert_eq!(
        inproc.records,
        run(1).records,
        "1-worker campaign must match the in-process pool"
    );
    assert_eq!(
        inproc.records,
        run(2).records,
        "2-worker campaign must match the in-process pool"
    );
    let mut g = c.benchmark_group("campaign");
    g.sample_size(5);
    g.bench_function("dist_4cfg_128img_inproc", |b| {
        b.iter(|| Campaign::new(&q, config).run(&mk(0), &eval).unwrap())
    });
    g.bench_function("dist_4cfg_128img_1worker", |b| b.iter(|| run(1)));
    g.bench_function("dist_4cfg_128img_2workers", |b| b.iter(|| run(2)));
    g.finish();
}

/// The session-cache acceptance pair: the same 2-configuration x 64-image
/// campaign shape against a **cold** session (every iteration raises a
/// one-worker fleet, ships plan + weights + eval set, runs, tears down —
/// the `run_campaign` cost) and a **warm** one (a persistent
/// [`CampaignServer`] submit/wait against an already-programmed fleet —
/// only the few-byte artifact delta and the work frames travel). Each
/// iteration uses fresh fault targets so the warm rows measure real fleet
/// work, never a cache hit; after a warm server's first iteration the
/// shared fault-free baseline shard comes from its shard store, so each
/// warm iteration runs its two fault shards. The warm-vs-cold gap is the
/// price of a fleet raise plus a full artifact ship — what the
/// content-addressed session cache deletes from every campaign after the
/// first.
fn bench_session_cache(c: &mut Criterion) {
    let (q, _) = small_fixture();
    let eval = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 64,
        ..Default::default()
    })
    .generate()
    .test;
    let config = PlatformConfig::default();
    let counter = std::cell::Cell::new(0usize);
    let mk = |i: usize| CampaignSpec {
        selection: TargetSelection::Fixed(vec![
            vec![MultId::new((i % 8) as u8, ((i * 3 + 1) % 8) as u8)],
            vec![MultId::new(((i + 5) % 8) as u8, ((i * 5 + 2) % 8) as u8)],
        ]),
        kinds: vec![FaultKind::StuckAtZero],
        eval_images: 64,
        threads: 2,
        ..Default::default()
    };
    let fleet = FleetSpec::self_exec();

    // Parity sanity before timing anything: a server-submitted campaign is
    // the in-process campaign.
    let server = CampaignServer::start(&fleet, 1).unwrap();
    let spec0 = mk(1000);
    let warm0 = server
        .submit(&q, config, &spec0, &eval)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        Campaign::new(&q, config)
            .run(&spec0, &eval)
            .unwrap()
            .records,
        warm0.records,
        "server-submitted campaign must match the in-process pool"
    );
    server.shutdown();

    let mut g = c.benchmark_group("campaign");
    g.sample_size(5);
    g.bench_function("session_2cfg_64img_cold", |b| {
        b.iter(|| {
            let i = counter.get();
            counter.set(i + 1);
            let server = CampaignServer::start(&fleet, 1).unwrap();
            let r = server
                .submit(&q, config, &mk(i), &eval)
                .unwrap()
                .wait()
                .unwrap();
            server.shutdown();
            r
        })
    });
    let server = CampaignServer::start(&fleet, 1).unwrap();
    g.bench_function("session_2cfg_64img_warm", |b| {
        b.iter(|| {
            let i = counter.get();
            counter.set(i + 1);
            server
                .submit(&q, config, &mk(i), &eval)
                .unwrap()
                .wait()
                .unwrap()
        })
    });
    server.shutdown();
    g.finish();
}

/// The price of full-rate result auditing: the same warm-session shape as
/// `session_2cfg_64img_warm` (whose default is baseline-only auditing) but
/// with `audit_rate: 1.0` — every completed shard silently re-dispatched
/// and compared, on a one-worker fleet where every audit is the in-process
/// arbiter re-execution. The gap against the warm row is what
/// `NVFI_AUDIT_RATE=1` buys and costs.
fn bench_session_audit(c: &mut Criterion) {
    let (q, _) = small_fixture();
    let eval = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 64,
        ..Default::default()
    })
    .generate()
    .test;
    let config = PlatformConfig::default();
    let counter = std::cell::Cell::new(2000usize);
    let mk = |i: usize| CampaignSpec {
        selection: TargetSelection::Fixed(vec![
            vec![MultId::new((i % 8) as u8, ((i * 3 + 1) % 8) as u8)],
            vec![MultId::new(((i + 5) % 8) as u8, ((i * 5 + 2) % 8) as u8)],
        ]),
        kinds: vec![FaultKind::StuckAtZero],
        eval_images: 64,
        threads: 2,
        ..Default::default()
    };
    let fleet = FleetSpec {
        audit_rate: 1.0,
        ..FleetSpec::self_exec()
    };
    let server = CampaignServer::start(&fleet, 1).unwrap();
    // Parity sanity before timing: full-rate auditing must not change a
    // single record.
    let spec0 = mk(3000);
    let audited0 = server
        .submit(&q, config, &spec0, &eval)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        Campaign::new(&q, config)
            .run(&spec0, &eval)
            .unwrap()
            .records,
        audited0.records,
        "fully-audited campaign must match the in-process pool"
    );
    let mut g = c.benchmark_group("campaign");
    g.sample_size(5);
    g.bench_function("session_2cfg_64img_audit", |b| {
        b.iter(|| {
            let i = counter.get();
            counter.set(i + 1);
            server
                .submit(&q, config, &mk(i), &eval)
                .unwrap()
                .wait()
                .unwrap()
        })
    });
    server.shutdown();
    g.finish();
}

/// The flight-recorder overhead row: the same warm-session shape as
/// `session_2cfg_64img_warm` but with the `nvfi_obs` recorder enabled
/// (`NVFI_TRACE=1` equivalent) — every coordinator phase span, shipped
/// worker span summary and audit event is recorded into the bounded ring.
/// The gap against the warm row is the price of always-on tracing; the
/// ci_gate budget keeps it marginal.
fn bench_session_traced(c: &mut Criterion) {
    let (q, _) = small_fixture();
    let eval = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 64,
        ..Default::default()
    })
    .generate()
    .test;
    let config = PlatformConfig::default();
    let counter = std::cell::Cell::new(4000usize);
    let mk = |i: usize| CampaignSpec {
        selection: TargetSelection::Fixed(vec![
            vec![MultId::new((i % 8) as u8, ((i * 3 + 1) % 8) as u8)],
            vec![MultId::new(((i + 5) % 8) as u8, ((i * 5 + 2) % 8) as u8)],
        ]),
        kinds: vec![FaultKind::StuckAtZero],
        eval_images: 64,
        threads: 2,
        ..Default::default()
    };
    let fleet = FleetSpec::self_exec();
    let server = CampaignServer::start(&fleet, 1).unwrap();
    // Parity sanity before timing: tracing must not change a single record.
    trace::set_enabled(true);
    trace::clear();
    let spec0 = mk(5000);
    let traced0 = server
        .submit(&q, config, &spec0, &eval)
        .unwrap()
        .wait()
        .unwrap();
    trace::set_enabled(false);
    assert_eq!(
        Campaign::new(&q, config)
            .run(&spec0, &eval)
            .unwrap()
            .records,
        traced0.records,
        "traced campaign must match the in-process pool"
    );
    trace::set_enabled(true);
    let mut g = c.benchmark_group("campaign");
    g.sample_size(5);
    g.bench_function("session_2cfg_64img_traced", |b| {
        b.iter(|| {
            let i = counter.get();
            counter.set(i + 1);
            server
                .submit(&q, config, &mk(i), &eval)
                .unwrap()
                .wait()
                .unwrap()
        })
    });
    trace::set_enabled(false);
    trace::clear();
    server.shutdown();
    g.finish();
}

criterion_group!(
    benches,
    bench_single_fi_evaluation,
    bench_fault_programming,
    bench_pool_sharded_campaign,
    bench_quantize_once,
    bench_fleet_setup,
    bench_windowed_campaign,
    bench_dist_campaign,
    bench_session_cache,
    bench_session_audit,
    bench_session_traced
);

// Hand-written entry point instead of `criterion_main!`: the distributed
// bench raises its worker fleet by re-executing this binary, so the worker
// hook must run before any benchmark does.
fn main() {
    nvfi_dist::worker::maybe_serve();
    benches();
}
