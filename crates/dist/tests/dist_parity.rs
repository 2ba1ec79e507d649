//! Distributed-vs-in-process parity and fault tolerance of the campaign
//! fabric.
//!
//! The contract under test: a campaign run over worker *processes* —
//! whatever the fleet size, however work is sharded, and even when a worker
//! dies mid-shard — produces `FiRecord`s, `baseline_accuracy` and
//! `total_inferences` **bit-identical** to the in-process
//! [`Campaign::run`]. Failure paths must be errors, never panics.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use nvfi::artifacts::ModelSpec;
use nvfi::campaign::{Campaign, CampaignResult, CampaignSpec, TargetSelection};
use nvfi::experiments::{run_fig2, run_fig2_with, ExperimentConfig};
use nvfi::PlatformConfig;
use nvfi_accel::FaultKind;
use nvfi_compiler::regmap::MultId;
use nvfi_dataset::{Dataset, SynthCifar, SynthCifarConfig};
use nvfi_dist::wire::{self, Msg, WIRE_VERSION};
use nvfi_dist::{worker, CampaignServer, DistError, FleetSpec, WireError};
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

/// Six work items over two worker processes: the outer work-item cursor
/// path. Records must be bit-identical to the in-process pool.
#[test]
fn two_worker_campaign_matches_in_process() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let spec = base_spec();
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();
    let dist = served(&worker_fleet(), 2, &q, config, &spec, &eval).unwrap();
    assert_identical(&in_process, &dist, "2-worker");
    assert!(dist.wall_seconds > 0.0);
}

/// One fault configuration, two workers: the work list is narrower than the
/// fleet, so the evaluation batch itself must shard *across workers* (the
/// inner level of the two-level scheduler) — and still merge identically.
#[test]
fn single_item_shards_across_workers_identically() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let spec = CampaignSpec {
        selection: TargetSelection::Fixed(vec![vec![MultId::new(3, 4)]]),
        kinds: vec![FaultKind::StuckAtZero],
        eval_images: 12,
        threads: 2,
        ..Default::default()
    };
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();
    let dist = served(&worker_fleet(), 2, &q, config, &spec, &eval).unwrap();
    assert_identical(&in_process, &dist, "sharded single item");
}

/// Transient-window campaigns ship the window with each work item plus the
/// coordinator-built golden activation cache as a fourth content-addressed
/// artifact; workers restore golden prefixes from it and must stay
/// bit-identical.
#[test]
fn windowed_campaign_matches_in_process() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let total = nvfi::EmulationPlatform::assemble(&q, config)
        .unwrap()
        .accel()
        .total_mac_cycles()
        .unwrap();
    let spec = CampaignSpec {
        selection: TargetSelection::Fixed(vec![vec![MultId::new(0, 1)], vec![MultId::new(5, 6)]]),
        kinds: vec![FaultKind::StuckAtZero],
        eval_images: 5,
        threads: 2,
        fault_window: Some(total / 2..total * 3 / 4),
        ..Default::default()
    };
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();
    let dist = served(&worker_fleet(), 2, &q, config, &spec, &eval).unwrap();
    assert_identical(&in_process, &dist, "windowed");
}

/// A non-default mini-batch over the wire: the server's task cut and the
/// worker's heartbeat wave both derive from `accel.batch`. With batch 3, 10
/// images, two work items and 3 workers of 2 devices, the baseline is cut
/// into shards `0..6` and `6..10`, and the fault item runs as one shard in
/// waves of 6 images with a 4-image tail — bit-identical to the in-process
/// run.
#[test]
fn non_default_batch_shards_and_waves_identically() {
    let (q, eval) = setup();
    let mut config = PlatformConfig::default();
    config.accel.batch = 3;
    let spec = CampaignSpec {
        selection: TargetSelection::Fixed(vec![vec![MultId::new(1, 2)]]),
        kinds: vec![FaultKind::Constant(1)],
        eval_images: 10,
        threads: 2,
        ..Default::default()
    };
    assert_eq!(Campaign::pool_layout(3, 2), vec![2, 1]);
    assert_eq!(
        nvfi::DevicePool::shard_plan(10, 2, nvfi::DevicePool::granularity(&config)),
        vec![0..6, 6..10]
    );
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();
    assert_eq!(in_process.masked_static, 0, "the fault item must execute");
    let fleet = FleetSpec {
        local_devices: 2,
        ..worker_fleet()
    };
    let dist = served(&fleet, 3, &q, config, &spec, &eval).unwrap();
    assert_identical(&in_process, &dist, "batch 3");
}

/// Worker-death fault tolerance: worker 0 is told (via the
/// `NVFI_WORKER_EXIT_AFTER` test hook) to die without replying when its
/// second shard arrives. The coordinator must requeue the lost shard onto
/// the surviving worker and the campaign must complete bit-identically.
#[test]
fn worker_death_mid_shard_is_requeued_bit_identically() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let spec = base_spec();
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();
    let fleet = FleetSpec {
        worker_env: vec![vec![(worker::ENV_EXIT_AFTER.into(), "1".into())]],
        ..worker_fleet()
    };
    let dist = served(&fleet, 2, &q, config, &spec, &eval).unwrap();
    assert_identical(&in_process, &dist, "after worker death");
}

/// When *every* worker dies, the campaign must fail with a clear fleet-lost
/// error (not hang, not panic, not return partial records).
#[test]
fn losing_every_worker_is_a_clear_error() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let die_immediately = vec![(worker::ENV_EXIT_AFTER.to_string(), "0".to_string())];
    let fleet = FleetSpec {
        worker_env: vec![die_immediately.clone(), die_immediately],
        // Both workers are dead for good; no point granting the default 5 s
        // re-admission window before declaring the fleet lost.
        readmission_grace: Duration::from_millis(400),
        ..worker_fleet()
    };
    match served(&fleet, 2, &q, config, &base_spec(), &eval) {
        Err(DistError::FleetLost { incomplete }) => assert!(incomplete > 0),
        other => panic!("expected FleetLost, got {other:?}"),
    }
}

/// A worker whose hello speaks the wrong wire version must be rejected by
/// the coordinator with an error naming both versions — over a real socket.
#[test]
fn version_mismatched_hello_rejected_over_socket() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        wire::send(
            &mut s,
            &Msg::Hello {
                version: WIRE_VERSION + 7,
            },
        )
        .unwrap();
        // The coordinator must say why before closing.
        match wire::recv(&mut s) {
            Ok(Msg::WorkerErr { message }) => message,
            other => panic!("expected WorkerErr, got {other:?}"),
        }
    });
    let (mut stream, _) = listener.accept().unwrap();
    match wire::accept_hello(&mut stream) {
        Err(DistError::Wire(WireError::Version { peer, local })) => {
            assert_eq!(peer, WIRE_VERSION + 7);
            assert_eq!(local, WIRE_VERSION);
        }
        other => panic!("expected version error, got {other:?}"),
    }
    let told = peer.join().unwrap();
    assert!(told.contains("mismatch"), "worker was told: {told}");
}

/// The worker side of the same check: a coordinator replying with a foreign
/// version makes `serve` fail cleanly.
#[test]
fn worker_rejects_version_mismatched_coordinator() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake_coordinator = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let _ = wire::recv(&mut s).unwrap(); // the worker's hello
        wire::send(&mut s, &Msg::Hello { version: 999 }).unwrap();
    });
    let mut stream = TcpStream::connect(addr).unwrap();
    match worker::serve(&mut stream) {
        Err(DistError::Wire(WireError::Version { peer: 999, .. })) => {}
        other => panic!("expected version error, got {other:?}"),
    }
    fake_coordinator.join().unwrap();
}

/// A frame that ends mid-payload (coordinator vanishes, link cut) must
/// surface as an I/O error on the worker — never a panic.
#[test]
fn truncated_frame_over_socket_is_an_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake_coordinator = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let _ = wire::recv(&mut s).unwrap(); // the worker's hello
        wire::send(
            &mut s,
            &Msg::Hello {
                version: WIRE_VERSION,
            },
        )
        .unwrap();
        // Consume the worker's cache advertisement before hanging up:
        // closing a socket with unread received data sends RST, which
        // could discard the truncated frame below from the worker's
        // receive buffer and turn the asserted clean EOF into a reset.
        match wire::recv(&mut s) {
            Ok(Msg::HaveArtifacts { .. }) => {}
            other => panic!("expected the cache advertisement, got {other:?}"),
        }
        // Promise a 64-byte frame, deliver 3 bytes, hang up.
        s.write_all(&64u32.to_le_bytes()).unwrap();
        s.write_all(&[1, 2, 3]).unwrap();
        drop(s);
    });
    let mut stream = TcpStream::connect(addr).unwrap();
    match worker::serve(&mut stream) {
        Err(DistError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
        }
        other => panic!("expected EOF error, got {other:?}"),
    }
    fake_coordinator.join().unwrap();
}

/// A free fixed port for external-attach tests (bind ephemeral, read, drop
/// — momentarily racy, which is fine for tests).
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

/// The cross-host shape: long-lived `nvfi_worker <addr>` processes attach
/// to a coordinator listening on a **fixed** port, and keep serving across
/// *consecutive campaigns* of one experiment (fig2/fig3 run one campaign
/// per figure point over the same port) — session looping on the worker
/// side, rebind + re-accept on the coordinator side, records bit-identical
/// every time.
#[test]
fn external_workers_serve_consecutive_campaigns_on_a_fixed_port() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let addr = format!("127.0.0.1:{}", free_port());
    let mut children: Vec<std::process::Child> = (0..2)
        .map(|_| {
            std::process::Command::new(env!("CARGO_BIN_EXE_nvfi_worker"))
                .arg(&addr)
                .spawn()
                .unwrap()
        })
        .collect();
    let fleet = FleetSpec {
        listen: Some(addr),
        external_workers: 2,
        accept_timeout: Duration::from_secs(120),
        ..FleetSpec::self_exec()
    };
    let spec = base_spec();
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();
    // Nothing is spawned: the whole fleet attaches. Each campaign gets its
    // own server on the same port.
    let first = served(&fleet, 0, &q, config, &spec, &eval).unwrap();
    let second = served(&fleet, 0, &q, config, &spec, &eval).unwrap();
    assert_identical(&in_process, &first, "external campaign 1");
    assert_identical(&in_process, &second, "external campaign 2");
    for c in &mut children {
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// A worker that *stalls* (accepts a shard, never answers, never closes —
/// no socket error, so worker-death detection cannot see it) must be timed
/// out by `FleetSpec::task_timeout`, its shard requeued, and the campaign
/// still completed bit-identically by the healthy worker.
#[test]
fn stalled_worker_is_timed_out_and_shard_requeued() {
    let (q, eval) = setup();
    let config = PlatformConfig::default();
    let addr = format!("127.0.0.1:{}", free_port());
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_nvfi_worker"))
        .arg(&addr)
        .spawn()
        .unwrap();
    // The stalled peer: handshakes, consumes session setup, then sits on
    // its first Work frame forever.
    let stall_addr = addr.clone();
    std::thread::spawn(move || {
        let mut s = loop {
            match TcpStream::connect(&stall_addr) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        };
        wire::client_hello(&mut s).unwrap();
        // An empty cache advertisement completes the v3 admission
        // handshake; everything after it is where this peer misbehaves.
        wire::send(
            &mut s,
            &Msg::HaveArtifacts {
                ident: 0xBAD_5EED,
                hashes: vec![],
            },
        )
        .unwrap();
        loop {
            match wire::recv(&mut s) {
                Ok(Msg::Work { .. }) => std::thread::sleep(Duration::from_secs(3600)),
                Ok(_) => {}
                Err(_) => return,
            }
        }
    });
    let fleet = FleetSpec {
        listen: Some(addr),
        external_workers: 2,
        accept_timeout: Duration::from_secs(120),
        task_timeout: Some(Duration::from_secs(3)),
        ..FleetSpec::self_exec()
    };
    let spec = base_spec();
    let in_process = Campaign::new(&q, config).run(&spec, &eval).unwrap();
    let dist = served(&fleet, 0, &q, config, &spec, &eval).unwrap();
    assert_identical(&in_process, &dist, "after stalled worker timeout");
    let _ = child.kill();
    let _ = child.wait();
}

/// A whole Fig. 2 experiment served over one held two-worker server is
/// identical to the in-process run. The model is trained (not chance-level)
/// so the drops differ from zero and a wrong prediction moves a record.
#[test]
fn served_fig2_matches_in_process() {
    let dir = std::env::temp_dir().join(format!("nvfi-served-fig2-{}", std::process::id()));
    let cfg = ExperimentConfig {
        model: ModelSpec {
            width: 4,
            epochs: 3,
            train: 300,
            test: 60,
            artifact_dir: dir.clone(),
            ..Default::default()
        },
        eval_images: 30,
        trials_per_k: 2,
        max_k: 2,
        threads: 2,
        out_dir: dir.clone(),
        ..ExperimentConfig::quick()
    };
    let in_process = run_fig2(&cfg).unwrap();
    assert!(
        in_process.baseline_pct > 10.0,
        "the model must beat chance: {}",
        in_process.baseline_pct
    );
    assert!(
        in_process
            .groups
            .iter()
            .any(|g| g.drops.iter().any(|&d| d != 0.0)),
        "some fault must move the accuracy"
    );
    let server = CampaignServer::start(&worker_fleet(), 2).unwrap();
    let served = run_fig2_with(&cfg, |m: &QuantModel, c, s: &CampaignSpec, e: &Dataset| {
        server.submit(m, c, s, e)?.wait()
    })
    .unwrap();
    server.shutdown();
    assert_eq!(served.baseline_pct, in_process.baseline_pct, "baseline");
    assert_eq!(served.total_fis, in_process.total_fis, "fault injections");
    assert_eq!(served.groups.len(), in_process.groups.len(), "groups");
    for (a, b) in served.groups.iter().zip(&in_process.groups) {
        assert_eq!((a.k, a.value), (b.k, b.value), "group order");
        assert_eq!(a.drops, b.drops, "k={} value={}: drops", b.k, b.value);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server needs a fleet: no spawned and no external workers is refused
/// with a spawn error.
#[test]
fn empty_fleet_is_refused_by_start() {
    match CampaignServer::start(&worker_fleet(), 0) {
        Err(DistError::Spawn(_)) => {}
        Err(e) => panic!("expected a spawn error, got {e:?}"),
        Ok(_) => panic!("an empty fleet must be refused"),
    }
}
