//! The multiplexing campaign server: one **persistent** worker fleet
//! serving many client campaigns concurrently over content-addressed
//! sessions.
//!
//! [`run_campaign`](crate::run_campaign) raises a fleet, runs one campaign
//! and tears the fleet down. A [`CampaignServer`] decouples those
//! lifetimes: the fleet is raised once ([`CampaignServer::start`]) and then
//! any number of campaigns are [`submit`](CampaignServer::submit)ted
//! against it — concurrently, from any thread — each returning a
//! [`ClientHandle`] whose [`wait`](ClientHandle::wait) yields a
//! [`CampaignResult`] **bit-identical** to the in-process
//! [`Campaign::run`].
//!
//! # Content-addressed sessions (wire v3)
//!
//! Every campaign artifact — compiled plan, DRAM weight image, quantized
//! evaluation set, golden activation cache — is hashed by **content**
//! (stable FNV-1a over the decoded payload, never over encoded frames, so
//! the serialize-once probes stay meaningful) and encoded exactly once per
//! distinct hash per server. Workers advertise what they already hold in a
//! [`Msg::HaveArtifacts`] frame at connection time; each campaign switch
//! is a [`Msg::ArtifactDelta`] naming the four hashes plus **only the
//! frames the worker is missing**. A repeat campaign over unchanged
//! artifacts re-ships zero artifact bytes
//! ([`wire::artifact_bytes_shipped`] proves it), and an [`nvfi_accel::FaultKind`]
//! sweep over one model is a stream of few-byte deltas instead of repeated
//! weight images.
//!
//! # Fair-share multiplexing
//!
//! Worker connections pull from the per-client task queues through
//! `fair_share_pick`: the ready client with the fewest dispatched shards
//! wins (ties to the lower id), so a short campaign submitted next to a
//! long one drains in parallel instead of queuing behind it — no client
//! starves. Per-client progress streams over [`ClientHandle::progress`].
//!
//! # Shard store
//!
//! Every shard is keyed by **content**: a hash of the session's four
//! artifact hashes, the work item's fault program and window as they go on
//! the wire, and the image range. The work item's position in the work
//! list is not part of the key, so the same fault in another campaign is
//! the same shard. The server keeps one map from key to predictions for
//! its whole life, filled as campaigns finish. A submit looks up each of
//! its shards: when all are present the campaign is folded on the spot
//! without dispatching a single shard (a cache hit, counted in
//! [`ServerStats`]); otherwise the present ones are prefilled and only the
//! rest run. A sweep over one model therefore executes its fault-free
//! baseline shard once per server, not once per campaign.
//!
//! # Failure model
//!
//! Identical to [`run_campaign`](crate::run_campaign)'s, per client: a
//! broken socket, CRC-failed frame or timed-out shard requeues **only the
//! owning client's shard**; reconnecting workers are re-admitted (their
//! advertisement trims re-shipping to the delta); a fleet empty past
//! [`FleetSpec::readmission_grace`] fails every unfinished client with
//! [`DistError::FleetLost`] while the server itself stays up for later
//! submissions; worker-*reported* errors stay fatal to their client.
//! A client with a [`CampaignSpec::checkpoint_path`] appends each landed
//! (or repaired) shard to a log of `(key, predictions)` records there, so
//! a restarted server (or coordinator) resumes it. The log uses the shard
//! store's keys: records a foreign campaign left at the path match only
//! the shards the two share.
//!
//! # Result integrity (wire v4)
//!
//! A CRC only proves a frame survived the *transport*; it says nothing
//! about whether the worker computed the right answer. Three layers close
//! that gap:
//!
//! * **Attestation** — every [`Msg::ShardDone`] carries a
//!   [`wire::shard_attestation`] binding the predictions to the artifact
//!   hashes of the session the worker actually executed under. The server
//!   recomputes it from the *assigned* session: a worker running stale
//!   cached artifacts, or a frame corrupted after its CRC was sealed, is a
//!   named [`WireError::Integrity`] — the shard is requeued, never merged.
//! * **Audit re-execution** — completed shards are sampled (every executed
//!   baseline shard; others per [`FleetSpec::audit_rate`]) and silently
//!   re-dispatched to a *different* worker. A mismatch triggers an
//!   authoritative in-process re-execution that arbitrates which replica
//!   lied; the stored result is repaired if needed, so a *self-consistent*
//!   lie (correctly attested wrong predictions) is caught too. On a
//!   one-worker fleet the audit runs in-process directly.
//! * **Quarantine** — each worker identity carries a [`Trust`] record:
//!   `Healthy → Suspect` on an integrity strike, `Quarantined` on a second
//!   strike or an audit conviction. A quarantined worker is drained
//!   ([`Msg::Goodbye`]), its unverified completed shards are re-verified
//!   in-process, and a re-admitted one serves on probation (every shard
//!   audited) until [`crate::trust::PROBATION_CLEAN`] consecutive audits
//!   pass. Conviction is fatal only to the worker — every client's result
//!   stays bit-identical to the in-process [`Campaign::run`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nvfi::campaign::{Campaign, CampaignPlan, CampaignResult, CampaignSpec};
use nvfi::{DevicePool, GoldenActivationCache, PlatformConfig, QuantizedEvalSet};
use nvfi_dataset::Dataset;
use nvfi_obs::{progress, trace};
use nvfi_quant::QuantModel;

use crate::checkpoint::{Checkpoint, CheckpointLog, Fnv64};
use crate::codec::WireError;
use crate::coordinator::{DistError, FleetSpec, WorkerSpawn};
use crate::trust::Trust;
use crate::wire::{self, Msg, WireConfig, WireFault};
use crate::worker;

/// Locks a mutex, recovering from poison: server state is kept consistent
/// under the lock by construction (no panicking code holds it — this file
/// is policed by the `decode-panic` lint), so a poisoned lock only means
/// some *other* thread died and its guard data is still valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One schedulable unit: an image shard of one work item.
#[derive(Clone, Debug)]
pub(crate) struct Task {
    /// Index into the work list (0 = baseline).
    pub(crate) work_id: usize,
    /// Image range of the evaluation set.
    pub(crate) range: Range<usize>,
    /// Content key in the shard store and the checkpoint log (see
    /// [`shard_key`]).
    pub(crate) key: u64,
}

/// Reaps (and on early exit, kills) the spawned worker processes.
struct FleetGuard {
    children: Vec<Child>,
}

impl Drop for FleetGuard {
    fn drop(&mut self) {
        for child in &mut self.children {
            // A cleanly shut-down worker has already exited; kill is a no-op
            // race loser then. Either way, wait() reaps.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

// ---------------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------------

/// Finishes a hash, mapping the (astronomically unlikely) zero digest to a
/// fixed nonzero constant: `0` is the wire's "artifact absent" sentinel
/// ([`Msg::ArtifactDelta`]) and must never collide with a real hash.
fn finish_nonzero(h: &Fnv64) -> u64 {
    match h.finish() {
        0 => 0x9E37_79B9_7F4A_7C15,
        v => v,
    }
}

/// Folds an `i8` slice into the hash through a small stack buffer (the
/// hasher takes `u8` bytes; weight images and pixel sets are large enough
/// that a per-call `Vec` copy would show up).
fn write_i8s(h: &mut Fnv64, data: &[i8]) {
    let mut buf = [0u8; 4096];
    for chunk in data.chunks(buf.len()) {
        for (dst, &src) in buf.iter_mut().zip(chunk) {
            *dst = src as u8;
        }
        // nvfi-lint: allow(decode-panic) — chunks() caps chunk.len() at buf.len()
        h.write(&buf[..chunk.len()]);
    }
}

/// Content hash of a plan artifact: the wire configuration, the worker's
/// local device count (it changes the shipped [`Msg::Plan`] frame) and the
/// compiled plan words. Domain-tagged so a plan hash can never collide
/// with another artifact kind's.
fn hash_plan(config: &WireConfig, local_devices: u32, words: &[u32]) -> u64 {
    let mut h = Fnv64::new();
    h.write(&[1]);
    h.write(&[
        wire::mode_tag(config.mode),
        wire::idle_tag(config.idle_lanes),
    ]);
    h.write_u64(config.clock_hz.to_bits());
    h.write_u64(config.dram_capacity);
    h.write_u64(config.batch);
    h.write_u64(config.shard_images);
    h.write_u64(u64::from(local_devices));
    h.write_u64(words.len() as u64);
    for &w in words {
        h.write_u64(u64::from(w));
    }
    finish_nonzero(&h)
}

/// Content hash of a DRAM weight image (`(addr, bytes)` regions). A single
/// flipped weight — an SEU in storage — changes this hash, which is what
/// invalidates stale worker caches.
fn hash_weights(regions: &[(u64, Vec<i8>)]) -> u64 {
    let mut h = Fnv64::new();
    h.write(&[2]);
    h.write_u64(regions.len() as u64);
    for (addr, bytes) in regions {
        h.write_u64(*addr);
        h.write_u64(bytes.len() as u64);
        write_i8s(&mut h, bytes);
    }
    finish_nonzero(&h)
}

/// Content hash of a quantized evaluation set (shape + pixels).
fn hash_eval(qset: &QuantizedEvalSet) -> u64 {
    let shape = qset.shape();
    let mut h = Fnv64::new();
    h.write(&[3]);
    h.write_u64(shape.n as u64);
    h.write_u64(shape.c as u64);
    h.write_u64(shape.h as u64);
    h.write_u64(shape.w as u64);
    write_i8s(&mut h, qset.images().as_slice());
    finish_nonzero(&h)
}

/// Content hash of a golden activation cache.
fn hash_golden(golden: &GoldenActivationCache) -> u64 {
    let mut h = Fnv64::new();
    h.write(&[4]);
    h.write_u64(golden.boundary() as u64);
    h.write_u64(golden.surfaces().len() as u64);
    for &(addr, bytes) in golden.surfaces() {
        h.write_u64(addr);
        h.write_u64(bytes);
    }
    h.write_u64(golden.cached_images() as u64);
    write_i8s(&mut h, golden.data());
    finish_nonzero(&h)
}

/// The [`Msg::Work`] frame that runs work item `work_id` over `range`,
/// under the wire id `wire_id`. `Msg::Work` encoding bumps no
/// serialize-once probe, so hashing it for [`shard_key`] is free and stays
/// in sync with the protocol.
fn work_msg(plan: &CampaignPlan, wire_id: u32, work_id: usize, range: &Range<usize>) -> Msg {
    let (fault, window) = plan.item(work_id);
    Msg::Work {
        work_id: wire_id,
        start: range.start as u32,
        end: range.end as u32,
        fault: fault.map(|f| WireFault::from_targets(&f.targets, f.kind)),
        window,
    }
}

/// A shard's content key: hashes everything that determines its
/// predictions — the session's four artifact hashes, and the work item's
/// fault program, window and image range as they go on the wire, under
/// wire id 0. The item's position in the work list is left out, so the
/// same fault is the same shard in every campaign over the same session.
fn shard_key(
    session: (u64, u64, u64, u64),
    plan: &CampaignPlan,
    work_id: usize,
    range: &Range<usize>,
) -> u64 {
    let mut h = Fnv64::new();
    h.write(&[5]);
    h.write_u64(session.0);
    h.write_u64(session.1);
    h.write_u64(session.2);
    h.write_u64(session.3);
    h.write(&work_msg(plan, 0, work_id, range).encode());
    h.finish()
}

// ---------------------------------------------------------------------------
// Campaign preparation
// ---------------------------------------------------------------------------

/// What [`prepare`] decided about a campaign.
pub(crate) enum Prepared {
    /// The campaign resolved without the fleet (every fault item provably
    /// masked): here is the finished result.
    Immediate(CampaignResult),
    /// The campaign needs fleet time; submit this to a server.
    Scheduled(Box<PreparedCampaign>),
}

/// A [`CampaignPlan`] plus what only the fabric needs: the exported plan
/// words and weight image, their content hashes and the keyed task layout
/// — nothing borrowed from the caller, and no programmed device.
pub(crate) struct PreparedCampaign {
    plan: Arc<CampaignPlan>,
    config: PlatformConfig,
    local_devices: usize,
    /// `(plan, weights, eval, golden)` artifact hashes; `golden` is `0`
    /// when the campaign ships no golden cache.
    session: (u64, u64, u64, u64),
    plan_words: Vec<u32>,
    weight_image: Vec<(u64, Vec<i8>)>,
    tasks: Vec<Task>,
    verbose: bool,
    checkpoint_path: Option<PathBuf>,
}

/// Prepares one campaign for the fabric — the fleet-free front half shared
/// by [`CampaignServer::submit`] and [`crate::run_campaign`]:
/// [`CampaignPlan::prepare`] (the same preparation as the in-process
/// [`Campaign::run`]), then the artifact export, content hashes and the
/// keyed task layout. An all-masked campaign is folded from its
/// baseline on the prototype right here and never engages the fleet.
pub(crate) fn prepare(
    model: &QuantModel,
    config: PlatformConfig,
    spec: &CampaignSpec,
    eval: &Dataset,
    total_workers: usize,
    local_devices: usize,
) -> Result<Prepared, DistError> {
    let (plan, mut proto) = CampaignPlan::prepare(model, config, spec, eval)?;
    let images = plan.qset().len();
    if plan.all_masked() {
        if spec.verbose {
            progress::note("  every work item provably masked; fleet not engaged");
        }
        let baseline = plan.execute(&mut DevicePool::from_device(proto, 1), 0, 0..images)?;
        let mut per_item = vec![baseline];
        per_item.resize(plan.work().len(), Vec::new());
        if let Some(path) = &spec.checkpoint_path {
            Checkpoint::remove(path);
        }
        return Ok(Prepared::Immediate(plan.fold(per_item)));
    }
    let plan_words = nvfi_compiler::plan::encode_words(proto.plan());
    let weight_image = proto.accel_mut().export_weight_image()?;
    drop(proto);

    let wire_config: WireConfig = config.into();
    let session = (
        hash_plan(&wire_config, local_devices as u32, &plan_words),
        hash_weights(&weight_image),
        hash_eval(plan.qset()),
        plan.golden().map_or(0, hash_golden),
    );

    // The task list: each work item cut into as many contiguous shards as
    // the two-level layout gives its scheduling slot — all 1s when the work
    // list is at least as wide as the fleet (pure item-level parallelism),
    // wider shard fan-out when the fleet outnumbers the items. Provably
    // masked items get no shards.
    let layout = Campaign::pool_layout(total_workers, plan.work().len(), 0);
    let granularity = DevicePool::granularity(&config);
    let mut tasks: Vec<Task> = Vec::new();
    for (i, is_masked) in plan.masked().iter().enumerate() {
        if *is_masked {
            continue;
        }
        let shards = layout.get(i % layout.len().max(1)).copied().unwrap_or(1);
        for range in DevicePool::shard_plan(images, shards, granularity) {
            let key = shard_key(session, &plan, i, &range);
            tasks.push(Task {
                work_id: i,
                range,
                key,
            });
        }
    }

    Ok(Prepared::Scheduled(Box::new(PreparedCampaign {
        plan: Arc::new(plan),
        config,
        local_devices,
        session,
        plan_words,
        weight_image,
        tasks,
        verbose: spec.verbose,
        checkpoint_path: spec.checkpoint_path.clone(),
    })))
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

/// Picks the next client a freed worker should serve: among the *ready*
/// clients (unfinished, with queued shards), the one with the fewest
/// dispatched shards wins, ties to the lower (older) id. Pure so the
/// fairness invariant is unit-testable: a client with pending work is
/// never starved by a larger campaign, because every dispatch to the big
/// client raises its count above the small one's.
fn fair_share_pick(clients: impl Iterator<Item = (u64, u64, bool)>) -> Option<u64> {
    clients
        .filter(|&(_, _, ready)| ready)
        .min_by_key(|&(id, dispatched, _)| (dispatched, id))
        .map(|(id, _, _)| id)
}

/// Progress of one client campaign, streamed per completed shard over
/// [`ClientHandle::progress`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Progress {
    /// Shards completed so far (ones prefilled from the shard store or the
    /// checkpoint log included).
    pub done: usize,
    /// Total shards of this campaign.
    pub total: usize,
}

/// Counters of a [`CampaignServer`]'s lifetime, for tests and monitoring.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Campaigns submitted (cache hits included).
    pub campaigns_submitted: u64,
    /// Submissions whose every shard was in the shard store, answered
    /// without fleet work.
    pub cache_hits: u64,
    /// Shards handed to workers (requeued shards count again).
    pub tasks_dispatched: u64,
    /// Artifact frames actually shipped to workers (cache misses only).
    pub artifact_frames_shipped: u64,
    /// Audit re-executions scheduled (wire re-dispatches and in-process
    /// ones both count; never counted in [`tasks_dispatched`](Self::tasks_dispatched)).
    pub audits_dispatched: u64,
    /// Audits whose replica disagreed with the stored result (each one
    /// arbitrated by an authoritative in-process re-execution).
    pub audit_mismatches: u64,
    /// Worker identities that transitioned into quarantine.
    pub workers_quarantined: u64,
    /// Shard replies rejected for a failed attestation
    /// ([`WireError::Integrity`]) — requeued, never merged.
    pub integrity_rejects: u64,
}

impl ServerStats {
    /// Renders the server counters — followed by every metric in the
    /// process-wide `nvfi_obs` registry (engine path decisions, serialize-
    /// once probes, shard timings) — as Prometheus text exposition. This
    /// is the payload of a [`Msg::Stats`] reply.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in [
            ("server_campaigns_submitted", self.campaigns_submitted),
            ("server_cache_hits", self.cache_hits),
            ("server_tasks_dispatched", self.tasks_dispatched),
            (
                "server_artifact_frames_shipped",
                self.artifact_frames_shipped,
            ),
            ("server_audits_dispatched", self.audits_dispatched),
            ("server_audit_mismatches", self.audit_mismatches),
            ("server_workers_quarantined", self.workers_quarantined),
            ("server_integrity_rejects", self.integrity_rejects),
        ] {
            let _ = writeln!(out, "# TYPE nvfi_{name} counter");
            let _ = writeln!(out, "nvfi_{name} {v}");
        }
        out.push_str(&nvfi_obs::metrics::render_prometheus());
        out
    }
}

/// One entry of a client's pending-work queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum QueueEntry {
    /// Run this task for the first (or requeued) time.
    Run(usize),
    /// Silently re-execute an already-completed task to verify the worker
    /// that produced it. Ineligible for the producer itself unless no other
    /// worker is connected (then it runs in-process).
    Audit { task_idx: usize, producer: u64 },
}

/// One client campaign's scheduling state.
struct ClientState {
    /// The `(plan, weights, eval, golden)` artifact hashes — the worker
    /// session key. `golden` is 0 when the campaign ships none.
    session: (u64, u64, u64, u64),
    plan: Arc<CampaignPlan>,
    tasks: Arc<Vec<Task>>,
    /// Pending work (popped by workers, pushed back on loss).
    queue: Vec<QueueEntry>,
    /// One slot per task, filled as shards land.
    results: Vec<Option<Vec<u8>>>,
    /// Which worker identity produced each landed result (`None` for
    /// prefilled or arbitration-authoritative slots).
    producer: Vec<Option<u64>>,
    /// Tasks with an audit scheduled or in flight (guards every resolution
    /// path — an audit is closed exactly once).
    audit_open: Vec<bool>,
    /// Tasks whose stored result was confirmed (audit passed or
    /// authoritative re-execution) — exempt from quarantine sweeps.
    verified: Vec<bool>,
    /// Open audits; a client finishes only when this reaches zero.
    audits_pending: usize,
    done: usize,
    /// Shards dispatched so far — the fair-share key.
    dispatched: u64,
    fatal: Option<DistError>,
    finished: bool,
    verbose: bool,
    /// This client's checkpoint log, if it asked for one.
    ckpt: Option<Arc<CheckpointLog>>,
    /// In-process authoritative re-executor for audit arbitration.
    arbiter: Arc<Arbiter>,
    progress: Sender<Progress>,
}

/// Mutex-guarded server state.
struct ServerState {
    /// Encoded artifact frames by content hash — each encoded exactly once
    /// per server, replayed to however many workers miss it.
    artifacts: HashMap<u64, Arc<Vec<u8>>>,
    clients: BTreeMap<u64, ClientState>,
    next_client: u64,
    /// The shard store: predictions of every shard of every finished
    /// campaign, by content key (see [`shard_key`]).
    shards: HashMap<u64, Vec<u8>>,
    /// Reputation per worker identity — survives reconnects and drains.
    trust: HashMap<u64, Trust>,
    /// Connection count per worker identity currently serving.
    active_idents: HashMap<u64, u32>,
    stats: ServerStats,
}

/// Everything worker-connection threads, the acceptor and client handles
/// share.
struct ServerInner {
    state: Mutex<ServerState>,
    /// Notified whenever a client finishes (success, fatal, fleet lost).
    completion: Condvar,
    shutting_down: AtomicBool,
    /// Currently connected workers (initial fleet + re-admissions − losses).
    active: AtomicUsize,
    task_timeout: Option<Duration>,
    readmission_grace: Duration,
    max_readmissions: usize,
    total_workers: usize,
    /// Fraction of non-baseline completed shards audited (every executed
    /// baseline shard is). See [`FleetSpec::audit_rate`].
    audit_rate: f64,
}

/// The in-process authoritative re-executor behind audit arbitration: the
/// campaign's plan and shipped artifacts, plus a lazily built one-device
/// pool programmed by [`worker::device_from_artifacts`] and driven by
/// [`CampaignPlan::execute`] — the same device and the same executor an
/// honest worker uses, so its predictions are bit-identical to that
/// worker's (per-image inference is independent of device count and shard
/// cuts, which the distributed/in-process parity tests pin down).
struct Arbiter {
    config: PlatformConfig,
    plan: Arc<CampaignPlan>,
    plan_words: Arc<Vec<u32>>,
    weight_image: Arc<Vec<(u64, Vec<i8>)>>,
    /// Built on first use; an audit-free campaign never pays for it.
    pool: Mutex<Option<DevicePool>>,
}

impl Arbiter {
    /// Re-executes one task authoritatively, returning its predictions.
    fn run(&self, task: &Task) -> Result<Vec<u8>, DistError> {
        let mut guard = lock(&self.pool);
        let pool = match &mut *guard {
            Some(pool) => pool,
            empty => empty.insert(DevicePool::from_device(
                worker::device_from_artifacts(self.config, &self.plan_words, &self.weight_image)?,
                1,
            )),
        };
        Ok(self.plan.execute(pool, task.work_id, task.range.clone())?)
    }
}

/// Whether a completed shard is sampled for audit: an executed baseline
/// (work item 0) always is — the one shard every campaign depends on — and
/// others by a deterministic domain-tagged draw over `(client, shard key)`
/// against `audit_rate`, so the audit set is reproducible run to run.
fn audit_sampled(rate: f64, client: u64, key: (u32, u32, u32)) -> bool {
    if key.0 == 0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let mut h = Fnv64::new();
    h.write(&[7]);
    h.write_u64(client);
    h.write_u64(u64::from(key.0));
    h.write_u64(u64::from(key.1));
    h.write_u64(u64::from(key.2));
    // nvfi-lint: allow(truncating-cast) — rate is in (0, 1), product < 10_000
    (h.finish() % 10_000) < (rate * 10_000.0) as u64
}

/// Finishes a client once every shard landed **and** every open audit was
/// resolved; must be called with the state lock held.
fn maybe_finish(c: &mut ClientState, completion: &Condvar) {
    if !c.finished && c.done == c.tasks.len() && c.audits_pending == 0 {
        c.finished = true;
        completion.notify_all();
    }
}

/// Fails one client with a deterministic error (other clients keep
/// running).
fn fail_client(inner: &ServerInner, id: u64, e: DistError) {
    let mut st = lock(&inner.state);
    if let Some(c) = st.clients.get_mut(&id) {
        if !c.finished {
            c.fatal = Some(e);
            c.finished = true;
            c.queue.clear();
            inner.completion.notify_all();
        }
    }
}

/// One task to re-verify in-process (see [`arbitrate`]).
struct SweepItem {
    client: u64,
    task_idx: usize,
    arbiter: Arc<Arbiter>,
    tasks: Arc<Vec<Task>>,
    ckpt: Option<Arc<CheckpointLog>>,
}

impl ClientState {
    /// Task `task_idx` of client `client`, ready for [`arbitrate`].
    fn sweep_item(&self, client: u64, task_idx: usize) -> SweepItem {
        SweepItem {
            client,
            task_idx,
            arbiter: Arc::clone(&self.arbiter),
            tasks: Arc::clone(&self.tasks),
            ckpt: self.ckpt.clone(),
        }
    }
}

/// Punishes a worker identity: a `strike` (attestation failure) walks
/// `Healthy → Suspect → Quarantined`, a conviction (audit arbitration
/// proved a wrong answer) quarantines outright. On the transition *into*
/// quarantine every unverified shard the worker produced is re-verified by
/// the owning client's arbiter — repaired if it lied — so nothing the
/// convicted worker touched survives unchecked.
fn punish_worker(inner: &ServerInner, ident: u64, conviction: bool) {
    let mut sweep: Vec<SweepItem> = Vec::new();
    {
        let mut guard = lock(&inner.state);
        let st = &mut *guard;
        let t = st.trust.entry(ident).or_default();
        if t.is_quarantined() {
            return; // already quarantined (and swept)
        }
        if conviction {
            t.convict();
        } else {
            t.strike();
        }
        if !t.is_quarantined() {
            trace::event("trust.strike");
            return; // first strike: Suspect — every next shard is audited
        }
        trace::event("trust.quarantined");
        st.stats.workers_quarantined += 1;
        for (&id, c) in &mut st.clients {
            if c.finished {
                continue;
            }
            // Queued audits of the quarantined producer are superseded by
            // the sweep (their pending counts are resolved there).
            c.queue
                .retain(|e| !matches!(e, QueueEntry::Audit { producer, .. } if *producer == ident));
            for i in 0..c.tasks.len() {
                let produced = c.producer.get(i).copied().flatten() == Some(ident);
                let unverified = !c.verified.get(i).copied().unwrap_or(true);
                let landed = c.results.get(i).is_some_and(Option::is_some);
                if produced && unverified && landed {
                    if !c.audit_open.get(i).copied().unwrap_or(true) {
                        if let Some(open) = c.audit_open.get_mut(i) {
                            *open = true;
                            c.audits_pending += 1;
                        }
                    }
                    sweep.push(c.sweep_item(id, i));
                }
            }
        }
    }
    arbitrate(inner, sweep);
}

/// Resolves open audits in-process: the arbiter's authoritative
/// re-execution replaces any differing stored result (and is the
/// completion of a task whose result was discarded), the audit closes, and
/// a repaired result is appended to the checkpoint log again. Audits
/// resolved concurrently are skipped; an arbiter error fails only its
/// client.
fn arbitrate(inner: &ServerInner, items: Vec<SweepItem>) {
    for item in items {
        let Some(task) = item.tasks.get(item.task_idx) else {
            continue;
        };
        let auth = match item.arbiter.run(task) {
            Ok(v) => v,
            Err(e) => {
                fail_client(inner, item.client, e);
                continue;
            }
        };
        let mut rerecord = false;
        {
            let mut guard = lock(&inner.state);
            let st = &mut *guard;
            let Some(c) = st.clients.get_mut(&item.client) else {
                continue;
            };
            if c.finished || !c.audit_open.get(item.task_idx).copied().unwrap_or(false) {
                continue; // resolved by a concurrent audit landing
            }
            if let Some(slot) = c.results.get_mut(item.task_idx) {
                if slot.as_deref() != Some(auth.as_slice()) {
                    if slot.is_some() {
                        st.stats.audit_mismatches += 1;
                    } else {
                        // The audited task was discarded and requeued (its
                        // producer got convicted): the arbitration *is* its
                        // completion.
                        c.done += 1;
                    }
                    *slot = Some(auth.clone());
                    rerecord = true;
                }
            }
            close_audit(c, item.task_idx, &inner.completion);
        }
        if rerecord {
            if let Some(log) = &item.ckpt {
                log.append(task.key, &auth);
            }
        }
    }
}

/// Closes one open audit (idempotently guarded by the caller): the slot is
/// now verified and the producer bookkeeping retired. Must be called with
/// the state lock held and `audit_open[task_idx]` true.
fn close_audit(c: &mut ClientState, task_idx: usize, completion: &Condvar) {
    if let Some(open) = c.audit_open.get_mut(task_idx) {
        *open = false;
    }
    if let Some(v) = c.verified.get_mut(task_idx) {
        *v = true;
    }
    c.audits_pending = c.audits_pending.saturating_sub(1);
    maybe_finish(c, completion);
}

/// How a picked assignment is to be executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AssignKind {
    /// Dispatch over the wire and merge the reply.
    Run,
    /// Dispatch over the wire and compare the reply against the stored
    /// result of `producer`'s earlier run.
    Audit { producer: u64 },
    /// No other worker can audit `producer` (one-worker fleet): run the
    /// arbiter in-process and compare directly.
    AuditLocal { producer: u64 },
}

/// One dispatch decision, built under the state lock and executed outside
/// it.
struct Assignment {
    client: u64,
    task_idx: usize,
    kind: AssignKind,
    tasks: Arc<Vec<Task>>,
    session: (u64, u64, u64, u64),
    /// [`Msg::ArtifactDelta`] ship bitmask for this connection.
    ship: u8,
    /// The pre-encoded artifact frames to ship, in ship-bit order.
    frames: Vec<Arc<Vec<u8>>>,
    work_msg: Msg,
    /// Expected `(work_id, start, end)` of the reply.
    key: (u32, u32, u32),
    ckpt: Option<Arc<CheckpointLog>>,
    arbiter: Arc<Arbiter>,
    total: usize,
}

/// Whether one queue entry is dispatchable to the worker identity `ident`:
/// runs always are; audits only to a worker other than the producer —
/// unless no other worker is connected, in which case the producer's
/// connection thread arbitrates in-process ([`AssignKind::AuditLocal`]).
/// Audits whose task was already resolved (conviction sweep, fleet-loss
/// rescue) are stale and never eligible.
fn entry_eligible(c: &ClientState, e: &QueueEntry, ident: u64, active: &[u64]) -> bool {
    match *e {
        QueueEntry::Run(_) => true,
        QueueEntry::Audit { task_idx, producer } => {
            c.audit_open.get(task_idx).copied().unwrap_or(false)
                && (ident != producer || !active.iter().any(|&w| w != producer))
        }
    }
}

/// Pops the fairest client's next eligible entry and computes what this
/// connection must ship to run it. `has` is the connection's view of the
/// worker's artifact cache (advertisement + everything shipped since); it
/// is updated optimistically — if the ship fails the connection breaks
/// anyway.
fn pick_assignment(inner: &ServerInner, has: &mut HashSet<u64>, ident: u64) -> Option<Assignment> {
    let mut guard = lock(&inner.state);
    let st = &mut *guard;
    let active: Vec<u64> = st
        .active_idents
        .iter()
        .filter(|&(_, &n)| n > 0)
        .map(|(&w, _)| w)
        .collect();
    let id = fair_share_pick(st.clients.iter().map(|(&id, c)| {
        let ready = !c.finished && c.queue.iter().any(|e| entry_eligible(c, e, ident, &active));
        (id, c.dispatched, ready)
    }))?;
    let c = st.clients.get_mut(&id)?;
    // Newest-first, like the plain pop the Run-only queue used to get.
    let pos = c
        .queue
        .iter()
        .rposition(|e| entry_eligible(c, e, ident, &active))?;
    let entry = c.queue.remove(pos);
    let (task_idx, kind) = match entry {
        QueueEntry::Run(task_idx) => {
            c.dispatched += 1;
            st.stats.tasks_dispatched += 1;
            (task_idx, AssignKind::Run)
        }
        QueueEntry::Audit { task_idx, producer } => {
            st.stats.audits_dispatched += 1;
            let kind = if ident != producer {
                AssignKind::Audit { producer }
            } else {
                AssignKind::AuditLocal { producer }
            };
            (task_idx, kind)
        }
    };
    let task = c.tasks.get(task_idx)?;
    let key = (
        task.work_id as u32,
        task.range.start as u32,
        task.range.end as u32,
    );
    let work_msg = work_msg(&c.plan, key.0, task.work_id, &task.range);
    let session = c.session;
    let (mut ship, mut frames) = (0u8, Vec::new());
    // An in-process audit touches no socket: nothing to ship.
    if !matches!(kind, AssignKind::AuditLocal { .. }) {
        for (bit, &hash) in [session.0, session.1, session.2, session.3]
            .iter()
            .enumerate()
        {
            if hash == 0 || has.contains(&hash) {
                continue; // absent (golden-free campaign) or already cached
            }
            let Some(frame) = st.artifacts.get(&hash) else {
                // Artifacts are registered before their client; an absent
                // one means the session is unshippable — skip the bit, the
                // worker will report the inconsistent delta.
                continue;
            };
            ship |= 1 << bit;
            frames.push(Arc::clone(frame));
            has.insert(hash);
        }
    }
    Some(Assignment {
        client: id,
        task_idx,
        kind,
        tasks: Arc::clone(&c.tasks),
        session,
        ship,
        frames,
        work_msg,
        key,
        ckpt: c.ckpt.clone(),
        arbiter: Arc::clone(&c.arbiter),
        total: c.tasks.len(),
    })
}

/// Puts a lost shard back on its owner's queue (the owner may have
/// finished — fatally or via another worker — in the meantime). A lost
/// *audit* is re-enqueued only while its audit is still open — a
/// conviction sweep may have resolved it meanwhile.
fn requeue(inner: &ServerInner, a: &Assignment, worker_id: usize, why: &dyn std::fmt::Display) {
    let mut st = lock(&inner.state);
    if let Some(c) = st.clients.get_mut(&a.client) {
        if !c.finished {
            match a.kind {
                AssignKind::Run => c.queue.push(QueueEntry::Run(a.task_idx)),
                AssignKind::Audit { producer } | AssignKind::AuditLocal { producer } => {
                    if c.audit_open.get(a.task_idx).copied().unwrap_or(false) {
                        c.queue.push(QueueEntry::Audit {
                            task_idx: a.task_idx,
                            producer,
                        });
                    }
                }
            }
            trace::event("shard.requeued");
            if c.verbose {
                if let Some(task) = a.tasks.get(a.task_idx) {
                    progress::emit(&progress::Event::ShardRequeued {
                        worker: worker_id,
                        client: a.client,
                        item: task.work_id as u32,
                        start: task.range.start as u32,
                        end: task.range.end as u32,
                        why: why.to_string(),
                    });
                }
            }
        }
    }
}

/// Why one task attempt ended.
enum TaskError {
    /// The connection is no longer trustworthy — the worker died, stalled
    /// past the timeout, the transport corrupted a frame, or the reply was
    /// malformed. Requeue the shard; a reconnecting worker gets
    /// re-admitted.
    WorkerLost(std::io::Error),
    /// The reply decoded cleanly (valid CRC) but its attestation does not
    /// match the assigned session and predictions: the worker executed
    /// against stale artifacts or the payload was corrupted after the CRC
    /// was sealed. Requeue the shard *and strike the worker*.
    Integrity(WireError),
    /// A deterministic error that retrying elsewhere would reproduce.
    Fatal(DistError),
}

/// Awaits one shard's predictions, absorbing [`Msg::Pong`] heartbeats
/// (each restarts the `task_timeout` silence window — a slow worker that
/// keeps heartbeating never times out) and chaos-duplicated replays of
/// **any** previously recorded completion — `done_keys` holds every
/// completion this connection has accepted, so an arbitrarily late
/// reordered duplicate is recognized, not just the most recent. The dedup
/// key includes the **client** id: two multiplexed clients may
/// legitimately produce identical `(work_id, start, end)` triples back to
/// back.
///
/// A reply matching the assigned key is accepted only if its attestation
/// matches a recomputation over the **assigned session** and the delivered
/// predictions — otherwise it is a [`TaskError::Integrity`]: the worker
/// executed against stale artifacts, or the payload was corrupted after
/// its CRC was sealed (the byzantine case the wire layer provably cannot
/// catch).
fn await_shard(
    stream: &mut TcpStream,
    client: u64,
    key: (u32, u32, u32),
    session: (u64, u64, u64, u64),
    task_timeout: Option<Duration>,
    done_keys: &mut HashSet<(u64, u32, u32, u32)>,
) -> Result<(Vec<u8>, Vec<wire::WireSpan>), TaskError> {
    if task_timeout.is_some() {
        let _ = stream.set_read_timeout(task_timeout);
    }
    let result = loop {
        match wire::recv(stream) {
            // Heartbeat (or a stale idle-probe reply): proof of life. The
            // per-recv timeout restarts, which is exactly the liveness
            // contract — silence times out, progress does not.
            Ok(Msg::Pong) => continue,
            Ok(Msg::ShardDone {
                work_id,
                start,
                end,
                attest,
                preds,
                spans,
            }) => {
                if done_keys.contains(&(client, work_id, start, end)) {
                    // A chaos-duplicated replay of an earlier completion
                    // (however late): already merged, skip it.
                    continue;
                }
                if (work_id, start, end) == key {
                    let expected = wire::shard_attestation(session, work_id, start, end, &preds);
                    if attest != expected {
                        break Err(TaskError::Integrity(WireError::Integrity {
                            expected,
                            got: attest,
                        }));
                    }
                    done_keys.insert((client, work_id, start, end));
                    break Ok((preds, spans));
                }
                // A completion for a shard this connection doesn't own: the
                // stream is out of step (dropped/duplicated frames). Drop
                // the connection and requeue — never merge it.
                break Err(TaskError::WorkerLost(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "shard reply does not match the assigned task",
                )));
            }
            Ok(Msg::WorkerErr { message }) => {
                break Err(TaskError::Fatal(DistError::Worker(message)))
            }
            Ok(_) => {
                break Err(TaskError::WorkerLost(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "message outside the session lifecycle",
                )))
            }
            Err(DistError::Io(e)) => break Err(TaskError::WorkerLost(e)),
            // A malformed or CRC-failed frame is a broken peer or transport,
            // not the client's fault: drop the connection, requeue, let
            // re-admission replace the worker. Garbage traffic costs the
            // fabric a retry — it never fails a campaign.
            Err(DistError::Wire(e)) => {
                break Err(TaskError::WorkerLost(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    e.to_string(),
                )))
            }
            Err(e) => break Err(TaskError::Fatal(e)),
        }
    };
    if task_timeout.is_some() {
        let _ = stream.set_read_timeout(None);
    }
    result
}

/// Lands one completed *run*: log, merge, and — when the shard is
/// sampled (or the producer is under heightened audit) — schedule a silent
/// audit re-execution. A result landed by a worker that was quarantined
/// mid-flight is discarded and its task requeued: nothing a convicted
/// worker produced is merged unverified.
fn land_run(inner: &ServerInner, a: &Assignment, worker_id: usize, ident: u64, preds: Vec<u8>) {
    // Persist before counting done: a server killed right here resumes
    // with this shard already logged. (A later arbitration appends the
    // repaired record, which wins on load, if this worker turns out to
    // have lied.)
    if let (Some(log), Some(task)) = (&a.ckpt, a.tasks.get(a.task_idx)) {
        log.append(task.key, &preds);
    }
    let mut guard = lock(&inner.state);
    let st = &mut *guard;
    let producer_trust = st.trust.get(&ident).copied().unwrap_or_default();
    let Some(c) = st.clients.get_mut(&a.client) else {
        return;
    };
    if c.finished || !matches!(c.results.get(a.task_idx), Some(None)) {
        return;
    }
    if producer_trust.is_quarantined() {
        // Convicted while this shard was in flight: discard and requeue.
        c.queue.push(QueueEntry::Run(a.task_idx));
        return;
    }
    if let Some(slot) = c.results.get_mut(a.task_idx) {
        *slot = Some(preds);
    }
    if let Some(p) = c.producer.get_mut(a.task_idx) {
        *p = Some(ident);
    }
    c.done += 1;
    let _ = c.progress.send(Progress {
        done: c.done,
        total: a.total,
    });
    if c.verbose {
        if let Some(task) = a.tasks.get(a.task_idx) {
            // `c.done` was advanced under the state lock just above, so
            // the printed sequence is monotonic; the renderer's own lock
            // only guards against interleaved lines.
            progress::emit(&progress::Event::ShardLanded {
                client: a.client,
                done: c.done,
                total: a.total,
                worker: worker_id,
                item: task.work_id as u32,
                start: task.range.start as u32,
                end: task.range.end as u32,
            });
        }
    }
    let need_audit =
        producer_trust.audits_all() || audit_sampled(inner.audit_rate, a.client, a.key);
    if need_audit && !c.verified.get(a.task_idx).copied().unwrap_or(false) {
        if let Some(open) = c.audit_open.get_mut(a.task_idx) {
            *open = true;
            c.audits_pending += 1;
            c.queue.push(QueueEntry::Audit {
                task_idx: a.task_idx,
                producer: ident,
            });
        }
    }
    maybe_finish(c, &inner.completion);
}

/// Resolves one wire-dispatched audit: the replica either confirms the
/// stored result (audit passes, producer credited) or triggers the
/// authoritative in-process arbitration that decides which replica lied —
/// repairing the stored result and convicting the liar.
fn resolve_wire_audit(
    inner: &ServerInner,
    a: &Assignment,
    producer: u64,
    auditor: u64,
    replica: Vec<u8>,
) {
    let original: Option<Vec<u8>> = {
        let mut guard = lock(&inner.state);
        let st = &mut *guard;
        let Some(c) = st.clients.get_mut(&a.client) else {
            return;
        };
        if c.finished || !c.audit_open.get(a.task_idx).copied().unwrap_or(false) {
            return; // resolved meanwhile (conviction sweep, rescue)
        }
        match c.results.get(a.task_idx).and_then(Option::as_ref) {
            Some(orig) if *orig == replica => {
                // Audit passed: the stored result is confirmed.
                trace::event("audit.pass");
                close_audit(c, a.task_idx, &inner.completion);
                st.trust.entry(producer).or_default().audit_passed();
                None
            }
            Some(orig) => {
                trace::event("audit.mismatch");
                st.stats.audit_mismatches += 1;
                Some(orig.clone())
            }
            None => {
                // No stored result to audit (requeued after a quarantine
                // discard): nothing to compare, close the audit.
                close_audit(c, a.task_idx, &inner.completion);
                None
            }
        }
    };
    let Some(original) = original else {
        return;
    };
    // Two replicas disagree: somebody lied. Arbitrate authoritatively.
    let Some(task) = a.tasks.get(a.task_idx) else {
        return;
    };
    let auth = match a.arbiter.run(task) {
        Ok(v) => v,
        Err(e) => {
            fail_client(inner, a.client, e);
            return;
        }
    };
    let orig_lied = auth != original;
    let replica_lied = auth != replica;
    let mut rerecord = false;
    {
        let mut guard = lock(&inner.state);
        if let Some(c) = guard.clients.get_mut(&a.client) {
            if !c.finished && c.audit_open.get(a.task_idx).copied().unwrap_or(false) {
                if orig_lied {
                    if let Some(slot) = c.results.get_mut(a.task_idx) {
                        *slot = Some(auth.clone());
                    }
                    if let Some(p) = c.producer.get_mut(a.task_idx) {
                        *p = None; // authoritative now
                    }
                    rerecord = true;
                }
                close_audit(c, a.task_idx, &inner.completion);
            }
        }
        if !orig_lied {
            // The producer told the truth; the auditor is the liar. Credit
            // the producer as any passed audit would.
            guard.trust.entry(producer).or_default().audit_passed();
        }
    }
    if rerecord {
        if let Some(log) = &a.ckpt {
            log.append(task.key, &auth);
        }
    }
    if orig_lied {
        punish_worker(inner, producer, true);
    }
    if replica_lied {
        punish_worker(inner, auditor, true);
    }
}

/// Resolves an in-process audit (one-worker fleets: nobody else can check
/// the producer): the arbiter's re-execution *is* authoritative, so it is
/// compared against the stored result directly.
fn resolve_local_audit(inner: &ServerInner, a: &Assignment, producer: u64) {
    let original: Option<Vec<u8>> = {
        let mut guard = lock(&inner.state);
        let Some(c) = guard.clients.get_mut(&a.client) else {
            return;
        };
        if c.finished || !c.audit_open.get(a.task_idx).copied().unwrap_or(false) {
            return;
        }
        match c.results.get(a.task_idx).and_then(Option::as_ref) {
            Some(orig) => Some(orig.clone()),
            None => {
                close_audit(c, a.task_idx, &inner.completion);
                None
            }
        }
    };
    let Some(original) = original else {
        return;
    };
    let Some(task) = a.tasks.get(a.task_idx) else {
        return;
    };
    let auth = match a.arbiter.run(task) {
        Ok(v) => v,
        Err(e) => {
            fail_client(inner, a.client, e);
            return;
        }
    };
    let lied = auth != original;
    let mut rerecord = false;
    {
        let mut guard = lock(&inner.state);
        let st = &mut *guard;
        if let Some(c) = st.clients.get_mut(&a.client) {
            if !c.finished && c.audit_open.get(a.task_idx).copied().unwrap_or(false) {
                trace::event(if lied { "audit.mismatch" } else { "audit.pass" });
                if lied {
                    st.stats.audit_mismatches += 1;
                    if let Some(slot) = c.results.get_mut(a.task_idx) {
                        *slot = Some(auth.clone());
                    }
                    if let Some(p) = c.producer.get_mut(a.task_idx) {
                        *p = None;
                    }
                    rerecord = true;
                } else {
                    st.trust.entry(producer).or_default().audit_passed();
                }
                close_audit(c, a.task_idx, &inner.completion);
            }
        }
    }
    if rerecord {
        if let Some(log) = &a.ckpt {
            log.append(task.key, &auth);
        }
    }
    if lied {
        punish_worker(inner, producer, true);
    }
}

/// Drives one worker connection for the life of the server: pick the
/// fairest client's next entry, activate the session by delta if it
/// changed, run the shard (or audit), land the result — requeueing on
/// loss, striking integrity violations, draining quarantined workers with
/// [`Msg::Goodbye`], probing liveness while idle, and releasing the worker
/// with [`Msg::Shutdown`] at server shutdown.
fn connection_thread(
    inner: &Arc<ServerInner>,
    worker_id: usize,
    ident: u64,
    mut stream: TcpStream,
    advertised: Vec<u64>,
) {
    let mut has: HashSet<u64> = advertised.into_iter().collect();
    let mut current: (u64, u64, u64, u64) = (0, 0, 0, 0);
    let mut current_client: Option<u64> = None;
    // Every completion this connection has accepted, across session
    // switches: an arbitrarily late chaos-duplicated replay must be
    // recognized whenever it surfaces, not only right after the original.
    let mut done_keys: HashSet<(u64, u32, u32, u32)> = HashSet::new();
    let mut last_ping = Instant::now();
    // Start of this connection's current idle stretch — the per-shard
    // queue-wait phase runs from here to the next successful pick.
    let mut idle_since = trace::now_us();
    {
        let mut st = lock(&inner.state);
        *st.active_idents.entry(ident).or_insert(0) += 1;
    }
    loop {
        if inner.shutting_down.load(Ordering::Relaxed) {
            // Release the worker, then drain to EOF so the *worker* closes
            // first — keeping TIME_WAIT off the server's side, which
            // matters when a fixed listen port is re-bound by the next
            // experiment.
            let _ = wire::send(&mut stream, &Msg::Shutdown);
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            let mut sink = [0u8; 256];
            while matches!(std::io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0) {}
            break;
        }
        let quarantined = lock(&inner.state)
            .trust
            .get(&ident)
            .is_some_and(|t| t.is_quarantined());
        if quarantined {
            // Drain the convicted worker. Its serve loop reads a clean
            // `Goodbye` and stands down (or reconnects later, entering
            // probation via the acceptor's re-admission path).
            let _ = wire::send(
                &mut stream,
                &Msg::Goodbye {
                    reason: "worker quarantined after failed result audit".to_string(),
                },
            );
            break;
        }
        let Some(a) = pick_assignment(inner, &mut has, ident) else {
            // No ready client: stay available — a lost worker may yet
            // requeue a shard, a new campaign may arrive — and probe
            // liveness about once a second (fire-and-forget; the Pong is
            // absorbed by the next shard's reply loop) so a dead socket is
            // noticed while idle.
            if last_ping.elapsed() >= Duration::from_secs(1) {
                last_ping = Instant::now();
                if wire::send(&mut stream, &Msg::Ping).is_err() {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        // Per-shard phase spans, all on the worker's lane (`tid` =
        // `worker_id`) so the exported timeline reads one row per worker:
        // queue-wait ends at the successful pick; ship, execute and merge
        // are measured around their blocks below.
        let traced = trace::is_enabled();
        let ids = trace::Ids {
            campaign: 0,
            client: a.client,
            worker: worker_id as u64,
            shard: u64::from(a.key.0),
        };
        let lane = worker_id as u64;
        let picked_us = trace::now_us();
        if traced {
            trace::import_span(
                "shard.queue_wait",
                idle_since,
                picked_us.saturating_sub(idle_since),
                lane,
                ids,
            );
        }
        let _ctx = trace::with_ids(ids);
        if let AssignKind::AuditLocal { producer } = a.kind {
            // In-process arbitration: no frames on this connection.
            trace::event("audit.dispatch_local");
            resolve_local_audit(inner, &a, producer);
            idle_since = trace::now_us();
            continue;
        }
        if matches!(a.kind, AssignKind::Audit { .. }) {
            trace::event("audit.dispatch");
        }
        // Activate the session when it (or the owning client) changed. The
        // client matters only for bookkeeping symmetry: the artifact tuple
        // alone decides what ships.
        if a.session != current || current_client != Some(a.client) || a.ship != 0 {
            let ship_t0 = trace::now_us();
            let (plan, weights, eval, golden) = a.session;
            let activated = wire::send(
                &mut stream,
                &Msg::ArtifactDelta {
                    plan,
                    weights,
                    eval,
                    golden,
                    ship: a.ship,
                },
            )
            .and_then(|()| {
                a.frames
                    .iter()
                    .try_for_each(|f| wire::write_frame(&mut stream, f))
            });
            if let Err(e) = activated {
                requeue(inner, &a, worker_id, &e);
                break;
            }
            for f in &a.frames {
                wire::count_artifact_bytes(f.len() as u64);
            }
            if !a.frames.is_empty() {
                lock(&inner.state).stats.artifact_frames_shipped += a.frames.len() as u64;
            }
            if traced {
                let now = trace::now_us();
                trace::import_span(
                    "shard.ship",
                    ship_t0,
                    now.saturating_sub(ship_t0),
                    lane,
                    ids,
                );
            }
            current = a.session;
            current_client = Some(a.client);
        }
        // A legitimate re-dispatch of a key this connection completed
        // before (an audit of a task someone else requeued here, or a
        // repair re-run) must not be mistaken for a late duplicate.
        done_keys.remove(&(a.client, a.key.0, a.key.1, a.key.2));
        // Dispatch timestamp: worker-side span summaries in the reply are
        // shard-relative and get re-based onto the coordinator timeline
        // here.
        let exec_t0 = trace::now_us();
        if traced {
            trace::import_span(
                "server.dispatch",
                picked_us,
                exec_t0.saturating_sub(picked_us),
                lane,
                ids,
            );
        }
        let outcome = wire::send(&mut stream, &a.work_msg)
            .map_err(TaskError::WorkerLost)
            .and_then(|()| {
                await_shard(
                    &mut stream,
                    a.client,
                    a.key,
                    a.session,
                    inner.task_timeout,
                    &mut done_keys,
                )
            });
        match outcome {
            Ok((preds, worker_spans)) => {
                if traced {
                    let now = trace::now_us();
                    trace::import_span(
                        "shard.execute",
                        exec_t0,
                        now.saturating_sub(exec_t0),
                        lane,
                        ids,
                    );
                    for ws in worker_spans {
                        trace::import_span(ws.name, exec_t0 + ws.start_us, ws.dur_us, lane, ids);
                    }
                }
                let merge_t0 = trace::now_us();
                match a.kind {
                    AssignKind::Run => land_run(inner, &a, worker_id, ident, preds),
                    AssignKind::Audit { producer } => {
                        resolve_wire_audit(inner, &a, producer, ident, preds);
                    }
                    AssignKind::AuditLocal { .. } => {} // handled above
                }
                if traced {
                    let now = trace::now_us();
                    trace::import_span(
                        "shard.merge",
                        merge_t0,
                        now.saturating_sub(merge_t0),
                        lane,
                        ids,
                    );
                }
                idle_since = trace::now_us();
                last_ping = Instant::now();
            }
            Err(TaskError::WorkerLost(e)) => {
                // The shard is requeued for a surviving (or re-admitted)
                // worker; this connection is done.
                requeue(inner, &a, worker_id, &e);
                break;
            }
            Err(TaskError::Integrity(e)) => {
                // The reply survived its CRC but failed attestation: stale
                // artifacts or post-CRC corruption. Requeue, strike the
                // worker (two strikes quarantine), drop the connection.
                lock(&inner.state).stats.integrity_rejects += 1;
                requeue(inner, &a, worker_id, &e);
                punish_worker(inner, ident, false);
                break;
            }
            Err(TaskError::Fatal(e)) => {
                // Deterministic failure: retrying it on another worker
                // would reproduce it. Fail the owning client — other
                // clients keep running — and drop this connection (its
                // stream state is no longer trusted).
                fail_client(inner, a.client, e);
                break;
            }
        }
    }
    {
        let mut st = lock(&inner.state);
        if let Some(n) = st.active_idents.get_mut(&ident) {
            *n = n.saturating_sub(1);
        }
    }
    inner.active.fetch_sub(1, Ordering::SeqCst);
}

/// Keeps the listener open for the life of the server: re-admits
/// reconnecting or late workers (handshake + advertisement, then the
/// shared scheduler) and fails every unfinished client when the fleet
/// stays empty past the re-admission grace — the server itself survives a
/// fleet loss and serves later submissions if workers return.
fn acceptor_thread(
    inner: &Arc<ServerInner>,
    listener: &TcpListener,
    conn_threads: &Mutex<Vec<JoinHandle<()>>>,
) {
    let mut admitted = 0usize;
    let mut empty_since: Option<Instant> = None;
    // `NVFI_METRICS=top`: one periodic fleet-summary line instead of the
    // raw per-shard verbose stream.
    let metrics_top = matches!(std::env::var("NVFI_METRICS").as_deref(), Ok("top"));
    let mut last_top = Instant::now();
    loop {
        if inner.shutting_down.load(Ordering::Relaxed) {
            break;
        }
        if metrics_top && last_top.elapsed() >= Duration::from_secs(2) {
            last_top = Instant::now();
            let (clients, stats) = {
                let st = lock(&inner.state);
                (
                    st.clients.values().filter(|c| !c.finished).count(),
                    st.stats,
                )
            };
            progress::emit(&progress::Event::FleetSummary {
                workers: inner.active.load(Ordering::SeqCst),
                clients,
                dispatched: stats.tasks_dispatched,
                shipped: stats.artifact_frames_shipped,
                audits: stats.audits_dispatched,
                mismatches: stats.audit_mismatches,
                quarantined: stats.workers_quarantined,
                cache_hits: stats.cache_hits,
            });
        }
        if inner.active.load(Ordering::SeqCst) == 0 {
            let unfinished = {
                let st = lock(&inner.state);
                st.clients.values().any(|c| !c.finished)
            };
            if unfinished {
                let since = *empty_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= inner.readmission_grace {
                    // Nobody is left and nobody came back. A client whose
                    // only outstanding work is *audits* (the producer died
                    // before its verification landed) is rescued by
                    // arbitrating them in-process — its result must not be
                    // lost to somebody else's death.
                    rescue_open_audits(inner);
                    let mut st = lock(&inner.state);
                    for c in st.clients.values_mut() {
                        if !c.finished {
                            // Fail the rest (their checkpoint logs, if
                            // any, stay on disk for a resume). The server
                            // stays up.
                            c.fatal = Some(DistError::FleetLost {
                                incomplete: c.tasks.len() - c.done,
                            });
                            c.finished = true;
                            c.queue.clear();
                        }
                    }
                    inner.completion.notify_all();
                    empty_since = None;
                }
            } else {
                empty_since = None;
            }
        } else {
            empty_since = None;
        }
        match listener.accept() {
            Ok((mut s, _)) => {
                if s.set_nonblocking(false).is_err() {
                    continue;
                }
                let _ = s.set_nodelay(true);
                // The handshake reads are bounded: a connected-but-silent
                // peer (half-open link, port scanner) is dropped, never
                // allowed to hang the acceptor.
                let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                if wire::accept_hello(&mut s).is_err() {
                    continue;
                }
                let (ident, hashes) = match wire::recv(&mut s) {
                    Ok(Msg::HaveArtifacts { ident, hashes }) => (ident, hashes),
                    // One-shot observability poll (wire v5): answer with
                    // the Prometheus exposition and drop the connection.
                    Ok(Msg::StatsQuery) => {
                        let text = lock(&inner.state).stats.render_prometheus();
                        let _ = wire::send(&mut s, &Msg::Stats { text });
                        continue;
                    }
                    _ => continue,
                };
                if admitted >= inner.max_readmissions {
                    // Versioned, explicit rejection *after* the handshake:
                    // the worker's serve loop reads a clean `Goodbye` and
                    // stands down, instead of hanging in TCP limbo or
                    // misreading the frame.
                    let _ = wire::send(
                        &mut s,
                        &Msg::Goodbye {
                            reason: format!(
                                "re-admission cap ({}) reached",
                                inner.max_readmissions
                            ),
                        },
                    );
                    continue;
                }
                if s.set_read_timeout(None).is_err() {
                    continue;
                }
                admitted += 1;
                inner.active.fetch_add(1, Ordering::SeqCst);
                empty_since = None;
                let worker_id = inner.total_workers + admitted;
                {
                    let mut st = lock(&inner.state);
                    // A quarantined identity coming back is re-admitted on
                    // probation: it serves again, but every shard it
                    // completes is audited until it earns trust back.
                    st.trust.entry(ident).or_default().readmit();
                    trace::event("worker.admitted");
                    if st.clients.values().any(|c| c.verbose) {
                        progress::emit(&progress::Event::WorkerAdmitted { worker: worker_id });
                    }
                }
                let inner2 = Arc::clone(inner);
                lock(conn_threads).push(std::thread::spawn(move || {
                    connection_thread(&inner2, worker_id, ident, s, hashes)
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Resolves every open audit of every unfinished client in-process (the
/// fleet is gone; the arbiter is the only executor left). Audits whose
/// producers died unverified are arbitrated authoritatively, so a client
/// that only awaited verification finishes with a repaired — and correct —
/// result instead of a [`DistError::FleetLost`].
fn rescue_open_audits(inner: &ServerInner) {
    let mut rescue: Vec<SweepItem> = Vec::new();
    {
        let mut st = lock(&inner.state);
        for (&id, c) in &mut st.clients {
            if c.finished || c.audits_pending == 0 {
                continue;
            }
            for i in 0..c.tasks.len() {
                if c.audit_open.get(i).copied().unwrap_or(false) {
                    rescue.push(c.sweep_item(id, i));
                }
            }
        }
    }
    arbitrate(inner, rescue);
}

/// Accepts and handshakes `n` workers within `timeout` (the initial fleet
/// raise; afterwards the acceptor thread owns the listener, which it
/// leaves in the non-blocking mode set here). Returns each worker's stream
/// with its [`Msg::HaveArtifacts`] advertisement. Tolerant of bad peers:
/// a failed hello or a missing advertisement drops that connection and
/// keeps accepting — a chaos-mangled handshake costs the worker a clean
/// reconnect, not the fleet.
fn accept_fleet(
    listener: &TcpListener,
    n: usize,
    timeout: Duration,
) -> Result<Vec<(TcpStream, u64, Vec<u64>)>, DistError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| DistError::Spawn(e.to_string()))?;
    let deadline = Instant::now() + timeout;
    let mut streams = Vec::with_capacity(n);
    while streams.len() < n {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                // The handshake read is bounded by the remaining accept
                // deadline: a connected-but-silent peer (half-open link,
                // port scanner, stalled worker) must time the fleet out,
                // not hang the coordinator on a blocking recv forever.
                let remaining = deadline
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_millis(1));
                if stream.set_read_timeout(Some(remaining)).is_err() {
                    continue;
                }
                if wire::accept_hello(&mut stream).is_err() {
                    continue;
                }
                let Ok(Msg::HaveArtifacts { ident, hashes }) = wire::recv(&mut stream) else {
                    continue;
                };
                if stream.set_read_timeout(None).is_err() {
                    continue;
                }
                streams.push((stream, ident, hashes));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(DistError::Spawn(format!(
                        "only {}/{} workers connected within {:?}",
                        streams.len(),
                        n,
                        timeout
                    )));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(DistError::Spawn(format!("accept: {e}"))),
        }
    }
    Ok(streams)
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// A persistent multiplexing campaign server: one worker fleet, many
/// concurrent client campaigns (see the module docs). Dropping the server
/// shuts it down — unfinished clients fail with a named error, workers are
/// released with [`Msg::Shutdown`], spawned processes are reaped.
pub struct CampaignServer {
    inner: Arc<ServerInner>,
    children: Mutex<Vec<Child>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    addr: SocketAddr,
    local_devices_cfg: usize,
}

impl CampaignServer {
    /// Raises the fleet and starts the server: spawns `workers` local
    /// worker processes (per [`FleetSpec::spawn`]), waits for them plus
    /// [`FleetSpec::external_workers`] cross-host ones to connect and
    /// advertise their caches, and hands every connection to the shared
    /// scheduler. The listener stays open for the server's life, so
    /// workers raised later (or reconnecting after a crash) join the same
    /// fleet.
    ///
    /// # Errors
    ///
    /// [`DistError::Spawn`] when the fleet is empty
    /// (`workers + external_workers == 0`), a worker process cannot be
    /// spawned, or the fleet does not complete its handshakes within
    /// [`FleetSpec::accept_timeout`].
    pub fn start(fleet: &FleetSpec, workers: usize) -> Result<CampaignServer, DistError> {
        let total_workers = workers + fleet.external_workers;
        if total_workers == 0 {
            return Err(DistError::Spawn(
                "a campaign server needs at least one worker".to_string(),
            ));
        }
        // A fixed listen address may sit in TIME_WAIT for a moment after a
        // previous server of the same experiment, so AddrInUse is retried
        // within the accept budget rather than failing the experiment.
        let bind_addr = fleet.listen.as_deref().unwrap_or("127.0.0.1:0");
        let bind_deadline = Instant::now() + fleet.accept_timeout;
        let listener = loop {
            match TcpListener::bind(bind_addr) {
                Ok(l) => break l,
                Err(e)
                    if e.kind() == std::io::ErrorKind::AddrInUse
                        && Instant::now() < bind_deadline =>
                {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(DistError::Spawn(format!("bind {bind_addr}: {e}"))),
            }
        };
        let local = listener
            .local_addr()
            .map_err(|e| DistError::Spawn(e.to_string()))?;
        // Spawned (same-host) workers connect to loopback when the listener
        // is on loopback or a wildcard; a concrete non-loopback bind
        // (cross-host listen combined with local spawns) is handed to them
        // verbatim.
        let connect_addr = if local.ip().is_unspecified() || local.ip().is_loopback() {
            format!("127.0.0.1:{}", local.port())
        } else {
            local.to_string()
        };
        let mut guard = FleetGuard {
            children: Vec::new(),
        };
        for i in 0..workers {
            let exe = match &fleet.spawn {
                WorkerSpawn::SelfExec => std::env::current_exe()
                    .map_err(|e| DistError::Spawn(format!("current_exe: {e}")))?,
                WorkerSpawn::Exe(p) => p.clone(),
            };
            let mut cmd = Command::new(&exe);
            cmd.env(worker::ENV_CONNECT, &connect_addr);
            // nvfi-lint: allow(decode-panic) — `&[][..]` is an empty-slice literal, not indexing
            for (k, v) in fleet.worker_env.get(i).map_or(&[][..], Vec::as_slice) {
                cmd.env(k, v);
            }
            guard.children.push(
                cmd.spawn()
                    .map_err(|e| DistError::Spawn(format!("spawn {}: {e}", exe.display())))?,
            );
        }
        // Early returns above drop the guard, which kills + reaps what was
        // spawned so far.
        let streams = accept_fleet(&listener, total_workers, fleet.accept_timeout)?;
        let children = std::mem::take(&mut guard.children);
        drop(guard);

        let inner = Arc::new(ServerInner {
            state: Mutex::new(ServerState {
                artifacts: HashMap::new(),
                clients: BTreeMap::new(),
                next_client: 0,
                shards: HashMap::new(),
                trust: HashMap::new(),
                active_idents: HashMap::new(),
                stats: ServerStats::default(),
            }),
            completion: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            active: AtomicUsize::new(streams.len()),
            task_timeout: fleet.task_timeout,
            readmission_grace: fleet.readmission_grace,
            max_readmissions: fleet.max_readmissions,
            total_workers,
            audit_rate: fleet.audit_rate,
        });
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        {
            let mut reg = lock(&conn_threads);
            for (worker_id, (stream, ident, hashes)) in streams.into_iter().enumerate() {
                let inner2 = Arc::clone(&inner);
                reg.push(std::thread::spawn(move || {
                    connection_thread(&inner2, worker_id, ident, stream, hashes)
                }));
            }
        }
        let acceptor = {
            let inner2 = Arc::clone(&inner);
            let reg = Arc::clone(&conn_threads);
            std::thread::spawn(move || acceptor_thread(&inner2, &listener, &reg))
        };
        Ok(CampaignServer {
            inner,
            children: Mutex::new(children),
            conn_threads,
            acceptor: Mutex::new(Some(acceptor)),
            addr: local,
            local_devices_cfg: fleet.local_devices,
        })
    }

    /// The address the server listens on — what cross-host `nvfi_worker`
    /// processes connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the server's lifetime counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        lock(&self.inner.state).stats
    }

    /// Submits one campaign to the shared fleet and returns immediately
    /// with a [`ClientHandle`]; the campaign runs concurrently with every
    /// other submitted one, interleaved fair-share. `spec.workers` is
    /// ignored — the fleet was sized at [`CampaignServer::start`] — but
    /// `spec.threads` still means "total device budget" when the fleet's
    /// [`FleetSpec::local_devices`] was 0.
    ///
    /// An all-masked campaign, or one whose every shard is already in the
    /// shard store, resolves without any fleet work.
    ///
    /// # Errors
    ///
    /// Compile/verification errors as their [`DistError`] variants.
    ///
    /// # Panics
    ///
    /// Panics on the same spec violations as [`Campaign::run`] (no kinds,
    /// zero evaluation images, empty expanded work list).
    pub fn submit(
        &self,
        model: &QuantModel,
        config: PlatformConfig,
        spec: &CampaignSpec,
        eval: &Dataset,
    ) -> Result<ClientHandle, DistError> {
        let local_devices = if self.local_devices_cfg > 0 {
            self.local_devices_cfg
        } else {
            (spec.threads / self.inner.total_workers).max(1)
        };
        match prepare(
            model,
            config,
            spec,
            eval,
            self.inner.total_workers,
            local_devices,
        )? {
            Prepared::Immediate(result) => Ok(ClientHandle::ready(result)),
            Prepared::Scheduled(p) => Ok(self.submit_prepared(*p)),
        }
    }

    /// Registers a [`PreparedCampaign`] with the scheduler: one shard-store
    /// lookup per task (all present: fold on the spot, a cache hit), then
    /// artifact registration (each distinct hash encoded exactly once per
    /// server), checkpoint prefill, and the client queue.
    pub(crate) fn submit_prepared(&self, p: PreparedCampaign) -> ClientHandle {
        let mut st = lock(&self.inner.state);
        st.stats.campaigns_submitted += 1;
        let mut results: Vec<Option<Vec<u8>>> = p
            .tasks
            .iter()
            .map(|t| st.shards.get(&t.key).cloned())
            .collect();
        let stored = results.iter().flatten().count();
        if stored == p.tasks.len() {
            st.stats.cache_hits += 1;
            drop(st);
            if let Some(path) = &p.checkpoint_path {
                // The store completes this campaign; a stale log must not
                // donate shards to a later run.
                Checkpoint::remove(path);
            }
            return ClientHandle::ready(fold_shards(
                &p.plan,
                &p.tasks,
                results.into_iter().flatten(),
            ));
        }
        // The decoded artifacts live on (shared) behind the audit arbiter:
        // an authoritative in-process re-execution needs exactly what a
        // worker would be shipped.
        let plan_words = Arc::new(p.plan_words);
        let weight_image = Arc::new(p.weight_image);
        let (plan_hash, weights_hash, eval_hash, golden_hash) = p.session;
        // Register the artifact frames. Encoding happens at most once per
        // distinct content hash for the server's whole life — the
        // serialize-once probes count these.
        ensure_artifact(&mut st, plan_hash, || {
            Msg::Plan {
                config: p.config.into(),
                local_devices: p.local_devices as u32,
                words: plan_words.as_ref().clone(),
            }
            .encode()
        });
        ensure_artifact(&mut st, weights_hash, || {
            Msg::Weights {
                regions: weight_image.as_ref().clone(),
            }
            .encode()
        });
        let qset = p.plan.qset();
        let shape = qset.shape();
        ensure_artifact(&mut st, eval_hash, || {
            // Encoded straight from the borrowed pixel slice: no owned copy
            // of the (large) evaluation set just to build a `Msg`.
            wire::encode_eval_set(
                shape.n as u32,
                shape.c as u32,
                shape.h as u32,
                shape.w as u32,
                qset.images().as_slice(),
            )
        });
        if let Some(g) = p.plan.golden() {
            ensure_artifact(&mut st, golden_hash, || {
                Msg::Golden {
                    boundary: g.boundary() as u64,
                    surfaces: g.surfaces().to_vec(),
                    data: g.data().to_vec(),
                    cached_images: g.cached_images() as u64,
                }
                .encode()
            });
        }
        drop(st);

        // Checkpoint/resume (file I/O outside the state lock): open the
        // log, prefill the shards it holds that the store did not, and
        // keep appending as new shards land.
        let mut resumed = 0usize;
        let ckpt = p.checkpoint_path.as_ref().and_then(|path| {
            let (log, cp) = match CheckpointLog::open(path) {
                Ok(opened) => opened,
                Err(e) => {
                    progress::note(format!(
                        "nvfi server: checkpoint {} unusable: {e}",
                        path.display()
                    ));
                    return None;
                }
            };
            let logged: HashMap<u64, Vec<u8>> =
                cp.entries.into_iter().map(|e| (e.key, e.preds)).collect();
            for (slot, task) in results.iter_mut().zip(p.tasks.iter()) {
                if slot.is_none() {
                    if let Some(preds) = logged.get(&task.key) {
                        *slot = Some(preds.clone());
                        resumed += 1;
                    }
                }
            }
            if p.verbose && resumed > 0 {
                progress::emit(&progress::Event::Resumed {
                    path: path.display().to_string(),
                    done: stored + resumed,
                    total: p.tasks.len(),
                });
            }
            Some(Arc::new(log))
        });
        let prefilled = stored + resumed;

        let (progress_tx, progress_rx) = channel();
        let tasks = Arc::new(p.tasks);
        let queue: Vec<QueueEntry> = (0..tasks.len())
            .rev()
            .filter(|&i| results.get(i).is_some_and(Option::is_none))
            .map(QueueEntry::Run)
            .collect();
        let finished = prefilled == tasks.len();
        // Prefilled shards count as verified: they were landed (and
        // possibly audited) by the run that recorded them, and there is no
        // producer left to audit.
        let verified: Vec<bool> = results.iter().map(Option::is_some).collect();
        let arbiter = Arc::new(Arbiter {
            config: p.config,
            plan: Arc::clone(&p.plan),
            plan_words,
            weight_image,
            pool: Mutex::new(None),
        });
        let mut st = lock(&self.inner.state);
        let id = st.next_client;
        st.next_client += 1;
        st.clients.insert(
            id,
            ClientState {
                session: p.session,
                plan: Arc::clone(&p.plan),
                tasks: Arc::clone(&tasks),
                queue,
                producer: vec![None; tasks.len()],
                audit_open: vec![false; tasks.len()],
                verified,
                audits_pending: 0,
                results,
                done: prefilled,
                dispatched: 0,
                fatal: None,
                finished,
                verbose: p.verbose,
                ckpt,
                arbiter,
                progress: progress_tx,
            },
        );
        if finished {
            self.inner.completion.notify_all();
        }
        drop(st);
        ClientHandle {
            inner: HandleInner::Pending {
                server: Arc::clone(&self.inner),
                id,
                plan: p.plan,
                tasks,
                checkpoint_path: p.checkpoint_path,
            },
            progress: progress_rx,
        }
    }

    /// Shuts the server down: fails unfinished clients with a named error,
    /// releases every worker with [`Msg::Shutdown`], joins the scheduler
    /// threads and reaps spawned worker processes. Idempotent; also runs
    /// on drop.
    pub fn shutdown(self) {
        self.stop();
    }

    fn stop(&self) {
        if self.inner.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut st = lock(&self.inner.state);
            for c in st.clients.values_mut() {
                if !c.finished {
                    c.finished = true;
                    c.queue.clear();
                    if c.fatal.is_none() {
                        c.fatal = Some(DistError::Protocol("campaign server shut down"));
                    }
                }
            }
            self.inner.completion.notify_all();
        }
        // The acceptor first — it is the only spawner of new connection
        // threads, so after this join the registry is final.
        if let Some(h) = lock(&self.acceptor).take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.conn_threads).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        for mut child in lock(&self.children).drain(..) {
            // A cleanly shut-down worker has already exited; kill is a
            // no-op race loser then. Either way, wait() reaps.
            let _ = child.kill();
            let _ = child.wait();
        }
        // Connection threads are joined: every recorded span has reached
        // the ring. Export the timeline (`NVFI_TRACE=path.json`) and/or
        // dump the metrics (`NVFI_METRICS=path`) now.
        trace::maybe_export();
        if let Ok(path) = std::env::var("NVFI_METRICS") {
            if !path.is_empty() && path != "top" {
                let text = lock(&self.inner.state).stats.render_prometheus();
                if let Err(e) = std::fs::write(&path, text) {
                    progress::note(format!("nvfi server: metrics dump to {path} failed: {e}"));
                }
            }
        }
    }
}

impl Drop for CampaignServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Polls a running campaign server for its Prometheus metrics over the wire
/// (`Msg::StatsQuery` → `Msg::Stats`).
///
/// Speaks the ordinary worker hello first, so the server's version gate
/// applies; the connection is dropped after the reply. Works against any
/// [`CampaignServer`] with a listen address — local or cross-host.
pub fn query_stats(addr: SocketAddr) -> Result<String, DistError> {
    let mut s = TcpStream::connect(addr).map_err(DistError::Io)?;
    let _ = s.set_nodelay(true);
    wire::client_hello(&mut s)?;
    wire::send(&mut s, &Msg::StatsQuery).map_err(DistError::Io)?;
    match wire::recv(&mut s)? {
        Msg::Stats { text } => Ok(text),
        _ => Err(DistError::Protocol("unexpected reply to a stats query")),
    }
}

/// Interns an encoded artifact frame by content hash — the closure runs
/// (and the serialize-once probes tick) only when the hash is new to the
/// server.
fn ensure_artifact(st: &mut ServerState, hash: u64, make: impl FnOnce() -> Vec<u8>) {
    st.artifacts.entry(hash).or_insert_with(|| Arc::new(make()));
}

// ---------------------------------------------------------------------------
// Client handles
// ---------------------------------------------------------------------------

enum HandleInner {
    Ready(CampaignResult),
    /// Everything [`ClientHandle::wait`] needs to merge landed shards
    /// without touching the server's shared state.
    Pending {
        server: Arc<ServerInner>,
        id: u64,
        plan: Arc<CampaignPlan>,
        tasks: Arc<Vec<Task>>,
        checkpoint_path: Option<PathBuf>,
    },
}

/// One submitted campaign's handle: stream its [`progress`], then
/// [`wait`] for the merged result.
///
/// [`progress`]: ClientHandle::progress
/// [`wait`]: ClientHandle::wait
pub struct ClientHandle {
    inner: HandleInner,
    progress: Receiver<Progress>,
}

impl ClientHandle {
    fn ready(result: CampaignResult) -> ClientHandle {
        // A resolved campaign streams no progress: the sender is dropped
        // immediately, so the receiver reports disconnection, not silence.
        let (_tx, rx) = channel();
        ClientHandle {
            inner: HandleInner::Ready(result),
            progress: rx,
        }
    }

    /// The per-shard progress stream of this campaign. Disconnects once
    /// the campaign finished (or when it resolved without fleet work).
    #[must_use]
    pub fn progress(&self) -> &Receiver<Progress> {
        &self.progress
    }

    /// Blocks until the campaign finishes, concatenates each work item's
    /// shards by range — never by arrival order — and folds them with
    /// [`CampaignPlan::fold`], the same fold as the in-process
    /// [`Campaign::run`], so the result is bit-identical to it. The
    /// campaign's shards go into the server's shard store.
    ///
    /// # Errors
    ///
    /// [`DistError::FleetLost`] when every worker stayed gone past the
    /// re-admission grace (the checkpoint log, if any, is left on disk for a
    /// resume); [`DistError::Worker`] for worker-reported deterministic
    /// failures; [`DistError::Protocol`] when the server was shut down
    /// with this campaign unfinished.
    pub fn wait(self) -> Result<CampaignResult, DistError> {
        let (server, id, plan, tasks, checkpoint_path) = match self.inner {
            HandleInner::Ready(result) => return Ok(result),
            HandleInner::Pending {
                server,
                id,
                plan,
                tasks,
                checkpoint_path,
            } => (server, id, plan, tasks, checkpoint_path),
        };
        let mut st = lock(&server.state);
        loop {
            match st.clients.get(&id) {
                Some(c) if c.finished => break,
                Some(_) => {
                    st = server
                        .completion
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => return Err(DistError::Protocol("campaign client vanished")),
            }
        }
        let Some(client) = st.clients.remove(&id) else {
            return Err(DistError::Protocol("campaign client vanished"));
        };
        drop(st);
        if let Some(e) = client.fatal {
            return Err(e);
        }
        let Some(shards) = client.results.into_iter().collect::<Option<Vec<_>>>() else {
            return Err(DistError::Protocol("finished campaign left a shard hole"));
        };
        // The campaign is complete: its shards serve later campaigns, and
        // its log retires — a finished run leaves nothing at its path.
        {
            let mut st = lock(&server.state);
            for (task, preds) in tasks.iter().zip(&shards) {
                st.shards.insert(task.key, preds.clone());
            }
        }
        if let Some(path) = &checkpoint_path {
            Checkpoint::remove(path);
        }
        Ok(fold_shards(&plan, &tasks, shards))
    }
}

/// Concatenates each work item's shards and folds them with
/// [`CampaignPlan::fold`]. The task list is ordered by (work item, range),
/// so extending in task order concatenates each item's shards in image
/// order — never arrival order.
fn fold_shards(
    plan: &CampaignPlan,
    tasks: &[Task],
    shards: impl IntoIterator<Item = Vec<u8>>,
) -> CampaignResult {
    let mut per_item: Vec<Vec<u8>> = vec![Vec::new(); plan.work().len()];
    for (task, preds) in tasks.iter().zip(shards) {
        if let Some(item) = per_item.get_mut(task.work_id) {
            item.extend(preds);
        }
    }
    plan.fold(per_item)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer that connects but never sends its hello must make the fleet
    /// accept *time out with an error* — not hang the server forever on a
    /// blocking handshake read.
    #[test]
    fn silent_peer_times_the_fleet_accept_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _silent = TcpStream::connect(addr).unwrap();
        let t = Instant::now();
        let r = accept_fleet(&listener, 1, Duration::from_millis(300));
        assert!(r.is_err(), "a silent peer must not count as a worker");
        assert!(
            t.elapsed() < Duration::from_secs(30),
            "accept must observe the deadline instead of blocking"
        );
    }

    #[test]
    fn fair_share_prefers_the_least_served_ready_client() {
        // Client 1 has had 5 shards, client 2 only 1: 2 wins.
        let pick = fair_share_pick([(1, 5, true), (2, 1, true)].into_iter());
        assert_eq!(pick, Some(2));
    }

    #[test]
    fn fair_share_skips_unready_clients() {
        // The least-served client is finished/drained; the other wins.
        let pick = fair_share_pick([(1, 5, true), (2, 1, false)].into_iter());
        assert_eq!(pick, Some(1));
        assert_eq!(
            fair_share_pick([(1, 5, false), (2, 1, false)].into_iter()),
            None
        );
        assert_eq!(fair_share_pick(std::iter::empty()), None);
    }

    #[test]
    fn fair_share_breaks_ties_toward_the_older_client() {
        let pick = fair_share_pick([(7, 3, true), (2, 3, true), (9, 3, true)].into_iter());
        assert_eq!(pick, Some(2));
    }

    #[test]
    fn content_hashes_are_domain_separated_and_nonzero() {
        // The same byte content under different artifact kinds must hash
        // differently (domain tags), and no hash may be the wire's
        // "absent" sentinel 0.
        let w = hash_weights(&[(0, vec![1, 2, 3])]);
        let mut h = Fnv64::new();
        h.write(&[3]);
        assert_ne!(w, 0);
        assert_ne!(w, finish_nonzero(&h));
        let a = hash_weights(&[(0, vec![1, 2, 3])]);
        let b = hash_weights(&[(0, vec![1, 2, 4])]);
        assert_eq!(w, a, "content hashing is deterministic");
        assert_ne!(a, b, "a single flipped weight must change the hash");
    }
}
