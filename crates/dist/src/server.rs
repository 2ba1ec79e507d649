//! The multiplexing campaign server: one **persistent** worker fleet
//! serving many client campaigns concurrently over content-addressed
//! sessions.
//!
//! [`CampaignServer::start`] raises the fleet once; any number of
//! campaigns are then [`submit`](CampaignServer::submit)ted against it —
//! concurrently, from any thread — each returning a [`ClientHandle`] whose
//! [`wait`](ClientHandle::wait) yields a [`CampaignResult`]
//! **bit-identical** to the in-process [`Campaign::run`]. A single
//! campaign is `CampaignServer::start(&fleet, n)?.submit(..)?.wait()`.
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
//! With a [`FleetSpec::checkpoint_path`], `start` loads the map from one
//! [`CheckpointLog`] there, never removed, and every accepted landing and
//! audit repair is appended to it. Logged shards load as verified.
//!
//! # Failure model
//!
//! The fabric assumes a **hostile transport** and, since wire v4, hostile
//! *workers* too — a worker may return wrong answers, not just crash. Every
//! failure is isolated to the client whose shard it touched:
//!
//! * a broken socket, a timed-out shard, a CRC-failed frame, or an
//!   out-of-lifecycle message costs one **requeue** — the connection is
//!   dropped and the shard goes back on the owning client's queue;
//! * a reply whose attestation does not match the assigned session, or a
//!   self-consistent lie caught by an audit, is handled as described under
//!   *Result integrity* below — conviction is fatal only to the worker,
//!   never a client;
//! * the listener stays open for the server's life: a late or
//!   *reconnecting* worker is **re-admitted** mid-flight (handshake + cache
//!   advertisement, then a session delta ships only what it lacks), or
//!   turned away with a versioned [`Msg::Goodbye`] once
//!   [`FleetSpec::max_readmissions`] is reached — never left hanging in TCP
//!   limbo;
//! * a fleet empty for longer than [`FleetSpec::readmission_grace`] fails
//!   every unfinished client with [`DistError::FleetLost`]; the server
//!   stays up for later submissions;
//! * a campaign **resumes** on a server restarted at the same
//!   [`FleetSpec::checkpoint_path`]: a fully logged campaign is a cache
//!   hit, a partial one runs only its missing shards, and a foreign log
//!   serves only the shards the two campaigns share. Resubmitting to the
//!   same live server after `FleetLost` redoes the failed client's shards
//!   (no caller does);
//! * a worker-*reported* error ([`Msg::WorkerErr`]) stays **fatal** to its
//!   client: it is deterministic and would reproduce on any other worker.
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
//!   one-worker fleet the audit runs in-process directly. Every audit —
//!   over the wire, in-process, in a quarantine sweep or in the fleet-loss
//!   rescue — closes exactly once in one verdict function, `settle_audit`,
//!   and an arbitration that proves an answer wrong convicts whoever gave
//!   it, the rescue's included.
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

use crate::checkpoint::{CheckpointLog, Fnv64};
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
    /// Content key in the shard store and its log (see [`shard_key`]).
    pub(crate) key: u64,
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
    /// Shards completed so far (ones prefilled from the shard store
    /// included).
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
    /// campaign (or in the log at start), by content key (see [`shard_key`]).
    shards: HashMap<u64, Vec<u8>>,
    /// Reputation per worker identity — survives reconnects and drains.
    trust: HashMap<u64, Trust>,
    /// Connection count per worker identity currently serving.
    active_idents: HashMap<u64, u32>,
    /// Workers admitted so far, the initial fleet included: the next
    /// admission's worker id.
    admitted: usize,
    stats: ServerStats,
}

/// Everything worker-connection threads, the acceptor and client handles
/// share.
struct ServerInner {
    state: Mutex<ServerState>,
    /// Notified whenever a client finishes (success, fatal, fleet lost)
    /// and whenever a worker is admitted.
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
    /// The shard store's log ([`FleetSpec::checkpoint_path`]).
    log: Option<CheckpointLog>,
    /// Sockets still in their handshake, for `stop` to unblock.
    handshakes: Mutex<HashMap<u64, TcpStream>>,
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

/// One task of one client, with the handles that landing, requeueing or
/// settling it needs outside the state lock.
struct Ticket {
    client: u64,
    task_idx: usize,
    arbiter: Arc<Arbiter>,
    tasks: Arc<Vec<Task>>,
}

impl ClientState {
    /// Task `task_idx` of client `client` as a [`Ticket`].
    fn ticket(&self, client: u64, task_idx: usize) -> Ticket {
        Ticket {
            client,
            task_idx,
            arbiter: Arc::clone(&self.arbiter),
            tasks: Arc::clone(&self.tasks),
        }
    }

    /// Whether task `i` has an audit still waiting for its verdict.
    fn awaits_verdict(&self, i: usize) -> bool {
        !self.finished && self.audit_open.get(i).copied().unwrap_or(false)
    }
}

/// Punishes a worker identity: a `strike` (attestation failure) walks
/// `Healthy → Suspect → Quarantined`, a conviction (audit arbitration
/// proved a wrong answer) quarantines outright. On the transition *into*
/// quarantine every unverified shard the worker produced is re-verified by
/// the owning client's arbiter — repaired if it lied — so nothing the
/// convicted worker touched survives unchecked.
fn punish_worker(inner: &ServerInner, ident: u64, conviction: bool) {
    let mut sweep: Vec<Ticket> = Vec::new();
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
                    sweep.push(c.ticket(id, i));
                }
            }
        }
    }
    // Settling a swept shard can only convict `ident` again, which returns
    // above: the sweep never recurses.
    for t in &sweep {
        settle_audit(inner, t, None);
    }
}

/// Settles one open audit: the one verdict every audit path shares.
/// `replica` is the auditor's identity and predictions when the audit ran
/// over the wire, `None` when nobody else could run it (a one-worker fleet,
/// a conviction sweep, a fleet-loss rescue).
///
/// A replica equal to the stored result confirms it outright. Otherwise the
/// arbiter re-executes the task authoritatively, outside the lock; a stored
/// result that differs from it is repaired (and logged again), and whoever
/// it proves wrong — the producer, the auditor or both — is convicted. The
/// evidence that disagreed with the stored result (the replica, else the
/// arbiter) counts one audit mismatch. An audit settled concurrently is
/// skipped; an arbiter error fails only its client.
fn settle_audit(inner: &ServerInner, t: &Ticket, replica: Option<(u64, Vec<u8>)>) {
    let (producer, stored) = {
        let mut guard = lock(&inner.state);
        let st = &mut *guard;
        let Some(c) = st.clients.get_mut(&t.client) else {
            return;
        };
        if !c.awaits_verdict(t.task_idx) {
            return;
        }
        let producer = c.producer.get(t.task_idx).copied().flatten();
        let Some(stored) = c.results.get(t.task_idx).cloned().flatten() else {
            // An audit opens only on a landed slot and slots are never
            // emptied again; a missing one leaves nothing to check.
            close_audit(c, t.task_idx, &inner.completion);
            return;
        };
        if let Some((_, r)) = &replica {
            if *r == stored {
                trace::event("audit.pass");
                close_audit(c, t.task_idx, &inner.completion);
                if let Some(p) = producer {
                    st.trust.entry(p).or_default().audit_passed();
                }
                return;
            }
            trace::event("audit.mismatch");
            st.stats.audit_mismatches += 1;
        }
        (producer, stored)
    };
    let Some(task) = t.tasks.get(t.task_idx) else {
        return;
    };
    let auth = match t.arbiter.run(task) {
        Ok(v) => v,
        Err(e) => {
            fail_client(inner, t.client, e);
            return;
        }
    };
    let producer_lied = auth != stored;
    let on_wire = replica.is_some();
    let lying_auditor = replica.and_then(|(auditor, r)| (r != auth).then_some(auditor));
    let repaired = {
        let mut guard = lock(&inner.state);
        let st = &mut *guard;
        match st.clients.get_mut(&t.client) {
            Some(c) if c.awaits_verdict(t.task_idx) => {
                if !on_wire {
                    trace::event(if producer_lied {
                        "audit.mismatch"
                    } else {
                        "audit.pass"
                    });
                    st.stats.audit_mismatches += u64::from(producer_lied);
                }
                if producer_lied {
                    if let Some(slot) = c.results.get_mut(t.task_idx) {
                        *slot = Some(auth.clone());
                    }
                    if let Some(p) = c.producer.get_mut(t.task_idx) {
                        *p = None; // authoritative now
                    }
                }
                close_audit(c, t.task_idx, &inner.completion);
                if let Some(p) = producer.filter(|_| !producer_lied) {
                    st.trust.entry(p).or_default().audit_passed();
                }
                producer_lied
            }
            _ => false,
        }
    };
    if repaired {
        if let Some(log) = &inner.log {
            log.append(task.key, &auth);
        }
    }
    if let Some(p) = producer.filter(|_| producer_lied) {
        punish_worker(inner, p, true);
    }
    if let Some(auditor) = lying_auditor {
        punish_worker(inner, auditor, true);
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
    ticket: Ticket,
    kind: AssignKind,
    session: (u64, u64, u64, u64),
    /// [`Msg::ArtifactDelta`] ship bitmask for this connection.
    ship: u8,
    /// The pre-encoded artifact frames to ship, in ship-bit order.
    frames: Vec<Arc<Vec<u8>>>,
    work_msg: Msg,
    /// Expected `(work_id, start, end)` of the reply.
    key: (u32, u32, u32),
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
        ticket: c.ticket(id, task_idx),
        kind,
        session,
        ship,
        frames,
        work_msg,
        key,
    })
}

/// Puts a lost shard back on its owner's queue (the owner may have
/// finished — fatally or via another worker — in the meantime). A lost
/// *audit* is re-enqueued only while its audit is still open — a
/// conviction sweep may have resolved it meanwhile.
fn requeue(inner: &ServerInner, a: &Assignment, worker_id: usize, why: &dyn std::fmt::Display) {
    let t = &a.ticket;
    let mut st = lock(&inner.state);
    if let Some(c) = st.clients.get_mut(&t.client) {
        if !c.finished {
            match a.kind {
                AssignKind::Run => c.queue.push(QueueEntry::Run(t.task_idx)),
                AssignKind::Audit { producer } | AssignKind::AuditLocal { producer } => {
                    if c.audit_open.get(t.task_idx).copied().unwrap_or(false) {
                        c.queue.push(QueueEntry::Audit {
                            task_idx: t.task_idx,
                            producer,
                        });
                    }
                }
            }
            trace::event("shard.requeued");
            if c.verbose {
                if let Some(task) = t.tasks.get(t.task_idx) {
                    progress::emit(&progress::Event::ShardRequeued {
                        worker: worker_id,
                        client: t.client,
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

/// Lands one completed *run*: merge, log, and — when the shard is
/// sampled (or the producer is under heightened audit) — schedule a silent
/// audit re-execution. A result landed by a worker that was quarantined
/// mid-flight is discarded and its task requeued: nothing a convicted
/// worker produced is merged, or logged, unverified.
fn land_run(inner: &ServerInner, a: &Assignment, worker_id: usize, ident: u64, preds: Vec<u8>) {
    let t = &a.ticket;
    let total = t.tasks.len();
    let mut guard = lock(&inner.state);
    let st = &mut *guard;
    let producer_trust = st.trust.get(&ident).copied().unwrap_or_default();
    let Some(c) = st.clients.get_mut(&t.client) else {
        return;
    };
    if c.finished || !matches!(c.results.get(t.task_idx), Some(None)) {
        return;
    }
    if producer_trust.is_quarantined() {
        // Convicted while this shard was in flight: discard and requeue.
        c.queue.push(QueueEntry::Run(t.task_idx));
        return;
    }
    // Log only what lands: a restarted server takes a logged shard as
    // verified and never audits it, so a discarded lie must not reach the
    // log. The append happens under the lock that lands the shard, so an
    // audit of it (queued under this same hold) can only log its repair
    // after this record, and the last record per key wins on load.
    if let (Some(log), Some(task)) = (&inner.log, t.tasks.get(t.task_idx)) {
        log.append(task.key, &preds);
    }
    if let Some(slot) = c.results.get_mut(t.task_idx) {
        *slot = Some(preds);
    }
    if let Some(p) = c.producer.get_mut(t.task_idx) {
        *p = Some(ident);
    }
    c.done += 1;
    let _ = c.progress.send(Progress {
        done: c.done,
        total,
    });
    if c.verbose {
        if let Some(task) = t.tasks.get(t.task_idx) {
            // `c.done` was advanced under the state lock just above, so
            // the printed sequence is monotonic; the renderer's own lock
            // only guards against interleaved lines.
            progress::emit(&progress::Event::ShardLanded {
                client: t.client,
                done: c.done,
                total,
                worker: worker_id,
                item: task.work_id as u32,
                start: task.range.start as u32,
                end: task.range.end as u32,
            });
        }
    }
    let need_audit =
        producer_trust.audits_all() || audit_sampled(inner.audit_rate, t.client, a.key);
    if need_audit && !c.verified.get(t.task_idx).copied().unwrap_or(false) {
        if let Some(open) = c.audit_open.get_mut(t.task_idx) {
            *open = true;
            c.audits_pending += 1;
            c.queue.push(QueueEntry::Audit {
                task_idx: t.task_idx,
                producer: ident,
            });
        }
    }
    maybe_finish(c, &inner.completion);
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
            client: a.ticket.client,
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
        if let AssignKind::AuditLocal { .. } = a.kind {
            // In-process arbitration: no frames on this connection.
            trace::event("audit.dispatch_local");
            settle_audit(inner, &a.ticket, None);
            idle_since = trace::now_us();
            continue;
        }
        if matches!(a.kind, AssignKind::Audit { .. }) {
            trace::event("audit.dispatch");
        }
        // Activate the session when it (or the owning client) changed. The
        // client matters only for bookkeeping symmetry: the artifact tuple
        // alone decides what ships.
        if a.session != current || current_client != Some(a.ticket.client) || a.ship != 0 {
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
            current_client = Some(a.ticket.client);
        }
        // A legitimate re-dispatch of a key this connection completed
        // before (an audit of a task someone else requeued here, or a
        // repair re-run) must not be mistaken for a late duplicate.
        done_keys.remove(&(a.ticket.client, a.key.0, a.key.1, a.key.2));
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
                    a.ticket.client,
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
                    AssignKind::Audit { .. } => {
                        settle_audit(inner, &a.ticket, Some((ident, preds)));
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
                fail_client(inner, a.ticket.client, e);
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

/// Keeps the listener open for the life of the server and hands every
/// connection to its own [`admit`] thread: the initial fleet, then late or
/// reconnecting workers. Fails every unfinished client when the fleet
/// stays empty past the re-admission grace — the server itself survives a
/// fleet loss and serves later submissions if workers return.
fn acceptor_thread(
    inner: &Arc<ServerInner>,
    listener: &TcpListener,
    conn_threads: &Mutex<Vec<JoinHandle<()>>>,
) {
    let mut empty_since: Option<Instant> = None;
    // `NVFI_METRICS=top`: one periodic fleet-summary line instead of the
    // raw per-shard verbose stream.
    let metrics_top = matches!(std::env::var("NVFI_METRICS").as_deref(), Ok("top"));
    let mut last_top = Instant::now();
    let mut next_conn = 0u64;
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
                            // Fail the rest (the shards they landed stay
                            // in the store's log, if any). The server
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
            Ok((s, _)) => {
                // A silent peer holds up only its own handshake thread.
                if s.set_nonblocking(false).is_err() {
                    continue;
                }
                let Ok(clone) = s.try_clone() else {
                    continue;
                };
                let conn = next_conn;
                next_conn += 1;
                lock(&inner.handshakes).insert(conn, clone);
                let inner2 = Arc::clone(inner);
                lock(conn_threads).push(std::thread::spawn(move || admit(&inner2, conn, s)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Admits one accepted connection on its own thread, then runs
/// [`connection_thread`] on it. A failed handshake drops the connection —
/// a chaos-mangled one costs the worker a clean reconnect, not the fleet.
fn admit(inner: &Arc<ServerInner>, conn: u64, mut s: TcpStream) {
    let hello = handshake(inner, &mut s);
    lock(&inner.handshakes).remove(&conn);
    let Some((ident, hashes)) = hello else {
        return;
    };
    // Worker ids `0..total_workers` are the initial fleet; the cap counts
    // only the re-admissions after it.
    let worker_id = {
        let mut st = lock(&inner.state);
        let id = st.admitted;
        if id >= inner.total_workers.saturating_add(inner.max_readmissions) {
            None
        } else {
            st.admitted += 1;
            // A quarantined identity coming back is re-admitted on
            // probation: it serves again, but every shard it completes is
            // audited until it earns trust back.
            st.trust.entry(ident).or_default().readmit();
            inner.active.fetch_add(1, Ordering::SeqCst);
            trace::event("worker.admitted");
            if st.clients.values().any(|c| c.verbose) {
                progress::emit(&progress::Event::WorkerAdmitted { worker: id });
            }
            inner.completion.notify_all();
            Some(id)
        }
    };
    let Some(worker_id) = worker_id else {
        // Versioned, explicit rejection *after* the handshake: the worker's
        // serve loop reads a clean `Goodbye` and stands down, instead of
        // hanging in TCP limbo or misreading the frame.
        let _ = wire::send(
            &mut s,
            &Msg::Goodbye {
                reason: format!("re-admission cap ({}) reached", inner.max_readmissions),
            },
        );
        return;
    };
    connection_thread(inner, worker_id, ident, s, hashes);
}

/// Reads a connection's hello and cache advertisement: the worker's
/// identity and hashes. The reads are bounded, so a silent peer is dropped;
/// a stats poll is answered and dropped.
fn handshake(inner: &ServerInner, s: &mut TcpStream) -> Option<(u64, Vec<u64>)> {
    let _ = s.set_nodelay(true);
    s.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    wire::accept_hello(s).ok()?;
    match wire::recv(s) {
        Ok(Msg::HaveArtifacts { ident, hashes }) => {
            s.set_read_timeout(None).ok()?;
            Some((ident, hashes))
        }
        Ok(Msg::StatsQuery) => {
            let text = lock(&inner.state).stats.render_prometheus();
            let _ = wire::send(s, &Msg::Stats { text });
            None
        }
        _ => None,
    }
}

/// Settles every open audit of every unfinished client in-process (the
/// fleet is gone; the arbiter is the only executor left), so a client that
/// only awaited verification finishes with a repaired — and correct —
/// result instead of a [`DistError::FleetLost`]. A producer the arbiter
/// proves wrong is convicted, as by any other audit.
fn rescue_open_audits(inner: &ServerInner) {
    let rescue: Vec<Ticket> = {
        let st = lock(&inner.state);
        st.clients
            .iter()
            .flat_map(|(&id, c)| {
                (0..c.tasks.len())
                    .filter(|&i| c.awaits_verdict(i))
                    .map(move |i| c.ticket(id, i))
            })
            .collect()
    };
    for t in &rescue {
        settle_audit(inner, t, None);
    }
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
    /// Raises the fleet and starts the server: loads the shard store's
    /// log, binds the listener, starts the acceptor, spawns `workers` local worker processes (per
    /// [`FleetSpec::spawn`]) and returns once `workers` +
    /// [`FleetSpec::external_workers`] workers have shaken hands and
    /// advertised their caches. The acceptor keeps the listener open for
    /// the server's life, so workers raised later (or reconnecting after a
    /// crash) join the same fleet.
    ///
    /// # Errors
    ///
    /// [`DistError::Spawn`] when the fleet is empty
    /// (`workers + external_workers == 0`), a worker process cannot be
    /// spawned, or the fleet does not complete its handshakes within
    /// [`FleetSpec::accept_timeout`]; every process spawned so far is
    /// stopped and reaped first.
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
        let deadline = Instant::now() + fleet.accept_timeout;
        let listener = loop {
            match TcpListener::bind(bind_addr) {
                Ok(l) => break l,
                Err(e)
                    if e.kind() == std::io::ErrorKind::AddrInUse && Instant::now() < deadline =>
                {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(DistError::Spawn(format!("bind {bind_addr}: {e}"))),
            }
        };
        let local = listener
            .local_addr()
            .map_err(|e| DistError::Spawn(e.to_string()))?;
        listener
            .set_nonblocking(true)
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

        let mut shards = HashMap::new();
        let log = fleet
            .checkpoint_path
            .as_ref()
            .and_then(|path| match CheckpointLog::open(path) {
                Ok((log, cp)) => {
                    shards.extend(cp.entries.into_iter().map(|e| (e.key, e.preds)));
                    Some(log)
                }
                Err(e) => {
                    progress::note(format!(
                        "nvfi server: checkpoint {} unusable: {e}",
                        path.display()
                    ));
                    None
                }
            });
        let inner = Arc::new(ServerInner {
            state: Mutex::new(ServerState {
                artifacts: HashMap::new(),
                clients: BTreeMap::new(),
                next_client: 0,
                shards,
                trust: HashMap::new(),
                active_idents: HashMap::new(),
                admitted: 0,
                stats: ServerStats::default(),
            }),
            completion: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            task_timeout: fleet.task_timeout,
            readmission_grace: fleet.readmission_grace,
            max_readmissions: fleet.max_readmissions,
            total_workers,
            audit_rate: fleet.audit_rate,
            log,
            handshakes: Mutex::new(HashMap::new()),
        });
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let inner2 = Arc::clone(&inner);
            let reg = Arc::clone(&conn_threads);
            std::thread::spawn(move || acceptor_thread(&inner2, &listener, &reg))
        };
        // From here on an early return drops the server, which stops the
        // acceptor and kills + reaps every process spawned so far.
        let server = CampaignServer {
            inner,
            children: Mutex::new(Vec::new()),
            conn_threads,
            acceptor: Mutex::new(Some(acceptor)),
            addr: local,
            local_devices_cfg: fleet.local_devices,
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
            let child = cmd
                .spawn()
                .map_err(|e| DistError::Spawn(format!("spawn {}: {e}", exe.display())))?;
            lock(&server.children).push(child);
        }
        // The acceptor counts admissions and notifies `completion` on each.
        let mut st = lock(&server.inner.state);
        while st.admitted < total_workers {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let admitted = st.admitted;
                drop(st);
                return Err(DistError::Spawn(format!(
                    "only {admitted}/{total_workers} workers connected within {:?}",
                    fleet.accept_timeout
                )));
            }
            st = server
                .inner
                .completion
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        drop(st);
        Ok(server)
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
    /// other submitted one, interleaved fair-share. `spec.threads` means
    /// "total device budget" when the fleet's [`FleetSpec::local_devices`]
    /// is 0: each worker then drives `max(1, threads / fleet size)` devices.
    ///
    /// The campaign is prepared by [`CampaignPlan::prepare`] — the same
    /// preparation as the in-process [`Campaign::run`] — then its artifacts
    /// are exported and content-hashed and its work items cut into keyed
    /// shards. An all-masked campaign is folded from its baseline on the
    /// prepared prototype; one whose every shard is already in the shard
    /// store is folded from the store. Neither dispatches any fleet work.
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
        let (plan, mut proto) = CampaignPlan::prepare(model, config, spec, eval)?;
        let images = plan.qset().len();
        if plan.all_masked() {
            if spec.verbose {
                progress::note("  every work item provably masked; fleet not engaged");
            }
            let baseline = plan.execute(&mut DevicePool::from_device(proto, 1), 0, 0..images)?;
            let mut per_item = vec![baseline];
            per_item.resize(plan.work().len(), Vec::new());
            return Ok(ClientHandle::ready(plan.fold(per_item)));
        }
        let total_workers = self.inner.total_workers;
        let local_devices = if self.local_devices_cfg > 0 {
            self.local_devices_cfg
        } else {
            (spec.threads / total_workers).max(1)
        };
        let plan_words = nvfi_compiler::plan::encode_words(proto.plan());
        let weight_image = proto.accel_mut().export_weight_image()?;
        drop(proto);
        let session = (
            hash_plan(&config.into(), local_devices as u32, &plan_words),
            hash_weights(&weight_image),
            hash_eval(plan.qset()),
            plan.golden().map_or(0, hash_golden),
        );

        // The task list: each work item cut into as many contiguous shards
        // as the two-level layout gives its scheduling slot — all 1s when
        // the work list is at least as wide as the fleet (pure item-level
        // parallelism), wider shard fan-out when the fleet outnumbers the
        // items. Provably masked items get no shards.
        let layout = Campaign::pool_layout(total_workers, plan.work().len());
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
        let plan = Arc::new(plan);

        // One shard-store lookup per task: the present ones are prefilled,
        // and all present folds on the spot (a cache hit).
        let mut st = lock(&self.inner.state);
        st.stats.campaigns_submitted += 1;
        let results: Vec<Option<Vec<u8>>> = tasks
            .iter()
            .map(|t| st.shards.get(&t.key).cloned())
            .collect();
        let prefilled = results.iter().flatten().count();
        if spec.verbose && prefilled > 0 {
            progress::emit(&progress::Event::Resumed {
                done: prefilled,
                total: tasks.len(),
            });
        }
        if prefilled == tasks.len() {
            st.stats.cache_hits += 1;
            drop(st);
            return Ok(ClientHandle::ready(fold_shards(
                &plan,
                &tasks,
                results.into_iter().flatten(),
            )));
        }
        // The decoded artifacts live on (shared) behind the audit arbiter:
        // an authoritative in-process re-execution needs exactly what a
        // worker would be shipped.
        let plan_words = Arc::new(plan_words);
        let weight_image = Arc::new(weight_image);
        let (plan_hash, weights_hash, eval_hash, golden_hash) = session;
        // Register the artifact frames. Encoding happens at most once per
        // distinct content hash for the server's whole life — the
        // serialize-once probes count these.
        ensure_artifact(&mut st, plan_hash, || {
            Msg::Plan {
                config: config.into(),
                local_devices: local_devices as u32,
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
        let qset = plan.qset();
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
        if let Some(g) = plan.golden() {
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

        let (progress_tx, progress_rx) = channel();
        let tasks = Arc::new(tasks);
        let queue: Vec<QueueEntry> = (0..tasks.len())
            .rev()
            .filter(|&i| results.get(i).is_some_and(Option::is_none))
            .map(QueueEntry::Run)
            .collect();
        // Prefilled shards count as verified: they were landed (and
        // possibly audited) by the run that recorded them, and there is no
        // producer left to audit.
        let verified: Vec<bool> = results.iter().map(Option::is_some).collect();
        let arbiter = Arc::new(Arbiter {
            config,
            plan: Arc::clone(&plan),
            plan_words,
            weight_image,
            pool: Mutex::new(None),
        });
        let id = st.next_client;
        st.next_client += 1;
        st.clients.insert(
            id,
            ClientState {
                session,
                plan: Arc::clone(&plan),
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
                finished: false,
                verbose: spec.verbose,
                arbiter,
                progress: progress_tx,
            },
        );
        drop(st);
        Ok(ClientHandle {
            inner: HandleInner::Pending {
                server: Arc::clone(&self.inner),
                id,
                plan,
                tasks,
            },
            progress: progress_rx,
        })
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
        // Unblock every connection still in its handshake read.
        let pending: Vec<TcpStream> = lock(&self.inner.handshakes)
            .drain()
            .map(|(_, s)| s)
            .collect();
        for s in pending {
            let _ = s.shutdown(std::net::Shutdown::Both);
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
    /// re-admission grace (the shards it landed stay in the store's log, if
    /// any, for a restarted server); [`DistError::Worker`] for worker-reported deterministic
    /// failures; [`DistError::Protocol`] when the server was shut down
    /// with this campaign unfinished.
    pub fn wait(self) -> Result<CampaignResult, DistError> {
        let (server, id, plan, tasks) = match self.inner {
            HandleInner::Ready(result) => return Ok(result),
            HandleInner::Pending {
                server,
                id,
                plan,
                tasks,
            } => (server, id, plan, tasks),
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
        // The campaign is complete: its shards serve later campaigns.
        {
            let mut st = lock(&server.state);
            for (task, preds) in tasks.iter().zip(&shards) {
                st.shards.insert(task.key, preds.clone());
            }
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
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let (release, released) = channel::<()>();
        let silent = std::thread::spawn(move || {
            let _stream = loop {
                match TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            };
            let _ = released.recv();
        });
        let fleet = FleetSpec {
            listen: Some(addr.to_string()),
            external_workers: 1,
            accept_timeout: Duration::from_millis(300),
            ..FleetSpec::default()
        };
        let t = Instant::now();
        let r = CampaignServer::start(&fleet, 0);
        assert!(
            matches!(&r, Err(DistError::Spawn(m)) if m.starts_with("only 0/1 workers")),
            "a silent peer must not count as a worker"
        );
        assert!(
            t.elapsed() < Duration::from_secs(30),
            "accept must observe the deadline instead of blocking"
        );
        drop(release);
        silent.join().unwrap();
    }

    /// A silent peer that connects before a real worker must not hold up
    /// the worker's admission: each handshake runs on its own thread.
    #[test]
    fn a_silent_peer_does_not_delay_a_real_worker() {
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let connect = move || loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        let (connected, silent_is_in) = channel::<()>();
        let (release, released) = channel::<()>();
        let silent = std::thread::spawn(move || {
            let _stream = connect();
            let _ = connected.send(());
            let _ = released.recv();
        });
        let worker = std::thread::spawn(move || {
            let _ = silent_is_in.recv();
            worker::serve(&mut connect())
        });
        let fleet = FleetSpec {
            listen: Some(addr.to_string()),
            external_workers: 1,
            ..FleetSpec::default()
        };
        let t = Instant::now();
        let server = CampaignServer::start(&fleet, 0);
        let took = t.elapsed();
        assert!(server.is_ok(), "the real worker is admitted");
        assert!(
            took < Duration::from_secs(2),
            "the silent peer delayed the worker's admission by {took:?}"
        );
        drop(server);
        assert!(matches!(
            worker.join().unwrap(),
            Ok(worker::ServeEnd::Shutdown)
        ));
        drop(release);
        silent.join().unwrap();
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
