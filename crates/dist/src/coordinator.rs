//! The coordinator façade: fleet/raise configuration ([`FleetSpec`]), the
//! fabric's error type ([`DistError`]), and the one-shot [`run_campaign`]
//! entry point — raise a fleet, run one campaign, tear the fleet down.
//!
//! Since wire v3 the machinery behind [`run_campaign`] is the persistent
//! multiplexing [`CampaignServer`]: this
//! function is now sugar for *start a server, submit one campaign, wait,
//! shut down*. Everything it guaranteed still holds — scheduling reuses
//! the two-level shape of the in-process campaign loop
//! ([`Campaign::pool_layout`] × [`DevicePool::shard_plan`](nvfi::DevicePool::shard_plan)), predictions
//! merge by `(work item, shard range)` rather than arrival order, and the
//! result is **bit-identical** to the in-process [`Campaign::run`] for
//! every fleet size. Callers that run *many* campaigns should hold a
//! [`CampaignServer`] instead: workers then
//! keep their programmed plan / weight image / quantized evaluation set
//! across campaigns (content-addressed session cache), so repeat
//! campaigns re-ship zero artifact bytes.
//!
//! # Failure model
//!
//! The fabric assumes a **hostile transport** and, since wire v4, hostile
//! *workers* too — a worker may return wrong answers, not just crash:
//!
//! * a broken socket, a timed-out shard, a CRC-failed frame, or an
//!   out-of-lifecycle message costs one **requeue** — the connection is
//!   dropped and the shard goes back on the owning client's queue;
//! * a reply whose [`wire::shard_attestation`](crate::wire::shard_attestation)
//!   does not match the assigned session (stale cached artifacts, post-CRC
//!   corruption) is a named [`WireError::Integrity`] — rejected, requeued,
//!   and a trust strike against the worker; a **self-consistent lie** is
//!   caught by audit re-execution ([`FleetSpec::audit_rate`]; every
//!   executed baseline shard is sampled), arbitrated by an authoritative in-process
//!   re-run, and punished by quarantining the convicted worker
//!   ([`Trust`](crate::trust::Trust)) while its unverified shards are
//!   re-checked — conviction is fatal only to the worker, never a client;
//! * the listener stays open for the whole campaign: a late or
//!   *reconnecting* worker is **re-admitted** mid-flight (handshake +
//!   cache advertisement, then a session delta ships only what it lacks),
//!   or turned away with a versioned [`Msg::Goodbye`](crate::wire::Msg)
//!   once the re-admission cap is reached — never left hanging in TCP
//!   limbo;
//! * losing **every** worker, for longer than
//!   [`FleetSpec::readmission_grace`], fails the campaign with
//!   [`DistError::FleetLost`] and leaves its checkpoint log, if any, on
//!   disk for a resume;
//! * with a checkpoint path ([`CampaignSpec::checkpoint_path`]), every
//!   shard is appended to a log there as it lands (and again if an audit
//!   repairs it), keyed by the shard's content, and a **restarted
//!   coordinator resumes**: artifacts are re-shipped, logged shards are
//!   replayed, only unfinished ones are redone. Records another campaign
//!   left at the path match only the shards the two share;
//! * a worker-*reported* error ([`Msg::WorkerErr`](crate::wire::Msg))
//!   stays **fatal**: it is deterministic and would reproduce on any
//!   other worker.

use std::path::PathBuf;
use std::time::Duration;

use nvfi::campaign::{Campaign, CampaignResult, CampaignSpec};
use nvfi::{PlatformConfig, PlatformError};
use nvfi_dataset::Dataset;
use nvfi_quant::QuantModel;

use crate::codec::WireError;
use crate::server::{self, CampaignServer, Prepared};

/// Errors of the distributed campaign fabric.
#[derive(Debug)]
pub enum DistError {
    /// Socket/process I/O failed.
    Io(std::io::Error),
    /// A frame failed to decode (or the peer speaks the wrong version).
    Wire(WireError),
    /// A platform/device error (compile, DRAM, window validation).
    Platform(PlatformError),
    /// A worker *reported* an error — deterministic, so not retried.
    Worker(String),
    /// A message arrived outside the session lifecycle.
    Protocol(&'static str),
    /// Spawning or attaching workers failed.
    Spawn(String),
    /// Every worker died with tasks still outstanding.
    FleetLost {
        /// Tasks that never completed.
        incomplete: usize,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "dist i/o error: {e}"),
            DistError::Wire(e) => write!(f, "dist wire error: {e}"),
            DistError::Platform(e) => write!(f, "dist platform error: {e}"),
            DistError::Worker(m) => write!(f, "worker reported: {m}"),
            DistError::Protocol(what) => write!(f, "protocol violation: {what}"),
            DistError::Spawn(m) => write!(f, "could not raise worker fleet: {m}"),
            DistError::FleetLost { incomplete } => {
                write!(f, "every worker died with {incomplete} task(s) outstanding")
            }
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Io(e) => Some(e),
            DistError::Wire(e) => Some(e),
            DistError::Platform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<WireError> for DistError {
    fn from(e: WireError) -> Self {
        DistError::Wire(e)
    }
}

impl From<PlatformError> for DistError {
    fn from(e: PlatformError) -> Self {
        DistError::Platform(e)
    }
}

impl From<nvfi_accel::AccelError> for DistError {
    fn from(e: nvfi_accel::AccelError) -> Self {
        DistError::Platform(PlatformError::Accel(e))
    }
}

/// How worker processes are spawned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerSpawn {
    /// Re-execute the **current binary** with `NVFI_WORKER_CONNECT` set.
    /// The binary must call [`worker::maybe_serve`](crate::worker::maybe_serve)
    /// first thing in `main`
    /// (the examples and benches do) — the re-executed copy then serves a
    /// worker session and exits instead of running `main` proper.
    SelfExec,
    /// Spawn an explicit worker executable (e.g. the `nvfi_worker` bin),
    /// passing the coordinator address as `NVFI_WORKER_CONNECT`.
    Exe(PathBuf),
}

/// How the worker fleet is raised for one campaign (or one
/// [`CampaignServer`]).
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSpec {
    /// Spawn method for the [`CampaignSpec::workers`] local processes.
    pub spawn: WorkerSpawn,
    /// Devices of each worker's local `DevicePool`. `0` (the default)
    /// spreads the campaign's `threads` budget evenly over the fleet
    /// (`max(1, threads / workers)`), so `threads` keeps meaning "total
    /// device budget" in both execution models.
    pub local_devices: usize,
    /// Explicit coordinator bind address (e.g. `0.0.0.0:7070`) for
    /// cross-host workers; `None` binds an ephemeral localhost port.
    pub listen: Option<String>,
    /// Cross-host workers expected to attach (`nvfi_worker <addr>`) in
    /// addition to the spawned ones.
    pub external_workers: usize,
    /// Extra environment for spawned worker `i` (`worker_env[i]`; missing
    /// entries mean no extra environment). Used by fault-tolerance tests to
    /// make one specific worker die mid-campaign.
    pub worker_env: Vec<Vec<(String, String)>>,
    /// How long to wait for the full fleet to connect and shake hands.
    pub accept_timeout: Duration,
    /// Upper bound on **silence** during one shard: after sending `Work`,
    /// every received frame (the worker's [`Msg::Pong`](crate::wire::Msg)
    /// heartbeats between compute waves included) restarts the window, so a
    /// *slow* shard that keeps heartbeating never times out — only a
    /// genuinely stalled worker does, and its shard is requeued. `None`
    /// (the default) waits forever; set this when the network can stall
    /// silently (cross-host fleets behind flaky links).
    pub task_timeout: Option<Duration>,
    /// How long the coordinator keeps the campaign alive with **zero**
    /// connected workers before declaring the fleet lost — the window a
    /// crashed-and-backing-off worker has to reconnect and be re-admitted.
    pub readmission_grace: Duration,
    /// Upper bound on mid-campaign (re-)admissions; a worker connecting
    /// beyond it is turned away with a [`Msg::Goodbye`](crate::wire::Msg).
    /// Caps the worst case of a crash-looping worker being re-admitted
    /// forever.
    pub max_readmissions: usize,
    /// Fraction (`0.0..=1.0`) of completed shards the server silently
    /// **audits** by re-dispatching them to a different worker and
    /// comparing replies byte-for-byte; a mismatch is arbitrated by an
    /// authoritative in-process re-execution that decides which replica
    /// lied. Sampling is deterministic per `(client, shard)` (hash-based,
    /// not random) so a rerun audits the same shards. Every **executed**
    /// baseline shard (work item 0) is audited whatever the rate — every
    /// record's fault-free reference deserves the double-check; a baseline
    /// served from the shard store or a checkpoint log was audited by the
    /// campaign that ran it. Suspect and probationary workers are audited
    /// at 100 % regardless. Default `0.0` (baseline-only).
    pub audit_rate: f64,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            spawn: WorkerSpawn::SelfExec,
            local_devices: 0,
            listen: None,
            external_workers: 0,
            worker_env: Vec::new(),
            accept_timeout: Duration::from_secs(60),
            task_timeout: None,
            readmission_grace: Duration::from_secs(5),
            max_readmissions: 64,
            audit_rate: 0.0,
        }
    }
}

impl FleetSpec {
    /// Self-exec'd local workers (the caller's `main` must start with
    /// [`worker::maybe_serve`](crate::worker::maybe_serve)).
    #[must_use]
    pub fn self_exec() -> Self {
        FleetSpec::default()
    }

    /// Workers spawned from an explicit executable.
    #[must_use]
    pub fn exe(path: impl Into<PathBuf>) -> Self {
        FleetSpec {
            spawn: WorkerSpawn::Exe(path.into()),
            ..FleetSpec::default()
        }
    }
}

/// Runs `spec` as a distributed campaign: [`CampaignSpec::workers`] local
/// worker processes (spawned per [`FleetSpec::spawn`]) plus
/// [`FleetSpec::external_workers`] cross-host ones, each session
/// programmed by content-addressed artifact delta (compiled plan + DRAM
/// weight image + quantized evaluation set, plus the golden activation
/// cache for windowed campaigns), then fed `(work item, image shard)`
/// tasks until the work list is drained. Predictions are merged by
/// `(work item, shard range)` — never by arrival order — so the result is
/// **bit-identical** to the in-process [`Campaign::run`] for every fleet
/// size, whatever faults the transport injects (see the module docs for
/// the failure model).
///
/// One-shot sugar for [`CampaignServer`]:
/// start, submit, wait, shut down. Hold a server yourself to amortize the
/// fleet and its artifact caches over many campaigns.
///
/// With an empty fleet (`spec.workers == 0` and no external workers) this
/// simply delegates to the in-process path.
///
/// # Errors
///
/// [`DistError::Spawn`] if the fleet cannot be raised,
/// [`DistError::Worker`] if a worker reports a deterministic error,
/// [`DistError::FleetLost`] if every worker stays gone past the
/// re-admission grace; platform and socket errors propagate as their
/// variants.
///
/// # Panics
///
/// Panics on the same spec violations as [`Campaign::run`] (no kinds, zero
/// evaluation images, empty expanded work list).
pub fn run_campaign(
    model: &QuantModel,
    config: PlatformConfig,
    spec: &CampaignSpec,
    eval: &Dataset,
    fleet: &FleetSpec,
) -> Result<CampaignResult, DistError> {
    let total_workers = spec.workers + fleet.external_workers;
    if total_workers == 0 {
        return Ok(Campaign::new(model, config).run(spec, eval)?);
    }
    let local_devices = if fleet.local_devices > 0 {
        fleet.local_devices
    } else {
        (spec.threads / total_workers).max(1)
    };
    // Prepare (compile, verify, prune, hash, shard) before raising any
    // fleet: an all-masked campaign must never spawn a process.
    let prepared = match server::prepare(model, config, spec, eval, total_workers, local_devices)? {
        Prepared::Immediate(result) => return Ok(result),
        Prepared::Scheduled(p) => p,
    };
    let srv = CampaignServer::start(fleet, spec.workers)?;
    let outcome = srv.submit_prepared(*prepared).wait();
    srv.shutdown();
    outcome
}
