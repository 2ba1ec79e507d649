//! The fabric's configuration and error types: how a worker fleet is
//! raised ([`FleetSpec`], [`WorkerSpawn`]) and what can go wrong on it
//! ([`DistError`]). Campaigns run on the fleet through
//! [`CampaignServer`](crate::CampaignServer); its module docs hold the
//! failure model.

use std::path::PathBuf;
use std::time::Duration;

use nvfi::PlatformError;

use crate::codec::WireError;

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

/// How the worker fleet of a [`CampaignServer`](crate::CampaignServer) is
/// raised.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSpec {
    /// Spawn method for the local worker processes; how many is
    /// [`CampaignServer::start`](crate::CampaignServer::start)'s `workers`
    /// argument.
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
    /// served from the shard store (or its log) was audited by the campaign
    /// that ran it. Suspect and probationary workers are audited at 100 %
    /// regardless. Default `0.0` (baseline-only).
    pub audit_rate: f64,
    /// The shard store's append-only log (`NVFI_CHECKPOINT`), never
    /// removed. Resume means restarting a server at the same path: logged
    /// shards load as verified, so only missing ones run. An unusable file
    /// is a note and no log. `None` keeps the store in memory only.
    pub checkpoint_path: Option<PathBuf>,
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
            checkpoint_path: None,
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
