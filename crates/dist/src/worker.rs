//! The worker side of the campaign fabric: serve coordinator sessions on a
//! connected socket, driving a local [`DevicePool`] built from
//! content-addressed artifacts the coordinator ships (and re-ships only
//! when they change).
//!
//! A worker process is raised one of three ways:
//!
//! * **self-exec** — the coordinator re-executes its own binary with
//!   [`ENV_CONNECT`] set; that binary's `main` starts with
//!   [`maybe_serve`], which hijacks the process into a serve/reconnect
//!   loop;
//! * the **`nvfi_worker` binary** of this crate, spawned locally or started
//!   by hand on another host (`nvfi_worker <coordinator-addr>`);
//! * any embedder calling [`serve`] on a stream it connected itself.
//!
//! # Session cache (wire v3)
//!
//! A worker keeps an [`ArtifactCache`] of the plans, weight images,
//! evaluation sets and golden activation caches it has been shipped, keyed
//! by content hash. Each new connection advertises the cached hashes in a
//! [`Msg::HaveArtifacts`] frame right after the hello exchange; the
//! coordinator activates campaigns with [`Msg::ArtifactDelta`] frames that
//! ship **only what the worker is missing** — a repeat campaign over
//! unchanged artifacts re-ships zero bytes, and switching between the
//! campaigns of a multiplexed server is a few-byte delta instead of a
//! weight image.
//!
//! Every socket-owning entry point wraps its stream in
//! [`crate::chaos::ChaosStream::wrap_env`], so the chaos env knobs
//! (`NVFI_CHAOS_SEED` / `NVFI_CHAOS_PLAN`) can perturb any worker session
//! without code changes. Transient session failures — the coordinator
//! restarting, a chaos-injected drop, a corrupted frame — make the worker
//! **reconnect with capped exponential backoff** and be re-admitted by the
//! coordinator's persistent listener, instead of dying and shrinking the
//! fleet for good.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use nvfi::{DevicePool, EmulationPlatform, GoldenActivationCache, QuantizedEvalSet};
use nvfi_accel::FaultConfig;
use nvfi_obs::progress;
use nvfi_tensor::{Shape4, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chaos::ChaosStream;
use crate::codec::WireError;
use crate::coordinator::DistError;
use crate::wire::{self, Msg, WireConfig, WireFault, WireSpan};

/// Environment variable carrying the coordinator address a worker process
/// must connect to (consumed by [`maybe_serve`] and the `nvfi_worker` bin).
pub const ENV_CONNECT: &str = "NVFI_WORKER_CONNECT";

/// Test hook: a worker with `NVFI_WORKER_EXIT_AFTER=n` serves `n` shards
/// normally, then **exits without replying** when shard `n + 1` arrives —
/// simulating a worker death mid-shard for the requeue fault-tolerance
/// tests. Unset (the default) means never.
pub const ENV_EXIT_AFTER: &str = "NVFI_WORKER_EXIT_AFTER";

/// How long (in seconds) a [`serve_forever`] worker idles without a
/// reachable coordinator before standing down. Unset or unparsable means
/// **unbounded**: a persistent-fleet worker waits for the next campaign
/// indefinitely, which is the point of a persistent fleet.
pub const ENV_IDLE_EXIT: &str = "NVFI_WORKER_IDLE_EXIT";

/// Byzantine test hook: a worker with `NVFI_WORKER_CORRUPT_AFTER=n` serves
/// `n` shards honestly, then **silently corrupts the predictions** of every
/// later shard — *before* the attestation is computed, so the reply is
/// self-consistent and sails through both the CRC trailer and the
/// attestation check. This is the adversary the coordinator's audit
/// re-execution exists to catch (a mangled-in-transit payload is already
/// caught by [`crate::wire::shard_attestation`]). Unset (the default) means
/// never.
pub const ENV_CORRUPT_AFTER: &str = "NVFI_WORKER_CORRUPT_AFTER";

/// Exit code of a deliberate [`ENV_EXIT_AFTER`] death (distinguishable from
/// a crash in test logs).
pub const EXIT_AFTER_CODE: i32 = 17;

/// Cached artifacts retained per kind across sessions. Eviction (oldest
/// first) happens only when a new connection advertises, so the set a
/// coordinator was told about never shrinks mid-connection.
const CACHE_CAP: usize = 8;

/// How a worker session ended cleanly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeEnd {
    /// The coordinator sent [`Msg::Shutdown`]: the session ran to the end
    /// of its campaign. Long-lived workers reconnect for the next one.
    Shutdown,
    /// The coordinator sent [`Msg::Goodbye`] — connected, versioned, and
    /// turned away with a reason (campaign already complete, re-admission
    /// cap reached). Not an error: the worker was *told*, not left hanging.
    Goodbye(String),
}

/// The worker's per-process identity, advertised in every
/// [`Msg::HaveArtifacts`]: random, nonzero, and **stable across
/// reconnects** of the same process, so the coordinator's audit/quarantine
/// reputation book follows a re-admitted worker instead of resetting with
/// each session.
#[must_use]
pub fn worker_ident() -> u64 {
    static IDENT: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *IDENT.get_or_init(|| {
        let mut h = crate::checkpoint::Fnv64::new();
        h.write_u64(u64::from(std::process::id()));
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        h.write_u64(nanos);
        match h.finish() {
            0 => 1, // the wire format reserves ident 0 as invalid
            v => v,
        }
    })
}

/// Capped exponential backoff with equal jitter: attempt `n` sleeps
/// between half and all of `min(100ms << n, 5s)`. The jitter keeps a fleet
/// of workers that lost the same coordinator from reconnecting in
/// lockstep.
fn backoff_delay(attempt: u32, rng: &mut StdRng) -> Duration {
    let ceil_ms = (100u64 << attempt.min(10)).min(5_000);
    Duration::from_millis(ceil_ms / 2 + rng.gen_range(0..=ceil_ms / 2))
}

/// A cached plan artifact: the platform config, the local device count it
/// was programmed for, and the encoded plan words.
type PlanArtifact = (WireConfig, u32, Vec<u32>);

/// A cached DRAM weight image: shipped `(addr, bytes)` regions.
type WeightImage = Vec<(u64, Vec<i8>)>;

/// The content-addressed artifact store a worker keeps **across sessions**
/// (and across reconnects of the same process): everything a coordinator
/// has shipped, keyed by the content hash it was announced under. One
/// built [`DevicePool`] is kept alongside, keyed by its
/// `(plan, weights)` hash pair, so re-activating the same campaign skips
/// device programming entirely.
///
/// Entries are stored in insertion order; `ArtifactCache::advertise`
/// evicts beyond `CACHE_CAP` per kind (oldest first) and returns what
/// remains — the exact set the next coordinator may rely on.
#[derive(Default)]
pub struct ArtifactCache {
    /// Plan artifacts: `(config, local_devices, plan words)`.
    plans: Vec<(u64, PlanArtifact)>,
    /// DRAM weight images as shipped `(addr, bytes)` regions.
    weights: Vec<(u64, WeightImage)>,
    /// Quantized evaluation sets, reconstructed once at receive time.
    evals: Vec<(u64, QuantizedEvalSet)>,
    /// Golden activation caches for windowed campaigns.
    goldens: Vec<(u64, GoldenActivationCache)>,
    /// The one programmed device pool, keyed by `(plan, weights)` hashes.
    built: Option<((u64, u64), DevicePool)>,
}

fn cache_get<T>(entries: &[(u64, T)], hash: u64) -> Option<&T> {
    entries.iter().find(|(h, _)| *h == hash).map(|(_, v)| v)
}

fn cache_put<T>(entries: &mut Vec<(u64, T)>, hash: u64, value: T) {
    entries.retain(|(h, _)| *h != hash);
    entries.push((hash, value));
}

impl ArtifactCache {
    /// Trims each kind to `CACHE_CAP` (oldest first) and returns every
    /// retained hash — the connection-start advertisement. The built pool
    /// is dropped if either of its artifacts was evicted.
    fn advertise(&mut self) -> Vec<u64> {
        trim(&mut self.plans);
        trim(&mut self.weights);
        trim(&mut self.evals);
        trim(&mut self.goldens);
        if let Some(((p, w), _)) = &self.built {
            if cache_get(&self.plans, *p).is_none() || cache_get(&self.weights, *w).is_none() {
                self.built = None;
            }
        }
        let mut hashes = Vec::new();
        hashes.extend(self.plans.iter().map(|(h, _)| *h));
        hashes.extend(self.weights.iter().map(|(h, _)| *h));
        hashes.extend(self.evals.iter().map(|(h, _)| *h));
        hashes.extend(self.goldens.iter().map(|(h, _)| *h));
        hashes
    }

    /// Resolves the active session's artifacts, building (or reusing) the
    /// programmed device pool. Split borrows: the pool is the only mutable
    /// piece, the eval set and golden cache stay shared.
    fn parts(
        &mut self,
        session: &Session,
    ) -> Result<
        (
            &mut DevicePool,
            &QuantizedEvalSet,
            Option<&GoldenActivationCache>,
        ),
        DistError,
    > {
        let qset = cache_get(&self.evals, session.eval)
            .ok_or(DistError::Protocol("work before eval set"))?;
        let golden = if session.golden == 0 {
            None
        } else {
            Some(
                cache_get(&self.goldens, session.golden)
                    .ok_or(DistError::Protocol("work names a missing golden cache"))?,
            )
        };
        let pool = match &mut self.built {
            Some((key, pool)) if *key == (session.plan, session.weights) => pool,
            _ => return Err(DistError::Protocol("work before session activation")),
        };
        Ok((pool, qset, golden))
    }
}

fn trim<T>(entries: &mut Vec<(u64, T)>) {
    while entries.len() > CACHE_CAP {
        entries.remove(0);
    }
}

/// Self-exec hook: when [`ENV_CONNECT`] is set, the process is a spawned
/// worker — connect, serve sessions, and **exit** (status 0 on a clean
/// shutdown or goodbye, 1 on a deterministic error). When unset, returns
/// immediately. Call this first thing in `main` of any binary that
/// coordinates with [`crate::WorkerSpawn::SelfExec`].
///
/// A *transient* session failure (socket error, CRC-failed frame — the
/// coordinator restarting, or the chaos harness at work) does not kill the
/// process: the worker backs off and reconnects, up to a bounded number of
/// attempts, and the coordinator's persistent listener re-admits it
/// mid-campaign. The artifact cache survives reconnects, so a re-admitted
/// worker is re-activated by delta, not re-shipped from scratch.
pub fn maybe_serve() {
    let Ok(addr) = std::env::var(ENV_CONNECT) else {
        return;
    };
    let mut rng = StdRng::seed_from_u64(u64::from(std::process::id()));
    let mut attempt = 0u32;
    let mut cache = ArtifactCache::default();
    loop {
        let result = connect_retry(&addr, Duration::from_secs(5)).and_then(|stream| {
            let mut stream = ChaosStream::wrap_env(stream);
            serve_with_cache(&mut stream, &mut cache)
        });
        match result {
            Ok(ServeEnd::Shutdown) => std::process::exit(0),
            Ok(ServeEnd::Goodbye(reason)) => {
                progress::note(format!(
                    "nvfi worker ({addr}): released by coordinator: {reason}"
                ));
                std::process::exit(0);
            }
            Err(DistError::Io(_) | DistError::Wire(WireError::Crc { .. })) if attempt < 16 => {
                attempt += 1;
                let delay = backoff_delay(attempt, &mut rng);
                progress::note(format!(
                    "nvfi worker ({addr}): transient session failure, \
                     reconnect attempt {attempt} in {delay:?}"
                ));
                std::thread::sleep(delay);
            }
            Err(e) => {
                progress::note(format!("nvfi worker ({addr}): {e}"));
                std::process::exit(1);
            }
        }
    }
}

/// Serves coordinator sessions **in a loop**: after a clean shutdown the
/// worker reconnects and waits for the next session, so one long-lived
/// `nvfi_worker` process can carry a whole multi-campaign experiment, its
/// artifact cache warm across all of them. With no coordinator reachable
/// the worker **idle-waits** — a persistent fleet must not stand down
/// between campaigns — unless [`ENV_IDLE_EXIT`] bounds the wait: after
/// that many coordinator-free seconds the loop ends, cleanly when at least
/// one session was served, with [`DistError::Spawn`] when none ever was.
///
/// Transient session failures (socket errors, CRC-failed frames) are
/// retried with capped exponential backoff — each retry logged with its
/// attempt count. A [`Msg::Goodbye`] is logged and followed by a reconnect
/// pause: for a per-campaign rejection (campaign complete, cap reached)
/// the next campaign of the same experiment may still want this worker.
///
/// # Errors
///
/// [`DistError::Spawn`] when an [`ENV_IDLE_EXIT`] deadline expires before
/// any session was served; deterministic session errors per [`serve`].
pub fn serve_forever(addr: &str) -> Result<(), DistError> {
    let idle_exit: Option<Duration> = std::env::var(ENV_IDLE_EXIT)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_secs);
    let mut sessions = 0u64;
    let mut attempt = 0u32;
    let mut rng = StdRng::seed_from_u64(u64::from(std::process::id()));
    let mut cache = ArtifactCache::default();
    let mut idle_since = Instant::now();
    loop {
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    break s;
                }
                Err(e) => {
                    if let Some(limit) = idle_exit {
                        if idle_since.elapsed() >= limit {
                            return if sessions > 0 {
                                Ok(())
                            } else {
                                Err(DistError::Spawn(format!(
                                    "no coordinator at {addr} within the \
                                     {limit:?} idle deadline: {e}"
                                )))
                            };
                        }
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        };
        let mut stream = ChaosStream::wrap_env(stream);
        match serve_with_cache(&mut stream, &mut cache) {
            Ok(ServeEnd::Shutdown) => {
                sessions += 1;
                attempt = 0;
            }
            Ok(ServeEnd::Goodbye(reason)) => {
                attempt += 1;
                let delay = backoff_delay(attempt, &mut rng);
                progress::note(format!(
                    "nvfi worker ({addr}): turned away ({reason}); \
                     retrying for a later campaign in {delay:?}"
                ));
                std::thread::sleep(delay);
            }
            // Transient transport failure — the coordinator tearing down,
            // restarting, or the chaos harness at work. Back off and
            // reconnect; the idle deadline (if any) ends the loop once
            // nothing listens any more.
            Err(DistError::Io(_) | DistError::Wire(WireError::Crc { .. })) if attempt < 16 => {
                attempt += 1;
                let delay = backoff_delay(attempt, &mut rng);
                progress::note(format!(
                    "nvfi worker ({addr}): transient session failure, \
                     reconnect attempt {attempt} in {delay:?}"
                ));
                std::thread::sleep(delay);
            }
            Err(e) => return Err(e),
        }
        idle_since = Instant::now();
    }
}

/// Connects with retries spread over `window`.
fn connect_retry(addr: &str, window: Duration) -> Result<TcpStream, DistError> {
    let deadline = Instant::now() + window;
    loop {
        let err = match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => e,
        };
        if Instant::now() >= deadline {
            return Err(DistError::Spawn(format!(
                "could not reach coordinator at {addr}: {err}"
            )));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// The active campaign a connection is serving: the artifact hashes the
/// last [`Msg::ArtifactDelta`] named. All device state lives in the
/// [`ArtifactCache`]; a session is just the key set selecting it.
#[derive(Default)]
struct Session {
    /// Plan artifact hash (0 until the first delta).
    plan: u64,
    /// Weight-image artifact hash.
    weights: u64,
    /// Evaluation-set artifact hash.
    eval: u64,
    /// Golden-cache artifact hash, 0 when the campaign has none.
    golden: u64,
    /// Heartbeat wave: images computed between [`Msg::Pong`] heartbeats of
    /// a long shard (one full pass of the local pool).
    wave: usize,
}

/// Serves one coordinator session on `stream` with a **fresh** artifact
/// cache — the single-campaign entry point embedders and tests drive. See
/// [`serve_with_cache`] for the full protocol.
///
/// # Errors
///
/// As [`serve_with_cache`].
pub fn serve<S: Read + Write>(stream: &mut S) -> Result<ServeEnd, DistError> {
    serve_with_cache(stream, &mut ArtifactCache::default())
}

/// Serves one coordinator connection on `stream`: hello handshake, a
/// [`Msg::HaveArtifacts`] advertisement of `cache`'s content hashes, then
/// [`Msg::ArtifactDelta`] activations and [`Msg::Work`] frames until
/// shutdown. Deterministic failures (device errors, protocol violations)
/// are reported back as [`Msg::WorkerErr`] before the error is returned,
/// so the coordinator can distinguish them from a worker death.
///
/// During a shard the worker emits an **unsolicited [`Msg::Pong`]
/// heartbeat** after each compute wave (`local_devices × shard
/// granularity` images), so a coordinator `task_timeout` distinguishes a
/// stalled worker (silence) from a slow one (heartbeats keep arriving).
/// The shard itself is computed in those same waves; per-image inference
/// is independent and each wave is bit-identical to the corresponding
/// slice of a whole-shard run, so chunking never changes a prediction.
///
/// # Errors
///
/// [`DistError::Wire`] on a version mismatch or malformed frame,
/// [`DistError::Io`] when the coordinator goes away, [`DistError::Platform`]
/// on device errors.
pub fn serve_with_cache<S: Read + Write>(
    stream: &mut S,
    cache: &mut ArtifactCache,
) -> Result<ServeEnd, DistError> {
    wire::client_hello(stream)?;
    wire::send(
        stream,
        &Msg::HaveArtifacts {
            ident: worker_ident(),
            hashes: cache.advertise(),
        },
    )
    .map_err(DistError::Io)?;
    let exit_after: Option<u64> = std::env::var(ENV_EXIT_AFTER)
        .ok()
        .and_then(|v| v.parse().ok());
    let corrupt_after: Option<u64> = std::env::var(ENV_CORRUPT_AFTER)
        .ok()
        .and_then(|v| v.parse().ok());
    let mut served = 0u64;
    let mut session = Session::default();
    loop {
        match wire::recv(stream)? {
            Msg::Shutdown => return Ok(ServeEnd::Shutdown),
            Msg::Goodbye { reason } => return Ok(ServeEnd::Goodbye(reason)),
            Msg::Ping => {
                wire::send(stream, &Msg::Pong).map_err(DistError::Io)?;
            }
            Msg::ArtifactDelta {
                plan,
                weights,
                eval,
                golden,
                ship,
            } => {
                if let Err(e) = apply_delta(
                    cache,
                    &mut session,
                    stream,
                    plan,
                    weights,
                    eval,
                    golden,
                    ship,
                ) {
                    return report_and_fail(stream, e);
                }
            }
            Msg::Work { .. } if exit_after == Some(served) => {
                // Deliberate mid-shard death (test hook): the shard was
                // accepted but never answered, so the coordinator must
                // requeue it.
                std::process::exit(EXIT_AFTER_CODE);
            }
            Msg::Work {
                work_id,
                start,
                end,
                fault,
                window,
            } => {
                let corrupt = corrupt_after.is_some_and(|n| served >= n);
                match run_shard(
                    cache, &session, stream, work_id, start, end, fault, window, corrupt,
                ) {
                    Ok(reply) => {
                        wire::send(stream, &reply).map_err(DistError::Io)?;
                        served += 1;
                    }
                    Err(e) => return report_and_fail(stream, e),
                }
            }
            // Bare artifact frames only travel inside a delta in v3.
            Msg::Plan { .. } | Msg::Weights { .. } | Msg::EvalSet { .. } | Msg::Golden { .. } => {
                return report_and_fail(
                    stream,
                    DistError::Protocol("artifact frame outside a delta"),
                )
            }
            Msg::WorkerErr { message } => return Err(DistError::Worker(message)),
            Msg::Hello { .. }
            | Msg::ShardDone { .. }
            | Msg::Pong
            | Msg::HaveArtifacts { .. }
            | Msg::StatsQuery
            | Msg::Stats { .. } => {
                return report_and_fail(
                    stream,
                    DistError::Protocol("unexpected message for a worker"),
                )
            }
        }
    }
}

/// Reports a deterministic failure to the coordinator, then returns it.
fn report_and_fail<S: Read + Write>(stream: &mut S, e: DistError) -> Result<ServeEnd, DistError> {
    let _ = wire::send(
        stream,
        &Msg::WorkerErr {
            message: e.to_string(),
        },
    );
    Err(e)
}

/// Applies one [`Msg::ArtifactDelta`]: receives the shipped artifact
/// frames (in plan, weights, eval-set, golden order), verifies every
/// referenced hash is now cached, and activates the session — reusing the
/// already-programmed device pool when the `(plan, weights)` pair is
/// unchanged, rebuilding it otherwise.
#[allow(clippy::too_many_arguments)]
fn apply_delta<S: Read + Write>(
    cache: &mut ArtifactCache,
    session: &mut Session,
    stream: &mut S,
    plan: u64,
    weights: u64,
    eval: u64,
    golden: u64,
    ship: u8,
) -> Result<(), DistError> {
    for bit in 0..4u8 {
        if ship & (1 << bit) == 0 {
            continue;
        }
        match (bit, wire::recv(stream)?) {
            (
                0,
                Msg::Plan {
                    config,
                    local_devices,
                    words,
                },
            ) => cache_put(&mut cache.plans, plan, (config, local_devices, words)),
            (1, Msg::Weights { regions }) => cache_put(&mut cache.weights, weights, regions),
            (2, Msg::EvalSet { n, c, h, w, data }) => {
                let shape = Shape4::new(n as usize, c as usize, h as usize, w as usize);
                cache_put(
                    &mut cache.evals,
                    eval,
                    QuantizedEvalSet::from_tensor(Tensor::from_vec(shape, data)),
                );
            }
            (
                3,
                Msg::Golden {
                    boundary,
                    surfaces,
                    data,
                    cached_images,
                },
            ) => {
                let g = GoldenActivationCache::from_parts(
                    boundary as usize,
                    surfaces,
                    data,
                    cached_images as usize,
                )
                .ok_or(DistError::Protocol("inconsistent golden cache frame"))?;
                cache_put(&mut cache.goldens, golden, g);
            }
            _ => return Err(DistError::Protocol("unexpected frame inside a delta")),
        }
    }
    let (config, local_devices, words) = cache_get(&cache.plans, plan)
        .ok_or(DistError::Protocol("delta references an uncached plan"))?;
    let regions = cache_get(&cache.weights, weights).ok_or(DistError::Protocol(
        "delta references an uncached weight image",
    ))?;
    if cache_get(&cache.evals, eval).is_none() {
        return Err(DistError::Protocol("delta references an uncached eval set"));
    }
    if golden != 0 && cache_get(&cache.goldens, golden).is_none() {
        return Err(DistError::Protocol(
            "delta references an uncached golden cache",
        ));
    }
    let platform_config: nvfi::PlatformConfig = (*config).into();
    let local_devices = (*local_devices as usize).max(1);
    // The same programmed device is reused as is: every shard clears and
    // re-arms it (`DevicePool::run_item`).
    if !matches!(&cache.built, Some((key, _)) if *key == (plan, weights)) {
        let device = device_from_artifacts(platform_config, words, regions)?;
        cache.built = Some((
            (plan, weights),
            DevicePool::from_device(device, local_devices),
        ));
    }
    session.plan = plan;
    session.weights = weights;
    session.eval = eval;
    session.golden = golden;
    session.wave = local_devices * DevicePool::granularity(&platform_config);
    Ok(())
}

/// Programs a device from shipped artifacts: decodes the plan words,
/// checks the plan's shape chain, loads the plan, imports the DRAM weight
/// image. Shared by a worker's session activation and the server's audit
/// arbiter, so both run on exactly the device an honest worker would build.
///
/// Words that decode can still describe a plan whose op reads a surface
/// nothing writes; such a plan is rejected here with
/// [`nvfi::PlatformError::Verify`] rather than failing at run time.
pub(crate) fn device_from_artifacts(
    config: nvfi::PlatformConfig,
    words: &[u32],
    regions: &[(u64, Vec<i8>)],
) -> Result<EmulationPlatform, DistError> {
    let decoded = nvfi_compiler::plan::decode_words(words)
        .map_err(|_| DistError::Protocol("plan words do not decode"))?;
    let diags = nvfi_compiler::verify::verify_shapes(&decoded);
    if !diags.is_empty() {
        let msg = diags.iter().map(ToString::to_string).collect::<Vec<_>>();
        return Err(DistError::Platform(nvfi::PlatformError::Verify(format!(
            "shipped plan fails shape verification: {}",
            msg.join("; ")
        ))));
    }
    let mut device = EmulationPlatform::from_plan(decoded, config)?;
    device
        .accel_mut()
        .import_weight_image(regions)
        .map_err(|e| DistError::Platform(e.into()))?;
    Ok(device)
}

/// Computes one shard in heartbeat waves (see [`serve_with_cache`]), each
/// wave one [`DevicePool::run_item`] over its image sub-range, returning the
/// [`Msg::ShardDone`] reply. Windowed shards restore each image's golden
/// prefix from the session's shipped [`GoldenActivationCache`] when one
/// exists — bit-identical to the recompute path, just cheaper.
///
/// The reply is **attested**: [`wire::shard_attestation`] over the artifact
/// hashes of the session this shard actually ran under, the shard key, and
/// the predictions. With `corrupt` set (the [`ENV_CORRUPT_AFTER`] byzantine
/// hook) the predictions are flipped *before* the attestation is computed —
/// a self-consistent lie only the coordinator's audit re-execution can
/// catch.
#[allow(clippy::too_many_arguments)]
fn run_shard<S: Read + Write>(
    cache: &mut ArtifactCache,
    session: &Session,
    stream: &mut S,
    work_id: u32,
    start: u32,
    end: u32,
    fault: Option<WireFault>,
    window: Option<std::ops::Range<u64>>,
    corrupt: bool,
) -> Result<Msg, DistError> {
    let (pool, qset, golden) = cache.parts(session)?;
    let (start, end) = (start as usize, end as usize);
    if end > qset.len() {
        return Err(DistError::Protocol("shard range outside the eval set"));
    }
    let fault = fault.map(|f| FaultConfig::new(f.targets(), f.kind));
    let wave = session.wave.max(1);
    let mut preds = Vec::with_capacity(end - start);
    let mut at = start;
    // Measure each compute wave; the shard reply piggybacks the timings as
    // a compact, shard-relative span summary (advisory, never attested).
    let shard_t0 = std::time::Instant::now();
    let mut spans = Vec::new();
    while at < end {
        let stop = (at + wave).min(end);
        let wave_off = shard_t0.elapsed().as_micros() as u64;
        preds.extend(pool.run_item(fault.as_ref(), window.clone(), qset, at..stop, golden)?);
        if spans.len() + 1 < wire::MAX_SHARD_SPANS {
            spans.push(WireSpan {
                name: "worker.wave".into(),
                start_us: wave_off,
                dur_us: (shard_t0.elapsed().as_micros() as u64).saturating_sub(wave_off),
            });
        }
        at = stop;
        if at < end {
            // Heartbeat between waves: proof of life, not completion. The
            // coordinator's reply loop absorbs any number of these.
            wire::send(stream, &Msg::Pong).map_err(DistError::Io)?;
        }
    }
    spans.push(WireSpan {
        name: "worker.execute".into(),
        start_us: 0,
        dur_us: shard_t0.elapsed().as_micros() as u64,
    });
    if corrupt {
        // Byzantine hook: flip every prediction's low bit, keeping the
        // reply well-formed and (below) self-consistently attested.
        for p in &mut preds {
            *p ^= 1;
        }
    }
    let attest = wire::shard_attestation(
        (session.plan, session.weights, session.eval, session.golden),
        work_id,
        start as u32,
        end as u32,
        &preds,
    );
    Ok(Msg::ShardDone {
        work_id,
        start: start as u32,
        end: end as u32,
        attest,
        preds,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfi_compiler::plan::{encode_words, PlanOp};
    use nvfi_dataset::{SynthCifar, SynthCifarConfig};
    use nvfi_nn::fold::fold_resnet;
    use nvfi_nn::resnet::ResNet;
    use nvfi_quant::{quantize, QuantConfig};

    /// Plan words that decode but whose second op reads a surface nothing
    /// writes must be refused before a device is built.
    #[test]
    fn device_from_artifacts_rejects_a_plan_reading_an_unwritten_surface() {
        let data = SynthCifar::new(SynthCifarConfig {
            train: 8,
            test: 2,
            ..Default::default()
        })
        .generate();
        let net = ResNet::new(4, &[1, 1], 10, 5);
        let q = quantize(
            &fold_resnet(&net, 32),
            &data.train.images,
            &QuantConfig::default(),
        )
        .unwrap();
        let config = nvfi::PlatformConfig::default();
        let mut plan = nvfi_compiler::compile(&q, config.accel.dram_capacity).unwrap();
        let regions = plan.weight_image.clone();
        assert!(device_from_artifacts(config, &encode_words(&plan), &regions).is_ok());

        let unwritten = plan.dram_size.next_multiple_of(64);
        match &mut plan.ops[1] {
            PlanOp::Conv(c) => c.input_addr = unwritten,
            PlanOp::Pool(p) => p.input_addr = unwritten,
            PlanOp::Linear(l) => l.input_addr = unwritten,
        }
        let words = encode_words(&plan);
        assert!(nvfi_compiler::plan::decode_words(&words).is_ok());
        assert!(matches!(
            device_from_artifacts(config, &words, &regions),
            Err(DistError::Platform(nvfi::PlatformError::Verify(_)))
        ));
    }
}
