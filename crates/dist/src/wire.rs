//! The versioned, length-prefixed binary wire format of the campaign
//! fabric: frame I/O, the [`Msg`] message set, and the hello handshake.
//!
//! See the crate-level docs for the frame layout, the session lifecycle and
//! the versioning rule. Everything here is transport-agnostic: frames move
//! over any `io::Read`/`io::Write` pair (`TcpStream` in practice, in-memory
//! buffers in tests).

use std::io::{self, Read, Write};
use std::ops::Range;
use std::sync::OnceLock;

use nvfi::PlatformConfig;
use nvfi_accel::{AccelConfig, ExecMode, FaultKind, IdleLanePolicy};
use nvfi_compiler::regmap::{MultId, TOTAL_MULTS};
use nvfi_obs::metrics::{self, Counter};

use crate::codec::{Dec, Enc, WireError};
use crate::coordinator::DistError;

/// Wire protocol version. **Bump on any change** to the frame layout, a
/// message body, or an enum encoding — the `Hello` exchange rejects a
/// mismatch on both sides.
///
/// v2: every frame carries a trailing CRC32 over its payload, and the
/// message set gains [`Msg::Ping`]/[`Msg::Pong`] liveness heartbeats and
/// the [`Msg::Goodbye`] clean rejection. A v1 endpoint fails its very
/// first v2 frame with a named [`WireError::Crc`]/framing error instead of
/// mis-decoding traffic — frame-layout changes are exactly what the
/// version bump is for.
///
/// v3: sessions are content-addressed. A worker follows its `Hello` with
/// [`Msg::HaveArtifacts`] advertising the content hashes it still holds
/// from earlier campaigns; the coordinator activates a session with
/// [`Msg::ArtifactDelta`] naming the artifact hashes the next work runs
/// under and ships only the frames the worker is missing. The artifact set
/// gains [`Msg::Golden`], the windowed-campaign golden activation cache.
/// Bare `Plan`/`Weights`/`EvalSet` frames outside a delta are a protocol
/// error in v3.
///
/// v4: results are attested and workers are identified.
/// [`Msg::ShardDone`] carries a domain-tagged FNV-1a attestation
/// ([`shard_attestation`]) folding the session's artifact content hashes,
/// the shard key and the predictions themselves — a worker that executed
/// against a stale cached plan or weight image, or whose reply was
/// corrupted *after* the CRC trailer was sealed, becomes a named
/// [`WireError::Integrity`] instead of a silently merged wrong result.
/// [`Msg::HaveArtifacts`] gains a per-process worker identity, stable
/// across reconnects, which keys the coordinator's audit/quarantine
/// reputation book (see `crates/dist/src/trust.rs`).
///
/// v5: observability. [`Msg::ShardDone`] carries a compact span summary
/// ([`WireSpan`] list: worker-side execute/wave timings as shard-relative
/// microsecond offsets) so the coordinator can re-base worker phases onto
/// its own timeline. The summaries are **advisory**: they are deliberately
/// excluded from [`shard_attestation`], so a byzantine worker can at worst
/// lie about its own timing, never smuggle a wrong result past the audit.
/// The message set gains [`Msg::StatsQuery`]/[`Msg::Stats`], a one-shot
/// Prometheus text-exposition poll any peer can issue to a campaign
/// server after the hello exchange.
pub const WIRE_VERSION: u32 = 5;

/// `Hello` magic: the bytes `NVFI`, read as a little-endian u32.
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"NVFI");

/// Upper bound on one frame's payload (1 GiB): large enough for any DRAM
/// weight image or evaluation set in this repository, small enough that a
/// corrupt length prefix cannot make the receiver allocate absurd buffers.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Upper bound on a [`Msg::Plan`]'s `dram_capacity` (4 GiB). The modelled
/// DRAM is sparse, but its backing grows to the highest byte written, so an
/// unbounded capacity would let one far weight-region write make the worker
/// allocate absurd memory. The repository's default is 256 MiB.
pub const MAX_WIRE_DRAM_CAPACITY: u64 = 4 << 30;

// Message tags. Coordinator -> worker in the 0x0* range, worker ->
// coordinator in the 0x1* range (the split is documentation, not mechanism:
// both sides decode the full set).
const TAG_HELLO: u8 = 0x01;
const TAG_PLAN: u8 = 0x02;
const TAG_WEIGHTS: u8 = 0x03;
const TAG_EVAL_SET: u8 = 0x04;
const TAG_WORK: u8 = 0x05;
const TAG_SHUTDOWN: u8 = 0x06;
const TAG_PING: u8 = 0x07;
const TAG_GOODBYE: u8 = 0x08;
const TAG_DELTA: u8 = 0x09;
const TAG_GOLDEN: u8 = 0x0A;
const TAG_STATS_QUERY: u8 = 0x0B;
pub(crate) const TAG_SHARD_DONE: u8 = 0x11;
const TAG_WORKER_ERR: u8 = 0x12;
const TAG_PONG: u8 = 0x13;
const TAG_HAVE: u8 = 0x14;
const TAG_STATS: u8 = 0x15;

// Serialize-once probes (in the spirit of
// `nvfi_quant::batch::quantization_passes`), backed by the `nvfi_obs`
// metrics registry: a campaign must encode its plan, weight image and
// evaluation set exactly once, however many workers the bytes are replayed
// to and however many work items follow.
fn plan_ser_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| metrics::counter("wire_plan_serializations"))
}

fn weight_ser_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| metrics::counter("wire_weight_serializations"))
}

fn eval_ser_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| metrics::counter("wire_eval_serializations"))
}

fn artifact_bytes_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| metrics::counter("artifact_bytes_shipped"))
}

/// Process-wide count of [`Msg::Plan`] encodes (test probe).
#[must_use]
pub fn plan_serializations() -> u64 {
    plan_ser_counter().get()
}

/// Process-wide count of [`Msg::Weights`] encodes (test probe).
#[must_use]
pub fn weight_serializations() -> u64 {
    weight_ser_counter().get()
}

/// Process-wide count of [`Msg::EvalSet`] encodes (test probe).
#[must_use]
pub fn eval_serializations() -> u64 {
    eval_ser_counter().get()
}

/// Process-wide count of artifact payload bytes *actually shipped* to
/// workers (test probe). The campaign server bumps this only for artifact
/// frames a worker did not already hold — a warm session that re-ships
/// nothing leaves it untouched, which is exactly what the session-cache
/// tests assert.
#[must_use]
pub fn artifact_bytes_shipped() -> u64 {
    artifact_bytes_counter().get()
}

/// Credits `n` bytes to the [`artifact_bytes_shipped`] probe.
pub(crate) fn count_artifact_bytes(n: u64) {
    artifact_bytes_counter().add(n);
}

/// Upper bound on [`Msg::ShardDone`] span-summary entries. Workers cap
/// what they ship; the decoder rejects anything larger, so a byzantine
/// summary cannot bloat the coordinator's ring.
pub const MAX_SHARD_SPANS: usize = 64;

/// One worker-side span as shipped in a [`Msg::ShardDone`] summary:
/// timings are microsecond offsets **relative to the worker's shard
/// start**, so the coordinator can re-base them onto its own timeline at
/// the dispatch timestamp. Advisory only — excluded from
/// [`shard_attestation`] by design (see the v5 note on [`WIRE_VERSION`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSpan {
    /// Span name (e.g. `worker.execute`, `worker.wave`).
    pub name: String,
    /// Start offset from the worker's shard start, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

/// The platform configuration as it travels on the wire — what a worker
/// needs to clone the coordinator's device exactly (fast/exact execution
/// mode included: an `ExecMode::Exact` campaign must stay exact remotely).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireConfig {
    /// Functional execution mode (`ExecMode` as a tag byte).
    pub mode: ExecMode,
    /// Idle-lane policy (`IdleLanePolicy` as a tag byte).
    pub idle_lanes: IdleLanePolicy,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Emulated DRAM capacity in bytes.
    pub dram_capacity: u64,
    /// Fast-path mini-batch.
    pub batch: u64,
    /// Device-pool shard granularity in images.
    pub shard_images: u64,
}

impl From<PlatformConfig> for WireConfig {
    fn from(c: PlatformConfig) -> Self {
        WireConfig {
            mode: c.accel.mode,
            idle_lanes: c.accel.idle_lanes,
            clock_hz: c.accel.clock_hz,
            dram_capacity: c.accel.dram_capacity,
            batch: c.accel.batch as u64,
            shard_images: c.shard_images as u64,
        }
    }
}

impl From<WireConfig> for PlatformConfig {
    fn from(w: WireConfig) -> Self {
        PlatformConfig {
            accel: AccelConfig {
                mode: w.mode,
                idle_lanes: w.idle_lanes,
                clock_hz: w.clock_hz,
                dram_capacity: w.dram_capacity,
                batch: w.batch as usize,
            },
            shard_images: w.shard_images as usize,
        }
    }
}

/// A fault program as it travels on the wire: target multipliers as flat
/// lane indices plus the fault kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireFault {
    /// Flat lane indices (`MultId::lane`, each `< 64`).
    pub lanes: Vec<u8>,
    /// The fault model.
    pub kind: FaultKind,
}

impl WireFault {
    /// Encodes a target list + kind.
    #[must_use]
    pub fn from_targets(targets: &[MultId], kind: FaultKind) -> Self {
        WireFault {
            lanes: targets.iter().map(|t| t.lane() as u8).collect(),
            kind,
        }
    }

    /// The target list this fault programs.
    #[must_use]
    pub fn targets(&self) -> Vec<MultId> {
        self.lanes
            .iter()
            .map(|&l| MultId::from_lane(l as usize))
            .collect()
    }
}

/// One wire message (see the crate docs for the session lifecycle).
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Version handshake; the first frame in both directions.
    Hello {
        /// The sender's [`WIRE_VERSION`].
        version: u32,
    },
    /// The compiled plan (command-stream words of
    /// [`nvfi_compiler::plan::encode_words`], weights excluded), the
    /// platform configuration, and the worker's local device-pool size.
    /// Sent once per session.
    Plan {
        /// Device/platform configuration the worker must clone.
        config: WireConfig,
        /// Devices of the worker's local [`nvfi::DevicePool`].
        local_devices: u32,
        /// Plan descriptor words.
        words: Vec<u32>,
    },
    /// The DRAM weight image (`(addr, bytes)` regions of
    /// [`nvfi_accel::Accelerator::export_weight_image`]). Sent once per
    /// session, after [`Msg::Plan`].
    Weights {
        /// Weight regions to DMA into worker DRAM.
        regions: Vec<(u64, Vec<i8>)>,
    },
    /// The quantized evaluation set (contiguous NCHW i8 pixels). Sent once
    /// per session, after [`Msg::Weights`].
    EvalSet {
        /// Images in the set.
        n: u32,
        /// Channels per image.
        c: u32,
        /// Image height.
        h: u32,
        /// Image width.
        w: u32,
        /// `n * c * h * w` quantized pixels.
        data: Vec<i8>,
    },
    /// One assigned shard: run images `start..end` of the evaluation set
    /// under `fault` (and `window`), reply with [`Msg::ShardDone`].
    Work {
        /// Work-item index (0 = the fault-free baseline).
        work_id: u32,
        /// First image of the shard.
        start: u32,
        /// One past the last image of the shard.
        end: u32,
        /// The fault program, or `None` for the baseline.
        fault: Option<WireFault>,
        /// Transient fault window in per-inference MAC cycles.
        window: Option<Range<u64>>,
    },
    /// Session over; the worker exits cleanly.
    Shutdown,
    /// Liveness probe. The coordinator pings idle workers between tasks; a
    /// worker replies [`Msg::Pong`].
    Ping,
    /// Liveness reply/heartbeat. Sent in answer to [`Msg::Ping`], and
    /// **unsolicited** by a worker between compute waves of a long shard —
    /// so a `task_timeout` distinguishes a *stalled* worker (silence) from
    /// a *slow* one (heartbeats keep arriving).
    Pong,
    /// Clean rejection of a connected peer (campaign already complete,
    /// re-admission cap reached). The worker stops reconnecting instead of
    /// being left in TCP limbo.
    Goodbye {
        /// Why the peer was turned away.
        reason: String,
    },
    /// A completed shard's predictions, one class byte per image of
    /// `start..end`.
    ShardDone {
        /// Echoed work-item index.
        work_id: u32,
        /// Echoed shard start.
        start: u32,
        /// Echoed shard end.
        end: u32,
        /// Result attestation: [`shard_attestation`] over the artifact
        /// hashes of the session the worker **actually executed against**,
        /// the shard key, and `preds`. The coordinator recomputes it from
        /// the session it *assigned*; a mismatch is a named
        /// [`WireError::Integrity`], never a merged result.
        attest: u64,
        /// Predicted classes in image order.
        preds: Vec<u8>,
        /// Compact worker-side span summary (≤ [`MAX_SHARD_SPANS`]
        /// entries, shard-relative timings). Advisory; not attested. (v5)
        spans: Vec<WireSpan>,
    },
    /// A worker-side failure (device error, protocol violation). Fatal for
    /// the campaign: unlike a worker *death*, a reported error is
    /// deterministic and would reproduce on any other worker.
    WorkerErr {
        /// Human-readable description.
        message: String,
    },
    /// Content hashes of artifacts the worker still holds from earlier
    /// sessions. Sent once per connection, immediately after the hello
    /// exchange, so the coordinator can ship only deltas. An empty list is
    /// a cold worker.
    HaveArtifacts {
        /// The worker's per-process identity: random, nonzero, and stable
        /// across reconnects of the same process, so the coordinator's
        /// audit/quarantine reputation survives re-admission. (v4)
        ident: u64,
        /// Cached artifact content hashes (plan/weights/eval/golden alike;
        /// hashes are domain-tagged so the kinds cannot collide).
        hashes: Vec<u64>,
    },
    /// Session activation: the artifact hashes all subsequent [`Msg::Work`]
    /// runs under, plus which of them are shipped as frames **immediately
    /// following this message** (in plan, weights, eval-set, golden order).
    /// Artifacts not shipped must already be in the worker's cache.
    ArtifactDelta {
        /// Content hash of the plan artifact (config + local devices +
        /// plan words). Never zero.
        plan: u64,
        /// Content hash of the DRAM weight image. Never zero.
        weights: u64,
        /// Content hash of the quantized evaluation set. Never zero.
        eval: u64,
        /// Content hash of the golden activation cache, or 0 when the
        /// session has none (no fault window).
        golden: u64,
        /// Bitmask of artifacts shipped right after this frame: bit 0 =
        /// plan, bit 1 = weights, bit 2 = eval set, bit 3 = golden.
        ship: u8,
    },
    /// One-shot observability poll: ask a campaign server for its current
    /// metrics. Sent by a monitoring peer right after the hello exchange
    /// in place of [`Msg::HaveArtifacts`]; the server answers with
    /// [`Msg::Stats`] and drops the connection. (v5)
    StatsQuery,
    /// The server's metrics snapshot in Prometheus text exposition
    /// (`ServerStats::render_prometheus`). (v5)
    Stats {
        /// Prometheus text exposition.
        text: String,
    },
    /// The golden activation cache for windowed campaigns: clean boundary
    /// activations per image, so a worker replays only the suffix of the
    /// network behind the fault window (the remote analogue of
    /// [`nvfi::GoldenActivationCache`]).
    Golden {
        /// Plan step index of the cached boundary.
        boundary: u64,
        /// `(addr, bytes)` DRAM surfaces that make up one image's boundary
        /// activations.
        surfaces: Vec<(u64, u64)>,
        /// Concatenated per-image surface bytes, `cached_images` strides.
        data: Vec<i8>,
        /// Images cached (a prefix of the evaluation set).
        cached_images: u64,
    },
}

impl Msg {
    /// Encodes the message into one frame payload (tag byte + body).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Msg::Hello { version } => {
                e.u8(TAG_HELLO);
                e.u32(WIRE_MAGIC);
                e.u32(*version);
            }
            Msg::Plan {
                config,
                local_devices,
                words,
            } => {
                plan_ser_counter().inc();
                e.u8(TAG_PLAN);
                e.u8(mode_tag(config.mode));
                e.u8(idle_tag(config.idle_lanes));
                e.f64(config.clock_hz);
                e.u64(config.dram_capacity);
                e.u64(config.batch);
                e.u64(config.shard_images);
                e.u32(*local_devices);
                e.u32_slice(words);
            }
            Msg::Weights { regions } => {
                weight_ser_counter().inc();
                e.u8(TAG_WEIGHTS);
                e.u64(regions.len() as u64);
                for (addr, bytes) in regions {
                    e.u64(*addr);
                    e.i8_slice(bytes);
                }
            }
            Msg::EvalSet { n, c, h, w, data } => {
                return encode_eval_set(*n, *c, *h, *w, data);
            }
            Msg::Work {
                work_id,
                start,
                end,
                fault,
                window,
            } => {
                e.u8(TAG_WORK);
                e.u32(*work_id);
                e.u32(*start);
                e.u32(*end);
                match fault {
                    None => e.u8(0),
                    Some(f) => {
                        e.u8(1);
                        e.u64(f.lanes.len() as u64);
                        for &l in &f.lanes {
                            e.u8(l);
                        }
                        encode_kind(&mut e, f.kind);
                    }
                }
                match window {
                    None => e.u8(0),
                    Some(w) => {
                        e.u8(1);
                        e.u64(w.start);
                        e.u64(w.end);
                    }
                }
            }
            Msg::Shutdown => e.u8(TAG_SHUTDOWN),
            Msg::Ping => e.u8(TAG_PING),
            Msg::Pong => e.u8(TAG_PONG),
            Msg::StatsQuery => e.u8(TAG_STATS_QUERY),
            Msg::Stats { text } => {
                e.u8(TAG_STATS);
                e.str(text);
            }
            Msg::Goodbye { reason } => {
                e.u8(TAG_GOODBYE);
                e.str(reason);
            }
            Msg::ShardDone {
                work_id,
                start,
                end,
                attest,
                preds,
                spans,
            } => {
                e.u8(TAG_SHARD_DONE);
                e.u32(*work_id);
                e.u32(*start);
                e.u32(*end);
                e.u64(*attest);
                e.u8_slice(preds);
                e.u64(spans.len() as u64);
                for s in spans {
                    e.str(&s.name);
                    e.u64(s.start_us);
                    e.u64(s.dur_us);
                }
            }
            Msg::WorkerErr { message } => {
                e.u8(TAG_WORKER_ERR);
                e.str(message);
            }
            Msg::HaveArtifacts { ident, hashes } => {
                e.u8(TAG_HAVE);
                e.u64(*ident);
                e.u64_slice(hashes);
            }
            Msg::ArtifactDelta {
                plan,
                weights,
                eval,
                golden,
                ship,
            } => {
                e.u8(TAG_DELTA);
                e.u64(*plan);
                e.u64(*weights);
                e.u64(*eval);
                e.u64(*golden);
                e.u8(*ship);
            }
            Msg::Golden {
                boundary,
                surfaces,
                data,
                cached_images,
            } => {
                e.u8(TAG_GOLDEN);
                e.u64(*boundary);
                e.u64(surfaces.len() as u64);
                for &(addr, bytes) in surfaces {
                    e.u64(addr);
                    e.u64(bytes);
                }
                e.i8_slice(data);
                e.u64(*cached_images);
            }
        }
        e.into_vec()
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncated, oversized-length, unknown-tag or
    /// trailing-byte payloads — never panics on wire input.
    pub fn decode(payload: Vec<u8>) -> Result<Msg, WireError> {
        let mut d = Dec::new(payload);
        let tag = d.u8("message tag")?;
        let msg = match tag {
            TAG_HELLO => {
                let magic = d.u32("hello magic")?;
                if magic != WIRE_MAGIC {
                    return Err(WireError::BadMagic(magic));
                }
                Msg::Hello {
                    version: d.u32("hello version")?,
                }
            }
            TAG_PLAN => {
                let mode = mode_from_tag(d.u8("exec mode")?)?;
                let idle_lanes = idle_from_tag(d.u8("idle-lane policy")?)?;
                let clock_hz = d.f64("clock")?;
                if !(clock_hz.is_finite() && clock_hz > 0.0) {
                    return Err(WireError::Invalid("clock frequency"));
                }
                let dram_capacity = d.u64("dram capacity")?;
                if dram_capacity > MAX_WIRE_DRAM_CAPACITY {
                    return Err(WireError::Invalid("dram capacity"));
                }
                let batch = d.u64("mini-batch")?;
                let shard_images = d.u64("shard granularity")?;
                let local_devices = d.u32("local devices")?;
                if local_devices == 0 {
                    return Err(WireError::Invalid("zero local devices"));
                }
                let words = d.u32_slice("plan words")?;
                Msg::Plan {
                    config: WireConfig {
                        mode,
                        idle_lanes,
                        clock_hz,
                        dram_capacity,
                        batch,
                        shard_images,
                    },
                    local_devices,
                    words,
                }
            }
            TAG_WEIGHTS => {
                let count = d.u64("weight region count")?;
                // Each region is at least the 16 bytes of (addr, len).
                if count.saturating_mul(16) > d.remaining() as u64 {
                    return Err(WireError::BadLength {
                        what: "weight regions",
                        claimed: count.saturating_mul(16),
                        remaining: d.remaining(),
                    });
                }
                let mut regions = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let addr = d.u64("weight region addr")?;
                    regions.push((addr, d.i8_slice("weight region bytes")?));
                }
                Msg::Weights { regions }
            }
            TAG_EVAL_SET => {
                let n = d.u32("eval n")?;
                let c = d.u32("eval c")?;
                let h = d.u32("eval h")?;
                let w = d.u32("eval w")?;
                let data = d.i8_slice("eval pixels")?;
                // u128: four u32 extremes overflow u64, and a wrapped
                // product must not admit a shape/data mismatch.
                let pixels = u128::from(n) * u128::from(c) * u128::from(h) * u128::from(w);
                if pixels != data.len() as u128 {
                    return Err(WireError::Invalid("eval shape/pixel mismatch"));
                }
                Msg::EvalSet { n, c, h, w, data }
            }
            TAG_WORK => {
                let work_id = d.u32("work id")?;
                let start = d.u32("shard start")?;
                let end = d.u32("shard end")?;
                if start > end {
                    return Err(WireError::Invalid("inverted shard range"));
                }
                let fault = match d.u8("fault flag")? {
                    0 => None,
                    1 => {
                        let count = d.u64("target count")?;
                        if count > TOTAL_MULTS as u64 {
                            return Err(WireError::Invalid("more targets than lanes"));
                        }
                        let mut lanes = Vec::with_capacity(count as usize);
                        for _ in 0..count {
                            let l = d.u8("target lane")?;
                            if l as usize >= TOTAL_MULTS {
                                return Err(WireError::Invalid("target lane out of range"));
                            }
                            lanes.push(l);
                        }
                        Some(WireFault {
                            lanes,
                            kind: decode_kind(&mut d)?,
                        })
                    }
                    t => {
                        return Err(WireError::BadTag {
                            what: "fault flag",
                            tag: u32::from(t),
                        })
                    }
                };
                let window = match d.u8("window flag")? {
                    0 => None,
                    1 => {
                        let ws = d.u64("window start")?;
                        let we = d.u64("window end")?;
                        Some(ws..we)
                    }
                    t => {
                        return Err(WireError::BadTag {
                            what: "window flag",
                            tag: u32::from(t),
                        })
                    }
                };
                Msg::Work {
                    work_id,
                    start,
                    end,
                    fault,
                    window,
                }
            }
            TAG_SHUTDOWN => Msg::Shutdown,
            TAG_PING => Msg::Ping,
            TAG_PONG => Msg::Pong,
            TAG_STATS_QUERY => Msg::StatsQuery,
            TAG_STATS => Msg::Stats {
                text: d.str("stats text")?,
            },
            TAG_GOODBYE => Msg::Goodbye {
                reason: d.str("goodbye reason")?,
            },
            TAG_SHARD_DONE => {
                let work_id = d.u32("done work id")?;
                let start = d.u32("done start")?;
                let end = d.u32("done end")?;
                let attest = d.u64("done attestation")?;
                let preds = d.u8_slice("predictions")?;
                if preds.len() as u64 != u64::from(end.saturating_sub(start)) {
                    return Err(WireError::Invalid("prediction count != shard size"));
                }
                let span_count = d.u64("span summary count")?;
                if span_count > MAX_SHARD_SPANS as u64 {
                    return Err(WireError::Invalid("oversized span summary"));
                }
                let mut spans = Vec::with_capacity(span_count as usize);
                for _ in 0..span_count {
                    let name = d.str("span name")?;
                    let start_us = d.u64("span start")?;
                    let dur_us = d.u64("span duration")?;
                    spans.push(WireSpan {
                        name,
                        start_us,
                        dur_us,
                    });
                }
                Msg::ShardDone {
                    work_id,
                    start,
                    end,
                    attest,
                    preds,
                    spans,
                }
            }
            TAG_WORKER_ERR => Msg::WorkerErr {
                message: d.str("worker error")?,
            },
            TAG_HAVE => {
                let ident = d.u64("worker ident")?;
                if ident == 0 {
                    return Err(WireError::Invalid("zero worker ident"));
                }
                Msg::HaveArtifacts {
                    ident,
                    hashes: d.u64_slice("artifact hashes")?,
                }
            }
            TAG_DELTA => {
                let plan = d.u64("delta plan hash")?;
                let weights = d.u64("delta weights hash")?;
                let eval = d.u64("delta eval hash")?;
                let golden = d.u64("delta golden hash")?;
                let ship = d.u8("delta ship mask")?;
                if plan == 0 || weights == 0 || eval == 0 {
                    return Err(WireError::Invalid("zero artifact hash"));
                }
                if ship & !0x0F != 0 {
                    return Err(WireError::Invalid("unknown delta ship bits"));
                }
                if golden == 0 && ship & 0x08 != 0 {
                    return Err(WireError::Invalid("golden shipped without a hash"));
                }
                Msg::ArtifactDelta {
                    plan,
                    weights,
                    eval,
                    golden,
                    ship,
                }
            }
            TAG_GOLDEN => {
                let boundary = d.u64("golden boundary")?;
                let count = d.u64("golden surface count")?;
                // Each surface is the 16 bytes of (addr, len) on the wire.
                if count.saturating_mul(16) > d.remaining() as u64 {
                    return Err(WireError::BadLength {
                        what: "golden surfaces",
                        claimed: count.saturating_mul(16),
                        remaining: d.remaining(),
                    });
                }
                let mut surfaces = Vec::with_capacity(count as usize);
                let mut stride: u128 = 0;
                for _ in 0..count {
                    let addr = d.u64("golden surface addr")?;
                    let bytes = d.u64("golden surface bytes")?;
                    stride += u128::from(bytes);
                    surfaces.push((addr, bytes));
                }
                let data = d.i8_slice("golden data")?;
                let cached_images = d.u64("golden cached images")?;
                if boundary == 0 || surfaces.is_empty() || stride == 0 || cached_images == 0 {
                    return Err(WireError::Invalid("empty golden cache"));
                }
                // u128: a forged stride * image count must not wrap into a
                // plausible data length.
                if stride * u128::from(cached_images) != data.len() as u128 {
                    return Err(WireError::Invalid("golden stride/data mismatch"));
                }
                Msg::Golden {
                    boundary,
                    surfaces,
                    data,
                    cached_images,
                }
            }
            t => {
                return Err(WireError::BadTag {
                    what: "message",
                    tag: u32::from(t),
                })
            }
        };
        d.finish()?;
        Ok(msg)
    }
}

/// Encodes an [`Msg::EvalSet`] frame payload straight from a **borrowed**
/// pixel slice — the coordinator's path, which must not copy the (large)
/// quantized evaluation set into an owned `Msg` just to serialize it.
/// Decodes as [`Msg::EvalSet`]; counts one [`eval_serializations`] pass.
#[must_use]
pub fn encode_eval_set(n: u32, c: u32, h: u32, w: u32, data: &[i8]) -> Vec<u8> {
    eval_ser_counter().inc();
    let mut e = Enc::new();
    e.u8(TAG_EVAL_SET);
    e.u32(n);
    e.u32(c);
    e.u32(h);
    e.u32(w);
    e.i8_slice(data);
    e.into_vec()
}

/// Domain tag of the shard-result attestation hash (the content-hash
/// domains 1–5 live in `server.rs`; 7 is the audit sampling draw).
const ATTEST_DOMAIN: u8 = 6;

/// The v4 shard-result attestation: a domain-tagged FNV-1a hash folding the
/// session's artifact content hashes (`(plan, weights, eval, golden)` as
/// announced by [`Msg::ArtifactDelta`]), the shard key, and the predicted
/// classes. The worker computes it over the session it **actually executed
/// against**; the coordinator recomputes it over the session it
/// **assigned**. Executing on a stale cached artifact — or any payload
/// corruption introduced after the CRC trailer was sealed — therefore
/// surfaces as a named [`WireError::Integrity`], never a merged result.
#[must_use]
pub fn shard_attestation(
    session: (u64, u64, u64, u64),
    work_id: u32,
    start: u32,
    end: u32,
    preds: &[u8],
) -> u64 {
    let mut h = crate::checkpoint::Fnv64::new();
    h.write(&[ATTEST_DOMAIN]);
    h.write_u64(session.0);
    h.write_u64(session.1);
    h.write_u64(session.2);
    h.write_u64(session.3);
    h.write_u64(u64::from(work_id));
    h.write_u64(u64::from(start));
    h.write_u64(u64::from(end));
    h.write(preds);
    h.finish()
}

pub(crate) fn mode_tag(m: ExecMode) -> u8 {
    match m {
        ExecMode::Exact => 0,
        ExecMode::Fast => 1,
        ExecMode::Auto => 2,
    }
}

fn mode_from_tag(t: u8) -> Result<ExecMode, WireError> {
    match t {
        0 => Ok(ExecMode::Exact),
        1 => Ok(ExecMode::Fast),
        2 => Ok(ExecMode::Auto),
        t => Err(WireError::BadTag {
            what: "exec mode",
            tag: u32::from(t),
        }),
    }
}

pub(crate) fn idle_tag(p: IdleLanePolicy) -> u8 {
    match p {
        IdleLanePolicy::ZeroFed => 0,
        IdleLanePolicy::Gated => 1,
    }
}

fn idle_from_tag(t: u8) -> Result<IdleLanePolicy, WireError> {
    match t {
        0 => Ok(IdleLanePolicy::ZeroFed),
        1 => Ok(IdleLanePolicy::Gated),
        t => Err(WireError::BadTag {
            what: "idle-lane policy",
            tag: u32::from(t),
        }),
    }
}

fn encode_kind(e: &mut Enc, kind: FaultKind) {
    match kind {
        FaultKind::StuckAtZero => e.u8(0),
        FaultKind::Constant(v) => {
            e.u8(1);
            e.i32(v);
        }
        FaultKind::StuckBits { fsel, fdata } => {
            e.u8(2);
            e.u32(fsel);
            e.u32(fdata);
        }
        FaultKind::FlipBits { mask } => {
            e.u8(3);
            e.u32(mask);
        }
    }
}

fn decode_kind(d: &mut Dec) -> Result<FaultKind, WireError> {
    match d.u8("fault kind")? {
        0 => Ok(FaultKind::StuckAtZero),
        1 => Ok(FaultKind::Constant(d.i32("constant value")?)),
        2 => Ok(FaultKind::StuckBits {
            fsel: d.u32("fsel")?,
            fdata: d.u32("fdata")?,
        }),
        3 => Ok(FaultKind::FlipBits {
            mask: d.u32("flip mask")?,
        }),
        t => Err(WireError::BadTag {
            what: "fault kind",
            tag: u32::from(t),
        }),
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Writes one frame: a u32 little-endian payload length, the payload, then
/// a CRC32 trailer over the payload (v2 frame layout — see
/// [`crate::codec::crc32`]). One `flush` per frame, so stream wrappers
/// (e.g. [`crate::chaos::ChaosStream`]) can treat flush as the frame
/// boundary.
///
/// # Errors
///
/// Propagates socket errors.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_BYTES`] (a sender bug, not an
/// input condition).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(
        payload.len() as u64 <= u64::from(MAX_FRAME_BYTES),
        "frame of {} bytes exceeds MAX_FRAME_BYTES",
        payload.len()
    );
    // nvfi-lint: allow(truncating-cast) — asserted <= MAX_FRAME_BYTES above
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&crate::codec::crc32(payload).to_le_bytes())?;
    w.flush()
}

/// Reads one frame's payload and verifies its CRC32 trailer. A length
/// prefix above [`MAX_FRAME_BYTES`] is rejected before any allocation; a
/// stream that ends mid-frame surfaces as
/// [`io::ErrorKind::UnexpectedEof`] — an error, never a panic.
///
/// # Errors
///
/// [`DistError::Io`] on socket errors (oversized lengths map to
/// [`io::ErrorKind::InvalidData`]); [`DistError::Wire`] with a named
/// [`WireError::Crc`] when the trailer does not match the payload — flipped
/// bits are an integrity error, never silently-decoded garbage.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, DistError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len).map_err(DistError::Io)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(DistError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte bound"),
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(DistError::Io)?;
    let mut stored = [0u8; 4];
    r.read_exact(&mut stored).map_err(DistError::Io)?;
    let stored = u32::from_le_bytes(stored);
    let computed = crate::codec::crc32(&payload);
    if stored != computed {
        return Err(DistError::Wire(WireError::Crc { stored, computed }));
    }
    Ok(payload)
}

/// Sends one message as one frame.
///
/// # Errors
///
/// Propagates socket errors.
pub fn send(w: &mut impl Write, msg: &Msg) -> io::Result<()> {
    write_frame(w, &msg.encode())
}

/// Receives and decodes one message.
///
/// # Errors
///
/// [`DistError::Io`] on socket errors (including truncation),
/// [`DistError::Wire`] on malformed or CRC-failed payloads.
pub fn recv(r: &mut impl Read) -> Result<Msg, DistError> {
    let payload = read_frame(r)?;
    Msg::decode(payload).map_err(DistError::Wire)
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// Worker side of the handshake: sends `Hello`, awaits the coordinator's
/// reply.
///
/// # Errors
///
/// [`DistError::Wire`] with [`WireError::Version`] on a mismatch,
/// [`DistError::Worker`] if the coordinator rejected us with an error
/// message, [`DistError::Io`] on socket failure.
pub fn client_hello<S: Read + Write>(stream: &mut S) -> Result<(), DistError> {
    send(
        stream,
        &Msg::Hello {
            version: WIRE_VERSION,
        },
    )
    .map_err(DistError::Io)?;
    match recv(stream)? {
        Msg::Hello { version } if version == WIRE_VERSION => Ok(()),
        Msg::Hello { version } => Err(DistError::Wire(WireError::Version {
            peer: version,
            local: WIRE_VERSION,
        })),
        Msg::WorkerErr { message } => Err(DistError::Worker(message)),
        _ => Err(DistError::Protocol("expected hello reply")),
    }
}

/// Coordinator side of the handshake: awaits the worker's `Hello`, verifies
/// the version, replies. On a mismatch the worker is told why (a
/// [`Msg::WorkerErr`] naming both versions) before the error is returned.
///
/// # Errors
///
/// [`DistError::Wire`] with [`WireError::Version`] on a mismatch,
/// [`DistError::Io`] on socket failure.
pub fn accept_hello<S: Read + Write>(stream: &mut S) -> Result<(), DistError> {
    match recv(stream)? {
        Msg::Hello { version } if version == WIRE_VERSION => {
            send(
                stream,
                &Msg::Hello {
                    version: WIRE_VERSION,
                },
            )
            .map_err(DistError::Io)?;
            Ok(())
        }
        Msg::Hello { version } => {
            let err = WireError::Version {
                peer: version,
                local: WIRE_VERSION,
            };
            let _ = send(
                stream,
                &Msg::WorkerErr {
                    message: err.to_string(),
                },
            );
            Err(DistError::Wire(err))
        }
        _ => Err(DistError::Protocol("expected hello")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let msg = Msg::Work {
            work_id: 3,
            start: 8,
            end: 16,
            fault: Some(WireFault {
                lanes: vec![0, 9, 63],
                kind: FaultKind::Constant(-1),
            }),
            window: Some(100..2100),
        };
        let mut buf = Vec::new();
        send(&mut buf, &msg).unwrap();
        let mut r = &buf[..];
        assert_eq!(recv(&mut r).unwrap(), msg);
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        send(&mut buf, &Msg::Shutdown).unwrap();
        // Cut the stream at every point inside the frame.
        for cut in 0..buf.len() {
            let mut r = &buf[..cut];
            match recv(&mut r) {
                Err(DistError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                }
                other => panic!("cut {cut}: expected EOF error, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_frame_length_rejected_before_allocation() {
        let mut buf = (MAX_FRAME_BYTES + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 16]);
        let mut r = &buf[..];
        match recv(&mut r) {
            Err(DistError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            other => panic!("expected InvalidData, got {other:?}"),
        }
    }

    #[test]
    fn hello_version_mismatch_is_rejected_with_both_versions_named() {
        // A fake peer speaking version WIRE_VERSION + 1.
        let mut from_peer = Vec::new();
        send(
            &mut from_peer,
            &Msg::Hello {
                version: WIRE_VERSION + 1,
            },
        )
        .unwrap();
        struct Duplex {
            read: std::io::Cursor<Vec<u8>>,
            wrote: Vec<u8>,
        }
        impl Read for Duplex {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.read.read(buf)
            }
        }
        impl Write for Duplex {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.wrote.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut s = Duplex {
            read: std::io::Cursor::new(from_peer),
            wrote: Vec::new(),
        };
        let err = accept_hello(&mut s).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains(&format!("v{}", WIRE_VERSION + 1)) && text.contains("mismatch"),
            "error must name the peer version: {text}"
        );
        // The rejected worker was told why before the close.
        let mut r = &s.wrote[..];
        match recv(&mut r).unwrap() {
            Msg::WorkerErr { message } => assert!(message.contains("mismatch")),
            other => panic!("expected WorkerErr, got {other:?}"),
        }
    }

    #[test]
    fn eval_set_shape_overflow_rejected() {
        // 65536^4 == 2^64: a u64 product would wrap to 0 == data.len() and
        // admit the bogus frame (or panic in debug); the u128 check must
        // reject it as a shape mismatch instead.
        let mut e = Enc::new();
        e.u8(TAG_EVAL_SET);
        for _ in 0..4 {
            e.u32(65536);
        }
        e.u64(0); // empty pixel slice
        assert_eq!(
            Msg::decode(e.into_vec()),
            Err(WireError::Invalid("eval shape/pixel mismatch"))
        );
    }

    #[test]
    fn flipped_payload_bit_is_a_named_crc_error() {
        let msg = Msg::ShardDone {
            work_id: 4,
            start: 0,
            end: 3,
            attest: shard_attestation((1, 2, 3, 0), 4, 0, 3, &[1, 2, 3]),
            preds: vec![1, 2, 3],
            spans: Vec::new(),
        };
        let mut buf = Vec::new();
        send(&mut buf, &msg).unwrap();
        // Flip one bit in every payload byte position in turn; each must be
        // caught by the CRC trailer, never decoded as a different message.
        for i in 4..buf.len() - 4 {
            let mut corrupt = buf.clone();
            corrupt[i] ^= 0x10;
            let mut r = &corrupt[..];
            match recv(&mut r) {
                Err(DistError::Wire(WireError::Crc { stored, computed })) => {
                    assert_ne!(stored, computed)
                }
                other => panic!("byte {i}: expected CRC error, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_crc_trailer_bit_is_also_caught() {
        let mut buf = Vec::new();
        send(&mut buf, &Msg::Ping).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let mut r = &buf[..];
        assert!(matches!(
            recv(&mut r),
            Err(DistError::Wire(WireError::Crc { .. }))
        ));
    }

    #[test]
    fn heartbeats_and_goodbye_roundtrip() {
        for msg in [
            Msg::Ping,
            Msg::Pong,
            Msg::Goodbye {
                reason: "campaign complete".into(),
            },
        ] {
            let mut buf = Vec::new();
            send(&mut buf, &msg).unwrap();
            let mut r = &buf[..];
            assert_eq!(recv(&mut r).unwrap(), msg);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn attestation_is_sensitive_to_every_component() {
        let base = shard_attestation((1, 2, 3, 4), 5, 0, 3, &[7, 8, 9]);
        // Artifact hashes, shard key, and predictions each perturb it.
        assert_ne!(base, shard_attestation((9, 2, 3, 4), 5, 0, 3, &[7, 8, 9]));
        assert_ne!(base, shard_attestation((1, 9, 3, 4), 5, 0, 3, &[7, 8, 9]));
        assert_ne!(base, shard_attestation((1, 2, 9, 4), 5, 0, 3, &[7, 8, 9]));
        assert_ne!(base, shard_attestation((1, 2, 3, 9), 5, 0, 3, &[7, 8, 9]));
        assert_ne!(base, shard_attestation((1, 2, 3, 4), 6, 0, 3, &[7, 8, 9]));
        assert_ne!(base, shard_attestation((1, 2, 3, 4), 5, 1, 3, &[7, 8, 9]));
        assert_ne!(base, shard_attestation((1, 2, 3, 4), 5, 0, 4, &[7, 8, 9]));
        assert_ne!(base, shard_attestation((1, 2, 3, 4), 5, 0, 3, &[7, 8, 0]));
        // And deterministic across calls.
        assert_eq!(base, shard_attestation((1, 2, 3, 4), 5, 0, 3, &[7, 8, 9]));
    }

    #[test]
    fn zero_worker_ident_rejected() {
        let mut e = Enc::new();
        e.u8(TAG_HAVE);
        e.u64(0); // ident
        e.u64(0); // empty hash list
        assert_eq!(
            Msg::decode(e.into_vec()),
            Err(WireError::Invalid("zero worker ident"))
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut e = Enc::new();
        e.u8(TAG_HELLO);
        e.u32(0x1234_5678);
        e.u32(WIRE_VERSION);
        assert_eq!(
            Msg::decode(e.into_vec()),
            Err(WireError::BadMagic(0x1234_5678))
        );
    }
}
