//! **`nvfi-dist`** — the multi-process campaign fabric: a coordinator that
//! spreads one fault-injection campaign over a pool of worker *processes*
//! (local subprocesses or cross-host peers), each of which drives its own
//! local [`nvfi::DevicePool`]. The in-process two-level scheduler of
//! [`nvfi::campaign::Campaign::run`] saturates one process's threads; this
//! crate is the next scaling axis the ROADMAP names — one compiled design
//! shipped once, work sharded wide, results merged deterministically, the
//! shape cloud-FPGA fault-injection studies (DeepStrike) and multi-board
//! emulation engines both take.
//!
//! Everything rides on std `TcpStream` sockets (localhost for spawned
//! workers, any address for cross-host ones) and the little-endian codec of
//! the `bytes` shim — no async runtime, no serde.
//!
//! # Session lifecycle (wire v5: content-addressed sessions, attested results)
//!
//! A worker session is a strict sequence; every arrow is one or more frames
//! on the same socket:
//!
//! ```text
//! worker                          coordinator
//!   | --- Hello{version} ----------> |   (worker speaks first)
//!   | <-- Hello{version} ----------- |   (mismatch => clear error, close)
//!   | --- HaveArtifacts{ident, ...}> |   (worker identity + cached artifacts)
//!   | <-- ArtifactDelta{4 hashes} -- |   (session switch: what to run,
//!   | <-- Plan / Weights / EvalSet - |    plus ONLY the frames the worker
//!   | <-- Golden ------------------- |    is missing, in ship-bit order)
//!   | <-- Work{id, range, fault} --- |   (one frame per assigned shard)
//!   | --- Pong --------------------> |   (heartbeat between compute waves)
//!   | --- ShardDone{id, attest,..}-> |   (attested: see below)
//!   |            ...                 |
//!   | <-- ArtifactDelta ... -------- |   (next campaign: usually 0 frames)
//!   | <-- Shutdown ----------------- |   (or Goodbye{reason}: turned away)
//! ```
//!
//! Every session artifact — compiled plan, DRAM weight image, quantized
//! evaluation set, golden activation cache — is identified by a **content
//! hash** and cached on the worker across campaigns *and reconnects*. A
//! worker advertises its cache right after the hello; each
//! [`Msg::ArtifactDelta`](wire::Msg) names the four hashes of the next
//! campaign and ships only what the worker lacks, so a repeat campaign
//! over unchanged artifacts re-ships **zero** artifact bytes. Each
//! distinct artifact is serialized exactly **once per server** whatever
//! the fleet size (asserted by the [`wire::plan_serializations`] /
//! [`wire::weight_serializations`] / [`wire::eval_serializations`] /
//! [`wire::artifact_bytes_shipped`] probes); per-work-item traffic is only
//! the tiny fault program `(targets, kind, window)` plus an image range,
//! and the predictions coming back.
//!
//! # Wire format
//!
//! Frames are length-prefixed binary, all integers **little-endian**:
//!
//! ```text
//! frame   := len:u32 payload[len] crc:u32  (len <= MAX_FRAME_BYTES)
//! payload := tag:u8 body                   (tag picks the message type)
//! crc     := CRC-32 (IEEE) of payload      (since wire version 2)
//! ```
//!
//! Bodies are fixed field sequences (see [`wire::Msg`]); variable-length
//! fields carry a `u64` element count, validated against the bytes actually
//! remaining before anything is allocated, so a truncated or corrupt frame
//! is rejected with a [`WireError`] instead of a panic or an OOM. Trailing
//! bytes after a body are also rejected — a frame must parse exactly. A
//! frame whose CRC trailer does not match is a named [`WireError::Crc`]:
//! a flipped bit in transit is *diagnosed*, never silently mis-decoded.
//!
//! **Versioning rule:** [`wire::WIRE_VERSION`] is bumped on *any* change to
//! the frame layout, a message body, or an enum encoding (fault kinds,
//! execution modes). The version travels in the `Hello` exchanged before
//! anything else; both sides reject a mismatch with an error naming both
//! versions, so a stale worker binary fails fast instead of mis-decoding
//! campaign traffic.
//!
//! # Determinism
//!
//! A distributed run is **bit-identical** to the in-process
//! [`nvfi::campaign::Campaign::run`] because it is the same pipeline: the
//! coordinator prepares the campaign with
//! [`nvfi::campaign::CampaignPlan::prepare`] (one quantization pass, same
//! pruning, same golden cache), workers run borrowed sub-ranges of it on
//! identical plan-programmed devices through the same
//! [`nvfi::DevicePool::run_item`] (per-image inference is independent and
//! transient windows gate on per-inference cycle numbering), and
//! predictions are merged by `(work item, shard range)` — never by arrival
//! order — into [`nvfi::campaign::CampaignPlan::fold`]. Which worker ran which
//! shard, how many workers there are, and worker deaths mid-shard (the
//! shard is requeued on a surviving worker) all leave the records
//! unchanged; `tests/dist_parity.rs` asserts each of these.
//!
//! # Failure model
//!
//! The fabric is built to survive a hostile transport and prove it: the
//! [`chaos`] module wraps any stream in a deterministic fault injector
//! (connection drops mid-frame, stalls, bit flips, truncation, duplicated
//! frames — seeded via `NVFI_CHAOS_SEED` / scripted via `NVFI_CHAOS_PLAN`),
//! and the coordinator answers every injected class: CRC-failed or
//! out-of-lifecycle frames drop the connection and requeue the shard,
//! [`Msg::Pong`](wire::Msg::Pong) heartbeats keep slow-but-alive shards
//! from timing out while [`FleetSpec::task_timeout`] kills genuinely
//! stalled ones, crashed workers reconnect with capped-backoff and are
//! **re-admitted** mid-campaign (or turned away with a versioned
//! `Goodbye`), total fleet loss fails the campaign with
//! [`DistError::FleetLost`], and a killed coordinator **resumes** on a
//! server restarted at the same [`FleetSpec::checkpoint_path`], whose
//! [`checkpoint`] log (one per server, never removed, last record per key
//! wins) refills the shard store, so only unfinished shards are redone.
//! See `crates/dist/README.md` and the [`server`] module docs for the full
//! failure model.
//!
//! Since wire v4 the fabric also survives **wrong answers**, which a CRC
//! cannot catch: every `ShardDone` carries a [`wire::shard_attestation`]
//! binding the predictions to the content hashes of the artifacts the worker
//! actually executed against (a stale cache or post-CRC corruption is a named
//! [`WireError::Integrity`], not a silent wrong merge); the server silently
//! **audits** a configurable fraction of completed shards by re-dispatching
//! them to a different worker ([`FleetSpec::audit_rate`] — every executed
//! baseline shard is audited) and arbitrates any mismatch with an
//! authoritative in-process re-execution; and each worker identity carries a
//! [`Trust`] reputation (`Healthy → Suspect → Quarantined`, with audited
//! probation after re-admission), so a worker caught lying is drained, its
//! unverified shards re-checked, and every client's result stays
//! bit-identical to the in-process run.
//!
//! # Observability (wire v5)
//!
//! Wire v5 makes the fabric *watchable* without changing what it computes:
//! every `ShardDone` may carry a compact span summary (`worker.wave` /
//! `worker.execute` timings measured on the worker, capped at
//! [`wire::MAX_SHARD_SPANS`]) which the coordinator re-bases into its own
//! per-shard timeline, and `Msg::StatsQuery` / `Msg::Stats` let any client
//! poll the server's Prometheus rendering over the wire ([`query_stats`]).
//! The span summary is **advisory** and deliberately excluded from the
//! shard attestation: a worker that lies about a duration can skew a
//! timeline, never a merged record. Tracing is armed by `NVFI_TRACE`
//! (chrome-trace export path) and is inert — no clock reads — when unset;
//! see `nvfi_obs` and the *Observability* section of
//! `crates/dist/README.md` for the span taxonomy and metric names.
//!
//! # Entry points
//!
//! * [`CampaignServer`] — the one way to run a campaign on the fabric: one
//!   long-lived worker fleet serving many concurrent client campaigns,
//!   fair-share interleaved, behind one shard store that maps each
//!   shard's content key (session artifacts, fault program, image range)
//!   to its predictions, so campaigns that share shards run them once, and
//!   whose log at [`FleetSpec::checkpoint_path`] outlives the server. Each
//!   [`CampaignServer::submit`] returns a [`ClientHandle`] streaming
//!   per-shard [`Progress`]; [`ServerStats`] counts submissions, cache
//!   hits, dispatches and shipped artifact frames. A single campaign is
//!   `CampaignServer::start(&fleet, n)?.submit(..)?.wait()`.
//! * [`FleetSpec`] — how to raise the fleet: self-exec subprocesses
//!   ([`WorkerSpawn::SelfExec`] — re-executes the current binary, which
//!   must call [`worker::maybe_serve`] first thing in `main`), an explicit
//!   worker executable ([`WorkerSpawn::Exe`], e.g. the `nvfi_worker` bin),
//!   and/or cross-host workers attaching to a listen address.
//! * [`worker::serve`] / the `nvfi_worker` binary — the worker side; its
//!   `serve_forever` loop holds the artifact cache across reconnects and
//!   idle-waits for a coordinator (bounded by `NVFI_WORKER_IDLE_EXIT`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod codec;
pub mod coordinator;
pub mod server;
pub mod trust;
pub mod wire;
pub mod worker;

pub use chaos::{ChaosPlan, ChaosStream};
pub use checkpoint::Checkpoint;
pub use codec::WireError;
pub use coordinator::{DistError, FleetSpec, WorkerSpawn};
pub use server::{query_stats, CampaignServer, ClientHandle, Progress, ServerStats};
pub use trust::Trust;
pub use worker::ServeEnd;
