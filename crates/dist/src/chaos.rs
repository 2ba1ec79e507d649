//! Deterministic fault injection for the fabric itself: [`ChaosStream`]
//! wraps any `Read + Write` session stream and perturbs it according to a
//! seeded [`ChaosPlan`] — the same discipline the paper applies to the
//! emulated accelerator, turned on the campaign fabric's own transport.
//!
//! The injectable failure classes mirror what long cloud campaigns actually
//! see (DeepStrike-style hours-long runs on shared infrastructure):
//!
//! * **connection drop mid-frame** ([`ChaosAction::DropMidFrame`]) — the
//!   peer sees a truncated frame then EOF;
//! * **read/write stalls** ([`ChaosAction::StallWrite`],
//!   [`ChaosAction::StallRead`]) — silence without a socket error;
//! * **payload bit-flips** ([`ChaosAction::FlipBit`]) — caught by the v2
//!   per-frame CRC as a named [`crate::codec::WireError::Crc`];
//! * **truncation** ([`ChaosAction::Truncate`]) — a frame shorter than its
//!   length prefix promises, with the connection left open (only a
//!   `task_timeout` can unstick the peer — which is the point);
//! * **duplicated frames** ([`ChaosAction::Duplicate`]) — the same frame
//!   delivered twice;
//! * **late duplicated frames** ([`ChaosAction::ReplayFrame`], `ldup`) — a
//!   valid frame re-delivered *after* later frames, the reordered-duplicate
//!   case the coordinator's completion dedup must absorb;
//! * **byzantine payload corruption** ([`ChaosAction::LieShardDone`],
//!   `lie`) — a `ShardDone` payload mangled and its CRC trailer
//!   **re-sealed**, so the wire layer provably cannot catch it; only the
//!   v4 shard attestation can.
//!
//! Write-side actions are **frame-indexed**: the wire layer flushes exactly
//! once per frame ([`crate::wire::write_frame`]), so the wrapper counts
//! flushes to know frame boundaries without parsing the protocol. Read-side
//! actions are byte-offset-indexed.
//!
//! # Env knobs
//!
//! Worker session entry points ([`crate::worker::maybe_serve`],
//! [`crate::worker::serve_forever`]) wrap their sockets via
//! [`ChaosStream::wrap_env`]:
//!
//! * [`ENV_CHAOS_PLAN`] (`NVFI_CHAOS_PLAN`) — an explicit plan, e.g.
//!   `flip:2:8:3,stall:3:500,drop:4` (see [`ChaosPlan::parse`]);
//! * [`ENV_CHAOS_SEED`] (`NVFI_CHAOS_SEED`) — a u64 seed from which
//!   [`ChaosPlan::from_seed`] derives one corrupt frame, one stalled
//!   frame and one connection drop, at seed-determined positions.
//!
//! An env-supplied plan **arms exactly once per process**: the first
//! wrapped session gets the chaos, every later session (after the worker's
//! reconnect/recovery path kicks in) runs clean — so an injected fault is
//! something the fabric must *recover from*, not an endless storm.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Env var naming an explicit chaos plan (see [`ChaosPlan::parse`]).
pub const ENV_CHAOS_PLAN: &str = "NVFI_CHAOS_PLAN";

/// Env var carrying a u64 seed for [`ChaosPlan::from_seed`]. Ignored when
/// [`ENV_CHAOS_PLAN`] is also set.
pub const ENV_CHAOS_SEED: &str = "NVFI_CHAOS_SEED";

/// One injectable transport fault. Write-side actions name the index of an
/// **outgoing frame** (0 = the first frame the wrapped endpoint sends —
/// for a worker, its `Hello`); read-side actions name a byte offset into
/// the incoming stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// XOR bit `bit` of payload byte `offset` (modulo the frame's
    /// payload+CRC region — the length prefix is never touched, so the
    /// peer's framing survives to *detect* the corruption) of outgoing
    /// frame `frame`.
    FlipBit {
        /// Outgoing frame index.
        frame: u64,
        /// Byte offset into the frame's payload+CRC region.
        offset: u64,
        /// Bit to flip (taken modulo 8).
        bit: u8,
    },
    /// Send only the first `keep` bytes of outgoing frame `frame`, then
    /// carry on as if it had been sent whole. The connection stays open:
    /// the peer blocks awaiting the promised bytes — undetectable without
    /// a `task_timeout`.
    Truncate {
        /// Outgoing frame index.
        frame: u64,
        /// Bytes of the frame actually delivered.
        keep: u64,
    },
    /// Send outgoing frame `frame` twice.
    Duplicate {
        /// Outgoing frame index.
        frame: u64,
    },
    /// Send the first `keep` bytes of outgoing frame `frame`, then kill the
    /// connection (every later read/write on this wrapper fails). `keep: 0`
    /// drops *before* the frame; `0 < keep < len` drops **mid-frame**.
    DropMidFrame {
        /// Outgoing frame index.
        frame: u64,
        /// Bytes delivered before the drop.
        keep: u64,
    },
    /// Sleep `millis` before sending outgoing frame `frame` (a stalled
    /// shard, as the peer sees it).
    StallWrite {
        /// Outgoing frame index.
        frame: u64,
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// Sleep `millis` once, before the first read at or past incoming byte
    /// `after_bytes`.
    StallRead {
        /// Incoming byte offset that triggers the stall.
        after_bytes: u64,
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// Kill the connection once `after_bytes` incoming bytes have been
    /// delivered.
    DropRead {
        /// Incoming bytes delivered before the drop.
        after_bytes: u64,
    },
    /// Re-emit outgoing frame `frame` (as actually delivered) after `delay`
    /// further frames have been sent — a **late duplicate**, arriving when
    /// the session has long moved on. Unlike [`ChaosAction::Duplicate`] the
    /// copy is not adjacent, so it exercises the receiver's
    /// already-recorded-completion dedup rather than its in-order one.
    ReplayFrame {
        /// Outgoing frame index to capture.
        frame: u64,
        /// Frames to wait before re-emitting the copy.
        delay: u64,
    },
    /// Byzantine corruption: XOR bit `bit` of a body byte of the `nth`
    /// outgoing [`Msg::ShardDone`](crate::wire::Msg) frame (counted among
    /// ShardDone frames only, not all frames), then **recompute and re-seal
    /// the CRC trailer** over the corrupted payload. The frame arrives
    /// CRC-valid: the wire layer provably cannot catch it, which is exactly
    /// the fault class the v4 shard attestation exists for. `offset` skips
    /// the tag byte, so the frame still decodes as a ShardDone.
    LieShardDone {
        /// Index among outgoing ShardDone frames (0 = the first).
        nth: u64,
        /// Byte offset into the payload past the tag byte (modulo its
        /// length).
        offset: u64,
        /// Bit to flip (taken modulo 8).
        bit: u8,
    },
}

impl ChaosAction {
    /// The outgoing-frame index this action triggers on, if write-side.
    fn write_frame_index(&self) -> Option<u64> {
        match self {
            ChaosAction::FlipBit { frame, .. }
            | ChaosAction::Truncate { frame, .. }
            | ChaosAction::Duplicate { frame }
            | ChaosAction::DropMidFrame { frame, .. }
            | ChaosAction::StallWrite { frame, .. }
            | ChaosAction::ReplayFrame { frame, .. } => Some(*frame),
            ChaosAction::StallRead { .. }
            | ChaosAction::DropRead { .. }
            | ChaosAction::LieShardDone { .. } => None,
        }
    }
}

/// A deterministic schedule of transport faults.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The scheduled faults. Each fires at most once.
    pub actions: Vec<ChaosAction>,
}

impl ChaosPlan {
    /// The empty plan: a [`ChaosStream`] carrying it is a transparent
    /// passthrough.
    #[must_use]
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// No faults scheduled?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Derives the CI smoke plan from a seed: **one corrupt frame** (a
    /// payload bit-flip the CRC must catch), **one stalled frame**
    /// (0.3–1 s), and **one connection drop mid-frame** (a worker death,
    /// as the coordinator sees it), each at a seed-determined outgoing
    /// frame in `1..=5` (never frame 0 — the `Hello` must land so the
    /// fleet raises). Deterministic per seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let flip = ChaosAction::FlipBit {
            frame: 1 + rng.gen_range(0u64..5),
            offset: rng.gen_range(0u64..64),
            bit: rng.gen_range(0u8..8),
        };
        let stall = ChaosAction::StallWrite {
            frame: 1 + rng.gen_range(0u64..5),
            millis: 300 + rng.gen_range(0u64..700),
        };
        let drop = ChaosAction::DropMidFrame {
            frame: 1 + rng.gen_range(0u64..5),
            keep: rng.gen_range(0u64..16),
        };
        ChaosPlan {
            actions: vec![flip, stall, drop],
        }
    }

    /// Parses a plan from the [`ENV_CHAOS_PLAN`] mini-grammar: actions
    /// separated by commas/whitespace, fields by colons —
    ///
    /// ```text
    /// flip:FRAME:OFFSET:BIT    payload bit-flip in outgoing frame FRAME
    /// trunc:FRAME:KEEP         truncate outgoing frame FRAME to KEEP bytes
    /// dup:FRAME                duplicate outgoing frame FRAME
    /// drop:FRAME[:KEEP]        send KEEP bytes (default 0), kill the link
    /// stall:FRAME:MS           sleep MS ms before outgoing frame FRAME
    /// rstall:BYTES:MS          sleep MS ms at incoming byte BYTES
    /// rdrop:BYTES              kill the link after BYTES incoming bytes
    /// ldup:FRAME:DELAY         re-emit frame FRAME after DELAY more frames
    /// lie:NTH:OFFSET:BIT       corrupt the NTH ShardDone body, re-seal CRC
    /// ```
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed token.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut actions = Vec::new();
        for token in text.split([',', ' ']).filter(|t| !t.is_empty()) {
            let mut parts = token.split(':');
            let kind = parts.next().unwrap_or("");
            let mut num = |what: &str| -> Result<u64, String> {
                parts
                    .next()
                    .ok_or_else(|| format!("chaos action `{token}`: missing {what}"))?
                    .parse::<u64>()
                    .map_err(|e| format!("chaos action `{token}`: bad {what}: {e}"))
            };
            let action = match kind {
                "flip" => ChaosAction::FlipBit {
                    frame: num("frame")?,
                    offset: num("offset")?,
                    bit: (num("bit")? % 8) as u8,
                },
                "trunc" => ChaosAction::Truncate {
                    frame: num("frame")?,
                    keep: num("keep")?,
                },
                "dup" => ChaosAction::Duplicate {
                    frame: num("frame")?,
                },
                "drop" => ChaosAction::DropMidFrame {
                    frame: num("frame")?,
                    keep: num("keep").unwrap_or(0),
                },
                "stall" => ChaosAction::StallWrite {
                    frame: num("frame")?,
                    millis: num("ms")?,
                },
                "rstall" => ChaosAction::StallRead {
                    after_bytes: num("bytes")?,
                    millis: num("ms")?,
                },
                "rdrop" => ChaosAction::DropRead {
                    after_bytes: num("bytes")?,
                },
                "ldup" => ChaosAction::ReplayFrame {
                    frame: num("frame")?,
                    delay: num("delay")?,
                },
                "lie" => ChaosAction::LieShardDone {
                    nth: num("nth")?,
                    offset: num("offset")?,
                    bit: (num("bit")? % 8) as u8,
                },
                other => return Err(format!("unknown chaos action kind `{other}` in `{token}`")),
            };
            actions.push(action);
        }
        Ok(ChaosPlan { actions })
    }

    /// The env-supplied plan, **armed at most once per process**:
    /// [`ENV_CHAOS_PLAN`] (parsed) wins over [`ENV_CHAOS_SEED`]
    /// (derived); the first call consumes the arming, every later call
    /// returns the empty plan. A malformed env plan panics — a chaos test
    /// asking for faults must never silently run clean.
    ///
    /// # Panics
    ///
    /// Panics when `NVFI_CHAOS_PLAN` does not parse or `NVFI_CHAOS_SEED`
    /// is not a u64.
    #[must_use]
    pub fn from_env() -> Self {
        static ARMED: AtomicBool = AtomicBool::new(false);
        let configured =
            std::env::var(ENV_CHAOS_PLAN).is_ok() || std::env::var(ENV_CHAOS_SEED).is_ok();
        if !configured || ARMED.swap(true, Ordering::SeqCst) {
            return ChaosPlan::none();
        }
        if let Ok(text) = std::env::var(ENV_CHAOS_PLAN) {
            return ChaosPlan::parse(&text)
                .unwrap_or_else(|e| panic!("{ENV_CHAOS_PLAN} does not parse: {e}"));
        }
        let seed = std::env::var(ENV_CHAOS_SEED)
            .expect("checked above")
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("{ENV_CHAOS_SEED} must be a u64: {e}"));
        ChaosPlan::from_seed(seed)
    }
}

/// A `Read + Write` wrapper that injects the faults of a [`ChaosPlan`]
/// into the wrapped stream. With an empty plan it is a transparent
/// passthrough (no buffering, no overhead).
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    plan: ChaosPlan,
    /// Outgoing frames completed (flush count).
    frames_written: u64,
    /// Outgoing `ShardDone` frames completed (the `lie` verb's index).
    shard_frames: u64,
    /// Incoming bytes delivered.
    bytes_read: u64,
    /// The outgoing frame currently being assembled (between flushes).
    wbuf: Vec<u8>,
    /// Captured frames awaiting late re-emission: `(emit once
    /// frames_written reaches this, bytes)`.
    replay: Vec<(u64, Vec<u8>)>,
    /// Set once a drop action fires; every later I/O call fails.
    dead: bool,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: ChaosPlan) -> Self {
        ChaosStream {
            inner,
            plan,
            frames_written: 0,
            shard_frames: 0,
            bytes_read: 0,
            wbuf: Vec::new(),
            replay: Vec::new(),
            dead: false,
        }
    }

    /// Wraps `inner` under the (once-armed) env plan — the hook the worker
    /// session entry points use. See [`ChaosPlan::from_env`].
    pub fn wrap_env(inner: S) -> Self {
        ChaosStream::new(inner, ChaosPlan::from_env())
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    fn dead_err() -> io::Error {
        io::Error::new(
            io::ErrorKind::BrokenPipe,
            "chaos: connection deliberately dropped",
        )
    }

    /// Pops every write-side action scheduled for the current frame.
    fn take_write_actions(&mut self) -> Vec<ChaosAction> {
        let frame = self.frames_written;
        let mut hit = Vec::new();
        self.plan.actions.retain(|a| {
            if a.write_frame_index() == Some(frame) {
                hit.push(a.clone());
                false
            } else {
                true
            }
        });
        hit
    }

    /// Applies a pending [`ChaosAction::LieShardDone`] if `frame` is the
    /// targeted outgoing `ShardDone` frame: flips one body bit past the tag
    /// byte, then **recomputes the CRC trailer** so the corruption survives
    /// the wire layer's integrity check.
    fn apply_lie(&mut self, frame: &mut [u8]) {
        // frame := len:u32 | payload (tag + body) | crc:u32
        if frame.len() < 9 || frame[4] != crate::wire::TAG_SHARD_DONE {
            return;
        }
        let nth = self.shard_frames;
        self.shard_frames += 1;
        let mut fired: Option<(u64, u8)> = None;
        self.plan.actions.retain(|a| match *a {
            ChaosAction::LieShardDone {
                nth: n,
                offset,
                bit,
            } if n == nth => {
                fired = Some((offset, bit));
                false
            }
            _ => true,
        });
        let Some((offset, bit)) = fired else {
            return;
        };
        let payload_len = frame.len() - 8;
        if payload_len < 2 {
            return;
        }
        // Skip the tag byte: the frame must still decode as a ShardDone for
        // the lie to reach the attestation check rather than a BadTag.
        let idx = 5 + (offset as usize % (payload_len - 1));
        frame[idx] ^= 1 << (bit % 8);
        let crc = crate::codec::crc32(&frame[4..4 + payload_len]);
        let at = frame.len() - 4;
        frame[at..].copy_from_slice(&crc.to_le_bytes());
    }

    /// Emits captured [`ChaosAction::ReplayFrame`] copies that have waited
    /// out their delay.
    fn emit_due_replays(&mut self) -> io::Result<()>
    where
        S: Write,
    {
        let now = self.frames_written;
        let mut due: Vec<Vec<u8>> = Vec::new();
        self.replay.retain_mut(|(at, bytes)| {
            if *at <= now {
                due.push(std::mem::take(bytes));
                false
            } else {
                true
            }
        });
        for bytes in due {
            self.inner.write_all(&bytes)?;
        }
        Ok(())
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(Self::dead_err());
        }
        if self.plan.is_empty() && self.wbuf.is_empty() {
            return self.inner.write(buf);
        }
        // Assemble the frame; faults are applied at the flush boundary.
        self.wbuf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(Self::dead_err());
        }
        let actions = self.take_write_actions();
        let mut frame = std::mem::take(&mut self.wbuf);
        self.frames_written += 1;
        // Tag-predicated, not frame-indexed: fires on the Nth ShardDone.
        self.apply_lie(&mut frame);
        if actions.is_empty() && self.replay.is_empty() {
            if !frame.is_empty() {
                self.inner.write_all(&frame)?;
            }
            return self.inner.flush();
        }
        let mut keep = frame.len();
        let mut drop_after = false;
        let mut copies = 1usize;
        let mut replay_delay: Option<u64> = None;
        for action in actions {
            match action {
                ChaosAction::StallWrite { millis, .. } => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                ChaosAction::FlipBit { offset, bit, .. } => {
                    // Corrupt payload or CRC bytes, never the 4-byte length
                    // prefix: a lying length would hang the peer instead of
                    // letting its CRC check *detect* the corruption.
                    if frame.len() > 4 {
                        let span = frame.len() - 4;
                        let idx = 4 + (offset as usize % span);
                        frame[idx] ^= 1 << (bit % 8);
                    }
                }
                ChaosAction::Truncate { keep: k, .. } => keep = keep.min(k as usize),
                ChaosAction::DropMidFrame { keep: k, .. } => {
                    keep = keep.min(k as usize);
                    drop_after = true;
                }
                ChaosAction::Duplicate { .. } => copies = 2,
                ChaosAction::ReplayFrame { delay, .. } => replay_delay = Some(delay),
                ChaosAction::StallRead { .. }
                | ChaosAction::DropRead { .. }
                | ChaosAction::LieShardDone { .. } => {}
            }
        }
        if drop_after {
            let _ = self.inner.write_all(&frame[..keep]);
            let _ = self.inner.flush();
            self.dead = true;
            return Err(Self::dead_err());
        }
        for _ in 0..copies {
            self.inner.write_all(&frame[..keep])?;
        }
        if let Some(delay) = replay_delay {
            // Capture the frame as delivered; re-emitted once `delay` more
            // frames have been flushed.
            self.replay
                .push((self.frames_written + delay, frame[..keep].to_vec()));
        }
        self.emit_due_replays()?;
        self.inner.flush()
    }
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(Self::dead_err());
        }
        let pos = self.bytes_read;
        // Fire at most one read-side action per call, earliest-offset first.
        let mut stall: Option<u64> = None;
        let mut drop_now = false;
        self.plan.actions.retain(|a| match *a {
            ChaosAction::StallRead {
                after_bytes,
                millis,
            } if pos >= after_bytes => {
                stall = Some(millis);
                false
            }
            ChaosAction::DropRead { after_bytes } if pos >= after_bytes => {
                drop_now = true;
                false
            }
            _ => true,
        });
        if let Some(millis) = stall {
            std::thread::sleep(Duration::from_millis(millis));
        }
        if drop_now {
            self.dead = true;
            return Err(Self::dead_err());
        }
        let n = self.inner.read(buf)?;
        self.bytes_read += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory duplex: reads from a transcript, records writes.
    #[derive(Default)]
    struct Mem {
        wrote: Vec<u8>,
    }
    impl Write for Mem {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.wrote.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl Read for Mem {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Ok(0)
        }
    }

    fn frames(plan: ChaosPlan, payloads: &[&[u8]]) -> (Vec<u8>, Option<io::Error>) {
        let mut s = ChaosStream::new(Mem::default(), plan);
        for p in payloads {
            if let Err(e) = crate::wire::write_frame(&mut s, p) {
                return (s.inner.wrote, Some(e));
            }
        }
        (s.inner.wrote, None)
    }

    #[test]
    fn empty_plan_is_a_passthrough() {
        let (wrote, err) = frames(ChaosPlan::none(), &[b"abc", b"defg"]);
        assert!(err.is_none());
        let mut clean = Vec::new();
        crate::wire::write_frame(&mut clean, b"abc").unwrap();
        crate::wire::write_frame(&mut clean, b"defg").unwrap();
        assert_eq!(wrote, clean);
    }

    #[test]
    fn flip_corrupts_exactly_one_bit_of_the_target_frame() {
        let plan = ChaosPlan::parse("flip:1:2:7").unwrap();
        let (wrote, err) = frames(plan, &[b"aaaa", b"bbbb"]);
        assert!(err.is_none());
        let mut clean = Vec::new();
        crate::wire::write_frame(&mut clean, b"aaaa").unwrap();
        crate::wire::write_frame(&mut clean, b"bbbb").unwrap();
        let diff: Vec<usize> = (0..clean.len()).filter(|&i| clean[i] != wrote[i]).collect();
        assert_eq!(diff.len(), 1, "exactly one byte differs");
        assert!(diff[0] >= clean.len() - 8, "the flip lands in frame 1");
        assert_eq!(clean[diff[0]] ^ wrote[diff[0]], 1 << 7);
    }

    #[test]
    fn drop_mid_frame_kills_the_stream() {
        let plan = ChaosPlan::parse("drop:1:3").unwrap();
        let (wrote, err) = frames(plan, &[b"aaaa", b"bbbb", b"cccc"]);
        assert_eq!(err.unwrap().kind(), io::ErrorKind::BrokenPipe);
        let mut clean = Vec::new();
        crate::wire::write_frame(&mut clean, b"aaaa").unwrap();
        // Frame 0 whole, then exactly 3 bytes of frame 1, nothing else.
        assert_eq!(wrote.len(), clean.len() + 3);
        assert_eq!(&wrote[..clean.len()], &clean[..]);
    }

    #[test]
    fn duplicate_delivers_the_frame_twice() {
        let plan = ChaosPlan::parse("dup:0").unwrap();
        let (wrote, err) = frames(plan, &[b"xy"]);
        assert!(err.is_none());
        let mut clean = Vec::new();
        crate::wire::write_frame(&mut clean, b"xy").unwrap();
        assert_eq!(wrote.len(), clean.len() * 2);
        assert_eq!(&wrote[..clean.len()], &clean[..]);
        assert_eq!(&wrote[clean.len()..], &clean[..]);
    }

    #[test]
    fn truncate_keeps_the_stream_open() {
        let plan = ChaosPlan::parse("trunc:0:5").unwrap();
        let (wrote, err) = frames(plan, &[b"aaaa", b"bbbb"]);
        assert!(err.is_none(), "truncation must not kill the connection");
        let mut clean = Vec::new();
        crate::wire::write_frame(&mut clean, b"bbbb").unwrap();
        assert_eq!(&wrote[5..], &clean[..], "frame 1 follows the stump");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_survivable_classes_only() {
        for seed in 0..64u64 {
            let a = ChaosPlan::from_seed(seed);
            assert_eq!(a, ChaosPlan::from_seed(seed));
            assert_eq!(a.actions.len(), 3);
            let mut kinds = [false; 3];
            for action in &a.actions {
                match action {
                    ChaosAction::FlipBit { frame, .. } => {
                        assert!(*frame >= 1);
                        kinds[0] = true;
                    }
                    ChaosAction::StallWrite { frame, millis } => {
                        assert!(*frame >= 1 && *millis < 1000);
                        kinds[1] = true;
                    }
                    ChaosAction::DropMidFrame { frame, .. } => {
                        assert!(*frame >= 1);
                        kinds[2] = true;
                    }
                    other => panic!("seeded plans must stay survivable, got {other:?}"),
                }
            }
            assert_eq!(kinds, [true; 3]);
        }
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        assert!(ChaosPlan::parse("flip:1:2:3,dup:0").is_ok());
        assert!(ChaosPlan::parse("explode:1").is_err());
        assert!(ChaosPlan::parse("flip:1").is_err());
        assert!(ChaosPlan::parse("stall:one:2").is_err());
        assert_eq!(ChaosPlan::parse("").unwrap(), ChaosPlan::none());
    }

    #[test]
    fn lie_reseals_the_crc_so_the_wire_layer_cannot_catch_it() {
        let done = crate::wire::Msg::ShardDone {
            work_id: 4,
            start: 0,
            end: 3,
            attest: crate::wire::shard_attestation((1, 2, 3, 0), 4, 0, 3, &[1, 2, 3]),
            preds: vec![1, 2, 3],
            spans: Vec::new(),
        };
        let mut s = ChaosStream::new(Mem::default(), ChaosPlan::parse("lie:0:12:0").unwrap());
        // A non-ShardDone frame first: the lie must skip it.
        crate::wire::send(&mut s, &crate::wire::Msg::Ping).unwrap();
        crate::wire::send(&mut s, &done).unwrap();
        let wrote = s.inner.wrote;
        let mut cursor = io::Cursor::new(wrote);
        assert_eq!(
            crate::wire::recv(&mut cursor).unwrap(),
            crate::wire::Msg::Ping
        );
        // The mangled ShardDone still decodes cleanly — CRC was re-sealed —
        // but the message differs from what the worker sent.
        let lied = crate::wire::recv(&mut cursor).unwrap();
        assert_ne!(lied, done, "payload must have been mangled");
        match lied {
            crate::wire::Msg::ShardDone { attest, preds, .. } => {
                // Offset 12 lands on the attestation field, so the preds are
                // intact but the attestation no longer matches them... or the
                // recomputation over the delivered session tuple.
                assert_eq!(preds, vec![1, 2, 3]);
                assert_ne!(
                    attest,
                    crate::wire::shard_attestation((1, 2, 3, 0), 4, 0, 3, &preds)
                );
            }
            other => panic!("still a ShardDone, got {other:?}"),
        }
    }

    #[test]
    fn ldup_reemits_the_captured_frame_after_the_delay() {
        let plan = ChaosPlan::parse("ldup:0:2").unwrap();
        let (wrote, err) = frames(plan, &[b"aa", b"bb", b"cc"]);
        assert!(err.is_none());
        let mut f = Vec::new();
        for p in [&b"aa"[..], b"bb", b"cc"] {
            crate::wire::write_frame(&mut f, p).unwrap();
        }
        let one = f.len() / 3;
        // Delivery order: frame 0, 1, 2, then the late duplicate of frame 0.
        assert_eq!(wrote.len(), f.len() + one);
        assert_eq!(&wrote[..f.len()], &f[..]);
        assert_eq!(&wrote[f.len()..], &f[..one], "late duplicate of frame 0");
    }

    #[test]
    fn read_drop_fires_at_the_byte_offset() {
        struct Endless;
        impl Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                buf.fill(7);
                Ok(buf.len())
            }
        }
        impl Write for Endless {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut s = ChaosStream::new(Endless, ChaosPlan::parse("rdrop:8").unwrap());
        let mut buf = [0u8; 8];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(
            s.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
    }
}
