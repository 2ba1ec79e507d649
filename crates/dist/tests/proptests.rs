//! Property tests of the `nvfi-dist` wire format: every message type
//! round-trips bit-exactly through encode/decode, no truncation of any
//! encoded message can panic the decoder, and no [`ChaosStream`] corruption
//! plan — bit flips, truncation, duplication, mid-frame drops, in any
//! combination — can panic the frame reader. The checkpoint log gets the
//! same treatment: arbitrary or mutated bytes load a prefix of its records.

use nvfi_accel::FaultKind;
use nvfi_dist::chaos::{ChaosAction, ChaosPlan, ChaosStream};
use nvfi_dist::checkpoint::CheckpointEntry;
use nvfi_dist::wire::{self, Msg, WireConfig, WireFault, WireSpan};
use nvfi_dist::{Checkpoint, WireError};
use proptest::prelude::*;

/// Encode → decode must reproduce the message exactly.
fn roundtrip(msg: &Msg) {
    let encoded = msg.encode();
    let decoded = Msg::decode(encoded).expect("well-formed message decodes");
    assert_eq!(&decoded, msg);
}

/// Every strict prefix of an encoded message must decode to an error — the
/// decoder's job on a truncated frame is to reject, never to panic or to
/// fabricate a message.
fn truncations_rejected(msg: &Msg) {
    let encoded = msg.encode();
    // Sample cuts densely for small payloads, sparsely for big ones.
    let step = (encoded.len() / 64).max(1);
    for cut in (0..encoded.len()).step_by(step) {
        let r = Msg::decode(encoded[..cut].to_vec());
        assert!(
            r.is_err(),
            "prefix of {cut}/{} bytes decoded to {r:?}",
            encoded.len()
        );
    }
}

fn exercise(msg: &Msg) {
    roundtrip(msg);
    truncations_rejected(msg);
}

fn mode_of(tag: u8) -> nvfi_accel::ExecMode {
    match tag % 2 {
        0 => nvfi_accel::ExecMode::Exact,
        _ => nvfi_accel::ExecMode::Auto,
    }
}

fn kind_of(tag: u8, a: u32, b: u32) -> FaultKind {
    match tag % 4 {
        0 => FaultKind::StuckAtZero,
        1 => FaultKind::Constant(a as i32),
        2 => FaultKind::StuckBits { fsel: a, fdata: b },
        _ => FaultKind::FlipBits { mask: a },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hello_roundtrips(version in 0u32..u32::MAX) {
        exercise(&Msg::Hello { version });
    }

    #[test]
    fn plan_roundtrips(
        mode in 0u8..2,
        idle in 0u8..2,
        clock in 1.0f64..1e10,
        dram in 1u64..wire::MAX_WIRE_DRAM_CAPACITY + 1,
        batch in 1u64..256,
        devices in 1u32..64,
        words in collection::vec(any::<u32>(), 0..256usize),
    ) {
        exercise(&Msg::Plan {
            config: WireConfig {
                mode: mode_of(mode),
                idle_lanes: if idle == 0 {
                    nvfi_accel::IdleLanePolicy::ZeroFed
                } else {
                    nvfi_accel::IdleLanePolicy::Gated
                },
                clock_hz: clock,
                dram_capacity: dram,
                batch,
            },
            local_devices: devices,
            words,
        });
    }

    #[test]
    fn weights_roundtrip(
        addrs in collection::vec(0u64..(1 << 32), 0..8usize),
        payload in collection::vec(-128i32..128, 0..512usize),
    ) {
        // Regions of varying sizes carved from one payload pool.
        let bytes: Vec<i8> = payload.iter().map(|&v| v as i8).collect();
        let regions: Vec<(u64, Vec<i8>)> = addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                let take = (bytes.len() / (i + 1)).min(bytes.len());
                (addr, bytes[..take].to_vec())
            })
            .collect();
        exercise(&Msg::Weights { regions });
    }

    #[test]
    fn eval_set_roundtrips(
        n in 0usize..5,
        c in 1usize..4,
        hw in 1usize..9,
        seed in any::<u32>(),
    ) {
        let data: Vec<i8> = (0..n * c * hw * hw)
            .map(|i| ((i as u32).wrapping_mul(seed) % 251) as i8)
            .collect();
        exercise(&Msg::EvalSet {
            n: n as u32,
            c: c as u32,
            h: hw as u32,
            w: hw as u32,
            data,
        });
    }

    #[test]
    fn work_roundtrips(
        work_id in 0u32..10_000,
        start in 0u32..10_000,
        len in 0u32..10_000,
        has_fault in 0u8..2,
        lanes in collection::vec(0u8..64, 0..64usize),
        kind_tag in any::<u8>(),
        ka in any::<u32>(),
        kb in any::<u32>(),
        has_window in 0u8..2,
        wstart in 0u64..(1 << 40),
        wlen in 0u64..(1 << 20),
    ) {
        exercise(&Msg::Work {
            work_id,
            start,
            end: start + len,
            fault: (has_fault == 1).then(|| WireFault {
                lanes,
                kind: kind_of(kind_tag, ka, kb),
            }),
            window: (has_window == 1).then(|| wstart..wstart + wlen),
        });
    }

    #[test]
    fn shard_done_roundtrips(
        work_id in any::<u32>(),
        start in 0u32..100_000,
        attest in any::<u64>(),
        preds in collection::vec(0u32..256, 0..512usize),
        spans in collection::vec(
            (0usize..4, 0u64..(1 << 40), 0u64..(1 << 30)),
            0..8usize,
        ),
    ) {
        let preds: Vec<u8> = preds.iter().map(|&p| p as u8).collect();
        let names = ["worker.wave", "worker.execute", "a", ""];
        let spans: Vec<WireSpan> = spans
            .iter()
            .map(|&(n, start_us, dur_us)| WireSpan {
                name: names[n].to_string(),
                start_us,
                dur_us,
            })
            .collect();
        exercise(&Msg::ShardDone {
            work_id,
            start,
            end: start + preds.len() as u32,
            attest,
            preds,
            spans,
        });
    }

    /// The stats poll pair (`StatsQuery` → `Stats`) round-trips for any
    /// Prometheus text payload, empty included.
    #[test]
    fn stats_query_and_reply_roundtrip(len in 0usize..300, seed in any::<u32>()) {
        exercise(&Msg::StatsQuery);
        let text: String = (0..len)
            .map(|i| char::from(b' ' + (((i as u32).wrapping_mul(seed)) % 94) as u8))
            .collect();
        exercise(&Msg::Stats { text });
    }

    #[test]
    fn worker_err_and_shutdown_roundtrip(len in 0usize..200, seed in any::<u32>()) {
        let message: String = (0..len)
            .map(|i| char::from(b'a' + (((i as u32).wrapping_mul(seed)) % 26) as u8))
            .collect();
        exercise(&Msg::WorkerErr { message });
        exercise(&Msg::Shutdown);
    }

    /// Bit flips in a frame must decode to an error or to a *different but
    /// well-formed* message — never panic.
    #[test]
    fn corrupted_frames_never_panic(
        byte in 0usize..64,
        bit in 0u8..8,
        lanes in collection::vec(0u8..64, 1..8usize),
    ) {
        let msg = Msg::Work {
            work_id: 1,
            start: 0,
            end: 4,
            fault: Some(WireFault { lanes, kind: FaultKind::StuckAtZero }),
            window: Some(5..1000),
        };
        let mut encoded = msg.encode();
        let idx = byte % encoded.len();
        encoded[idx] ^= 1 << bit;
        let _ = Msg::decode(encoded); // must return, not panic
    }

    #[test]
    fn heartbeats_and_goodbye_roundtrip_propwise(len in 0usize..120, seed in any::<u32>()) {
        exercise(&Msg::Ping);
        exercise(&Msg::Pong);
        let reason: String = (0..len)
            .map(|i| char::from(b'a' + (((i as u32).wrapping_mul(seed)) % 26) as u8))
            .collect();
        exercise(&Msg::Goodbye { reason });
    }

    /// The session-cache advertisement: any nonzero worker identity with
    /// any list of content hashes (zeros included — the decoder does not
    /// police advertisement values) round-trips, and truncation never
    /// panics. A zero identity is invalid on its face and rejected.
    #[test]
    fn have_artifacts_roundtrips(
        ident in 1u64..u64::MAX,
        hashes in collection::vec(any::<u64>(), 0..64usize),
    ) {
        exercise(&Msg::HaveArtifacts { ident, hashes: hashes.clone() });
        assert_eq!(
            Msg::decode(Msg::HaveArtifacts { ident: 0, hashes }.encode()),
            Err(WireError::Invalid("zero worker ident")),
        );
    }

    /// The v3 session switch: nonzero plan/weights/eval hashes, an optional
    /// golden hash, and any subset of the four ship bits (bit 3 only with a
    /// golden hash) round-trip; truncation never panics.
    #[test]
    fn artifact_delta_roundtrips(
        plan in 1u64..u64::MAX,
        weights in 1u64..u64::MAX,
        eval in 1u64..u64::MAX,
        golden in any::<u64>(),
        ship_bits in 0u8..16,
    ) {
        let ship = if golden == 0 { ship_bits & 0x07 } else { ship_bits };
        exercise(&Msg::ArtifactDelta { plan, weights, eval, golden, ship });
    }

    /// A well-formed golden activation cache (nonzero boundary, at least one
    /// surface, data sized exactly `stride × cached_images`) round-trips;
    /// truncation never panics.
    #[test]
    fn golden_roundtrips(
        boundary in 1u64..1_000,
        surfaces in collection::vec((0u64..(1 << 32), 1u64..64), 1..6usize),
        cached_images in 1u64..5,
        seed in any::<u32>(),
    ) {
        let stride: u64 = surfaces.iter().map(|&(_, bytes)| bytes).sum();
        let data: Vec<i8> = (0..stride * cached_images)
            .map(|i| ((i as u32).wrapping_mul(seed) % 251) as i8)
            .collect();
        exercise(&Msg::Golden { boundary, surfaces, data, cached_images });
    }

    /// Checkpoint logs: arbitrary bytes load without panicking, and a
    /// valid log with bytes flipped and its tail cut loads a prefix of its
    /// records — never a record it did not hold, never a mis-decoded one.
    /// Bytes appended after a whole log never hide its records.
    #[test]
    fn checkpoint_logs_load_a_prefix_of_their_records(
        seed in any::<u64>(),
        preds in collection::vec(collection::vec(any::<u8>(), 0..24usize), 0..6usize),
        garbage in collection::vec(any::<u8>(), 0..96usize),
        flips in collection::vec((any::<u64>(), any::<u8>()), 0..3usize),
        cut in any::<u64>(),
    ) {
        let _ = Checkpoint::decode(&garbage);
        // Distinct keys, so "last record per key" is every record.
        let cp = Checkpoint {
            entries: preds
                .into_iter()
                .enumerate()
                .map(|(i, preds)| CheckpointEntry { key: seed.wrapping_add(i as u64), preds })
                .collect(),
        };
        let log = cp.encode();
        prop_assert_eq!(Checkpoint::decode(&log), cp.clone());

        let mut appended = log.clone();
        appended.extend(&garbage);
        let decoded = Checkpoint::decode(&appended);
        prop_assert!(decoded.entries.starts_with(&cp.entries));

        let mut mutated = log.clone();
        for (pos, x) in flips {
            let i = (pos % mutated.len() as u64) as usize;
            mutated[i] ^= x.max(1);
        }
        mutated.truncate((cut % (log.len() as u64 + 1)) as usize);
        let decoded = Checkpoint::decode(&mutated);
        let n = decoded.entries.len();
        prop_assert!(n <= cp.entries.len());
        prop_assert_eq!(&decoded.entries[..], &cp.entries[..n]);
    }

    /// Whatever corruption plan a [`ChaosStream`] applies to a frame
    /// sequence — bit flips, truncation, duplication, mid-frame connection
    /// drops, in any combination and order — the frame reader must only
    /// ever return `Ok(msg)` or a named error. Never a panic, never an
    /// unbounded allocation.
    #[test]
    fn chaos_mangled_streams_never_panic_the_reader(
        raw_actions in collection::vec(
            (0u8..6, 0u64..8, 0u64..96, 0u8..8),
            0..6usize,
        ),
        preds in collection::vec(0u32..256, 0..64usize),
    ) {
        let actions = raw_actions
            .iter()
            .map(|&(tag, frame, arg, bit)| match tag {
                0 => ChaosAction::FlipBit { frame, offset: arg, bit },
                1 => ChaosAction::Truncate { frame, keep: arg },
                2 => ChaosAction::Duplicate { frame },
                3 => ChaosAction::DropMidFrame { frame, keep: arg },
                4 => ChaosAction::ReplayFrame { frame, delay: bit as u64 },
                _ => ChaosAction::LieShardDone { nth: frame, offset: arg, bit: bit % 8 },
            })
            .collect();
        let msgs = vec![
            Msg::Hello { version: wire::WIRE_VERSION },
            Msg::Work {
                work_id: 3,
                start: 0,
                end: preds.len() as u32,
                fault: Some(WireFault { lanes: vec![0, 17], kind: FaultKind::StuckAtZero }),
                window: Some(10..200),
            },
            Msg::ShardDone {
                work_id: 3,
                start: 0,
                end: preds.len() as u32,
                attest: 0xDEAD_BEEF_F00D_CAFE,
                preds: preds.iter().map(|&p| p as u8).collect(),
                spans: vec![WireSpan {
                    name: "worker.execute".to_string(),
                    start_us: 0,
                    dur_us: 1234,
                }],
            },
            Msg::Ping,
            Msg::Shutdown,
        ];
        let mut mangler = ChaosStream::new(Vec::<u8>::new(), ChaosPlan { actions });
        for msg in &msgs {
            // A DropMidFrame plan makes later sends fail; that is the point.
            let _ = wire::send(&mut mangler, msg);
        }
        let bytes = mangler.get_ref().clone();
        let mut reader: &[u8] = &bytes;
        // Duplication at most doubles the frame count; past that the stream
        // is exhausted and recv must keep erroring, not spin.
        for _ in 0..2 * msgs.len() + 1 {
            if wire::recv(&mut reader).is_err() {
                break; // must return (Ok or Err) — never panic
            }
        }
    }
}

/// A fault targeting a lane outside the 64-multiplier array is invalid on
/// its face and must be rejected at decode time.
#[test]
fn out_of_range_lane_rejected() {
    let msg = Msg::Work {
        work_id: 0,
        start: 0,
        end: 1,
        fault: Some(WireFault {
            lanes: vec![64],
            kind: FaultKind::StuckAtZero,
        }),
        window: None,
    };
    assert_eq!(
        Msg::decode(msg.encode()),
        Err(WireError::Invalid("target lane out of range"))
    );
}

/// A plan frame claiming more DRAM than [`wire::MAX_WIRE_DRAM_CAPACITY`] is
/// rejected at decode time, before a worker builds a device from it; the
/// bound itself is accepted.
#[test]
fn oversized_dram_capacity_rejected() {
    let plan = |dram_capacity| Msg::Plan {
        config: WireConfig {
            mode: nvfi_accel::ExecMode::Auto,
            idle_lanes: nvfi_accel::IdleLanePolicy::ZeroFed,
            clock_hz: 1e9,
            dram_capacity,
            batch: 8,
        },
        local_devices: 1,
        words: vec![1, 2, 3],
    };
    let max = wire::MAX_WIRE_DRAM_CAPACITY;
    exercise(&plan(max));
    for dram_capacity in [max + 1, 1 << 40, u64::MAX] {
        assert_eq!(
            Msg::decode(plan(dram_capacity).encode()),
            Err(WireError::Invalid("dram capacity"))
        );
    }
}

/// A retired exec-mode tag is refused, not aliased to a live mode: a plan
/// frame whose mode byte (right after the message tag) is patched to 1 —
/// the tag the removed fast-only mode used — fails to decode.
#[test]
fn retired_exec_mode_tag_is_refused() {
    let mut bytes = Msg::Plan {
        config: WireConfig {
            mode: nvfi_accel::ExecMode::Auto,
            idle_lanes: nvfi_accel::IdleLanePolicy::ZeroFed,
            clock_hz: 1e9,
            dram_capacity: 1 << 20,
            batch: 8,
        },
        local_devices: 1,
        words: vec![1, 2, 3],
    }
    .encode();
    assert_eq!(bytes[1], 2, "the mode byte follows the message tag");
    bytes[1] = 1;
    assert_eq!(
        Msg::decode(bytes),
        Err(WireError::BadTag {
            what: "exec mode",
            tag: 1
        })
    );
}
