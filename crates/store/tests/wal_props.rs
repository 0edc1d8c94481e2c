//! Property tests for WAL framing: round-trips, torn-tail truncation to
//! the last whole record, and crc-flip rejection (ISSUE 10 satellite).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::BytesMut;
use proptest::prelude::*;
use swag_core::{Fov, RepFov};
use swag_geo::LatLon;
use swag_obs::ManualClock;
use swag_store::{
    check_frame, encode_frame, recover_wal_dir, FrameCheck, SegmentRef, WalOp, WalWriter,
};

fn tmp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "swag-walprop-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn arb_rep() -> impl Strategy<Value = RepFov> {
    (
        0.0f64..1.0e6,
        0.1f64..600.0,
        -80.0f64..80.0,
        -179.0f64..179.0,
        0.0f64..360.0,
    )
        .prop_map(|(t, dur, lat, lng, theta)| {
            RepFov::new(t, t + dur, Fov::new(LatLon::new(lat, lng), theta))
        })
}

fn arb_op() -> impl Strategy<Value = WalOp> {
    prop_oneof![
        (arb_rep(), any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
            |(rep, provider_id, video_id, segment_idx)| WalOp::Append {
                rep,
                source: SegmentRef {
                    provider_id,
                    video_id,
                    segment_idx
                },
            }
        ),
        (arb_rep(), any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
            |(rep, provider_id, video_id, segment_idx)| WalOp::Append {
                rep,
                source: SegmentRef {
                    provider_id,
                    video_id,
                    segment_idx
                },
            }
        ),
        (any::<u64>(), any::<u64>()).prop_map(|(provider_id, cold_seq)| WalOp::Retract {
            provider_id,
            cold_seq
        }),
        (0.0f64..1.0e6).prop_map(|horizon_s| WalOp::Expire { horizon_s }),
    ]
}

/// The codec quantises reps (fixed-point lat/lng, coarse theta), so a
/// round-tripped Append is codec-equal rather than bit-equal.
fn ops_equivalent(a: &WalOp, b: &WalOp) -> bool {
    match (a, b) {
        (
            WalOp::Append {
                rep: ra,
                source: sa,
            },
            WalOp::Append {
                rep: rb,
                source: sb,
            },
        ) => sa == sb && (ra.t_start - rb.t_start).abs() < 0.5 && (ra.t_end - rb.t_end).abs() < 0.5,
        (x, y) => x == y,
    }
}

proptest! {
    #[test]
    fn frame_round_trip(ops in prop::collection::vec(arb_op(), 1..40)) {
        let mut buf = BytesMut::new();
        for op in &ops {
            encode_frame(op, &mut buf);
        }
        let raw = buf.freeze();
        let mut offset = 0;
        let mut decoded = Vec::new();
        while offset < raw.len() {
            match check_frame(&raw[offset..]) {
                FrameCheck::Complete(op, size) => {
                    decoded.push(op);
                    offset += size;
                }
                other => prop_assert!(false, "unexpected {other:?} at {offset}"),
            }
        }
        prop_assert_eq!(decoded.len(), ops.len());
        for (a, b) in ops.iter().zip(&decoded) {
            prop_assert!(ops_equivalent(a, b), "{:?} != {:?}", a, b);
        }
    }

    #[test]
    fn torn_tail_truncates_to_last_whole_record(
        ops in prop::collection::vec(arb_op(), 1..30),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = tmp_dir();
        let clock = Arc::new(ManualClock::new());
        let mut w = WalWriter::open(&dir, 0, 0, clock).unwrap();
        let mut sizes = Vec::new();
        for op in &ops {
            let mut frame = BytesMut::new();
            encode_frame(op, &mut frame);
            sizes.push(frame.len());
            w.append(op).unwrap();
        }
        drop(w);
        let total: usize = sizes.iter().sum();
        let cut = ((total as f64) * cut_frac) as u64;

        // Chop the file at an arbitrary byte offset, as a crash would.
        let path = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        // Expected surviving prefix: whole frames that fit under the cut.
        let mut survive = 0usize;
        let mut acc = 0u64;
        for s in &sizes {
            if acc + *s as u64 <= cut {
                survive += 1;
                acc += *s as u64;
            } else {
                break;
            }
        }

        let rec = recover_wal_dir(&dir).unwrap();
        prop_assert_eq!(rec.ops.len(), survive);
        prop_assert_eq!(rec.next_seq, survive as u64);
        for ((_, got), want) in rec.ops.iter().zip(&ops) {
            prop_assert!(ops_equivalent(want, got));
        }
        // Recovery repaired the file: a second pass truncates nothing.
        let rec2 = recover_wal_dir(&dir).unwrap();
        prop_assert_eq!(rec2.truncated_bytes, 0);
        prop_assert_eq!(rec2.ops.len(), survive);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc_flips_are_rejected(
        ops in prop::collection::vec(arb_op(), 1..10),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut buf = BytesMut::new();
        for op in &ops {
            encode_frame(op, &mut buf);
        }
        let mut raw = buf.to_vec();
        let idx = ((raw.len() - 1) as f64 * byte_frac) as usize;
        raw[idx] ^= 1 << bit;

        // Walk frames; the flipped frame must not decode as a silently
        // different op — it is either Corrupt, Incomplete (flipped length
        // pointing past the end), or re-framed such that the walk ends
        // early. What must never happen: all frames Complete AND equal
        // to the originals in count but not content without a crc error.
        let mut offset = 0;
        let mut decoded = Vec::new();
        let mut clean = true;
        while offset < raw.len() {
            match check_frame(&raw[offset..]) {
                FrameCheck::Complete(op, size) => {
                    decoded.push(op);
                    offset += size;
                }
                _ => { clean = false; break; }
            }
        }
        // Every byte of the stream is covered by a length, crc, or
        // crc-checked payload field, so a full clean decode after a flip
        // means the corruption went undetected.
        prop_assert!(
            !(clean && decoded.len() == ops.len()),
            "bit flip at byte {} went undetected",
            idx
        );
    }
}
