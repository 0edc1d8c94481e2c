//! Property tests for WAL framing: round-trips of batch frames next to
//! parent-era one-rep frames and control frames, torn-tail truncation to
//! the last whole frame, and crc-flip rejection.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{BufMut, BytesMut};
use proptest::prelude::*;
use swag_core::{DescriptorCodec, Fov, RepFov, UploadBatch};
use swag_geo::LatLon;
use swag_obs::ManualClock;
use swag_store::{check_frame, encode_frame, recover_wal_dir, FrameCheck, WalOp, WalWriter};

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

/// A parent-era append frame (tag 1): one rep with its `SegmentRef`.
fn legacy_frame(rep: &RepFov, provider_id: u64, video_id: u64, segment_idx: u32) -> Vec<u8> {
    let mut payload = BytesMut::new();
    payload.put_u8(1);
    payload.put_u64_le(provider_id);
    payload.put_u64_le(video_id);
    payload.put_u32_le(segment_idx);
    DescriptorCodec::encode_rep(rep, &mut payload).unwrap();
    let mut frame = BytesMut::new();
    frame.put_u32_le(payload.len() as u32);
    frame.put_u32_le(swag_store::crc32(&payload));
    frame.extend_from_slice(&payload);
    frame.to_vec()
}

/// One frame and the op it must decode to.
fn arb_frame() -> impl Strategy<Value = (Vec<u8>, WalOp)> {
    let encoded = |op: WalOp| {
        let mut frame = BytesMut::new();
        encode_frame(&op, &mut frame).unwrap();
        (frame.to_vec(), op)
    };
    prop_oneof![
        (
            prop::collection::vec(arb_rep(), 1..=64),
            any::<u64>(),
            any::<u64>(),
            any::<u32>()
        )
            .prop_map(move |(reps, provider_id, video_id, first_segment_idx)| {
                encoded(WalOp::Append {
                    first_segment_idx,
                    batch: UploadBatch {
                        provider_id,
                        video_id,
                        reps,
                    },
                })
            }),
        (arb_rep(), any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
            |(rep, provider_id, video_id, segment_idx)| {
                let frame = legacy_frame(&rep, provider_id, video_id, segment_idx);
                let op = WalOp::Append {
                    first_segment_idx: segment_idx,
                    batch: UploadBatch {
                        provider_id,
                        video_id,
                        reps: vec![rep],
                    },
                };
                (frame, op)
            }
        ),
        (any::<u64>(), any::<u64>()).prop_map(move |(provider_id, cold_seq)| {
            encoded(WalOp::Retract {
                provider_id,
                cold_seq,
            })
        }),
        (0.0f64..1.0e6).prop_map(move |horizon_s| encoded(WalOp::Expire { horizon_s })),
    ]
}

/// The codec quantises reps (fixed-point lat/lng, coarse theta), so a
/// round-tripped Append is codec-equal rather than bit-equal.
fn ops_equivalent(a: &WalOp, b: &WalOp) -> bool {
    match (a, b) {
        (
            WalOp::Append {
                first_segment_idx: fa,
                batch: ba,
            },
            WalOp::Append {
                first_segment_idx: fb,
                batch: bb,
            },
        ) => {
            fa == fb
                && (ba.provider_id, ba.video_id) == (bb.provider_id, bb.video_id)
                && ba.reps.len() == bb.reps.len()
                && ba.reps.iter().zip(&bb.reps).all(|(ra, rb)| {
                    (ra.t_start - rb.t_start).abs() < 0.5 && (ra.t_end - rb.t_end).abs() < 0.5
                })
        }
        (x, y) => x == y,
    }
}

proptest! {
    #[test]
    fn frame_round_trip(frames in prop::collection::vec(arb_frame(), 1..40)) {
        let raw: Vec<u8> = frames.iter().flat_map(|(f, _)| f.iter().copied()).collect();
        let ops: Vec<&WalOp> = frames.iter().map(|(_, op)| op).collect();
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
        for (a, b) in ops.into_iter().zip(&decoded) {
            prop_assert!(ops_equivalent(a, b), "{:?} != {:?}", a, b);
        }
    }

    #[test]
    fn torn_tail_truncates_to_last_whole_record(
        frames in prop::collection::vec(arb_frame(), 1..30),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = tmp_dir();
        let clock = Arc::new(ManualClock::new());
        let mut w = WalWriter::open(&dir, 0, 0, clock).unwrap();
        let mut sizes = Vec::new();
        for (frame, _) in &frames {
            sizes.push(frame.len());
            w.append(frame).unwrap();
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
        for ((_, got), (_, want)) in rec.ops.iter().zip(&frames) {
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
        frames in prop::collection::vec(arb_frame(), 1..10),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut raw: Vec<u8> = frames.iter().flat_map(|(f, _)| f.iter().copied()).collect();
        let idx = ((raw.len() - 1) as f64 * byte_frac) as usize;
        raw[idx] ^= 1 << bit;

        // Walk frames; the flipped frame must not decode as a silently
        // different op — it is torn (a crc mismatch, or a flipped length
        // pointing past the end), or re-framed such that the walk ends
        // early. What must never happen: all frames Complete AND equal
        // to the originals in count but not content without a crc error,
        // or a flip that reads as a crc-valid frame recovery would refuse
        // instead of truncating.
        let mut offset = 0;
        let mut decoded = Vec::new();
        let mut clean = true;
        while offset < raw.len() {
            match check_frame(&raw[offset..]) {
                FrameCheck::Complete(op, size) => {
                    decoded.push(op);
                    offset += size;
                }
                FrameCheck::Undecodable => {
                    prop_assert!(false, "bit flip at byte {} reads as undecodable", idx);
                }
                FrameCheck::Torn => { clean = false; break; }
            }
        }
        // Every byte of the stream is covered by a length, crc, or
        // crc-checked payload field, so a full clean decode after a flip
        // means the corruption went undetected.
        prop_assert!(
            !(clean && decoded.len() == frames.len()),
            "bit flip at byte {} went undetected",
            idx
        );
    }
}
