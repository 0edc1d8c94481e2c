//! Append-only segment WAL with crc32-framed records.
//!
//! Every durable mutation is one frame, and one ingest call is one frame
//! however many segments it carries:
//!
//! ```text
//! | payload_len u32 | crc32(payload) u32 | payload |
//! payload = tag u8 + body
//!   tag 4 Append  : first_segment_idx u32 + DescriptorCodec::encode_batch
//!                   (the upload batch's wire bytes: 23 B header, 22 B a rep;
//!                   rep i is segment first_segment_idx + i of the video)
//!   tag 2 Retract : provider_id u64 + cold_seq u64
//!                   (a legacy 8-byte body, provider_id only, still decodes)
//!   tag 3 Expire  : horizon_s f64 bits
//!   tag 1 (legacy): SegmentRef (20 B) + one rep (22 B), one frame a
//!                   segment; still decodes, as a one-rep Append
//! ```
//!
//! A frame is encoded before anything is written, and a frame the codec
//! cannot encode, or one over [`MAX_FRAME_PAYLOAD`], is refused with a
//! typed error: the caller applies nothing. Each accepted frame goes
//! straight to the kernel in one `write` (page cache); fsync is
//! group-committed *off the ingest path*: with a nonzero
//! `fsync_interval_micros` the writer never syncs inline — the owner runs
//! a flusher that calls [`WalWriter::sync`] on that cadence, so a burst of
//! appends shares one disk flush and no append ever waits on the disk.
//! Interval 0 is the strict mode: every append syncs before returning.
//!
//! Opening a WAL directory scans frames in sequence order and truncates
//! at the first short or crc-failing frame — the classic torn-tail rule:
//! everything before the tear is the durable prefix, everything after
//! never happened. A whole, crc-valid frame this build cannot decode is
//! not a tear: recovery refuses it and touches nothing.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::{Buf, BufMut, BytesMut};
use swag_core::{DescriptorCodec, RepFov, UploadBatch};
use swag_obs::MonotonicClock;

use crate::crc::crc32;
use crate::segment::SegmentRef;
use crate::StoreError;

/// Upper bound on a frame payload. A larger frame is refused when it is
/// encoded, and a length field above it reads as a tear, never as an
/// allocation request.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

const TAG_LEGACY_APPEND: u8 = 1;
const TAG_RETRACT: u8 = 2;
const TAG_EXPIRE: u8 = 3;
const TAG_APPEND: u8 = 4;

/// `cold_seq` of a Retract frame written with the legacy 8-byte body.
/// Recovery clamps it to the next run sequence, so it hides the provider
/// from every run present when the directory is opened.
pub const LEGACY_RETRACT_COLD_SEQ: u64 = u64::MAX;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// One ingest call: an upload batch whose rep `i` is segment
    /// `first_segment_idx + i` of the batch's video.
    Append {
        /// Segment index of the batch's first rep.
        first_segment_idx: u32,
        /// The batch, as the descriptor codec decodes it.
        batch: UploadBatch,
    },
    /// All of a provider's segments were retracted.
    Retract {
        /// The provider being forgotten.
        provider_id: u64,
        /// Cold-run sequence current at retraction: runs numbered below
        /// it hide the provider's rows, later runs (rows uploaded after
        /// retracting) do not. [`LEGACY_RETRACT_COLD_SEQ`] for a frame
        /// written before the field existed.
        cold_seq: u64,
    },
    /// Retention advanced: segments ending before the horizon dropped.
    Expire {
        /// Absolute horizon in seconds.
        horizon_s: f64,
    },
}

/// The `(rep, source)` records of an ingest call that logs `batch` with
/// its first rep at `first_segment_idx`.
pub fn batch_records(
    first_segment_idx: u32,
    batch: &UploadBatch,
) -> impl Iterator<Item = (RepFov, SegmentRef)> + '_ {
    (0u32..).zip(&batch.reps).map(move |(i, rep)| {
        let source = SegmentRef {
            provider_id: batch.provider_id,
            video_id: batch.video_id,
            segment_idx: first_segment_idx.wrapping_add(i),
        };
        (*rep, source)
    })
}

/// Appends the frame of one ingest call (see [`WalOp::Append`]) to `out`.
/// Refuses a rep the codec cannot encode and a payload over
/// [`MAX_FRAME_PAYLOAD`]; `out` is unchanged then.
pub fn encode_append(
    first_segment_idx: u32,
    batch: &UploadBatch,
    out: &mut BytesMut,
) -> Result<(), StoreError> {
    let len = 1 + 4 + DescriptorCodec::batch_size(batch.reps.len());
    if len > MAX_FRAME_PAYLOAD {
        return Err(StoreError::FrameTooLarge(len));
    }
    let wire = DescriptorCodec::encode_batch(batch).map_err(StoreError::Codec)?;
    let first = first_segment_idx.to_le_bytes();
    put_frame(out, &[&[TAG_APPEND], &first, &wire]);
    Ok(())
}

/// Appends the frame logging `op` to `out`, refusing it as
/// [`encode_append`] does.
pub fn encode_frame(op: &WalOp, out: &mut BytesMut) -> Result<(), StoreError> {
    match *op {
        WalOp::Append {
            first_segment_idx,
            ref batch,
        } => return encode_append(first_segment_idx, batch, out),
        WalOp::Retract {
            provider_id,
            cold_seq,
        } => {
            let (provider, seq) = (provider_id.to_le_bytes(), cold_seq.to_le_bytes());
            put_frame(out, &[&[TAG_RETRACT], &provider, &seq]);
        }
        WalOp::Expire { horizon_s } => {
            put_frame(out, &[&[TAG_EXPIRE], &horizon_s.to_bits().to_le_bytes()]);
        }
    }
    Ok(())
}

/// Frames the concatenation of `parts` as one payload.
fn put_frame(out: &mut BytesMut, parts: &[&[u8]]) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    out.put_u32_le(len as u32);
    let crc_at = out.len();
    out.put_u32_le(0);
    for part in parts {
        out.extend_from_slice(part);
    }
    let crc = crc32(&out[crc_at + 4..]);
    out[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Outcome of inspecting the bytes at a frame boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameCheck {
    /// A whole, checksummed frame: the op and its total encoded size.
    Complete(WalOp, usize),
    /// A torn tail: the buffer ends mid-frame, the length is impossible,
    /// or the payload fails its crc.
    Torn,
    /// The frame is whole and passes its crc, but its tag or body is not
    /// one this build decodes. Not a tear: something wrote it on purpose.
    Undecodable,
}

/// Checks the frame starting at `buf[0]`.
pub fn check_frame(buf: &[u8]) -> FrameCheck {
    if buf.len() < 8 {
        return FrameCheck::Torn;
    }
    let mut head = buf;
    let len = head.get_u32_le() as usize;
    let crc = head.get_u32_le();
    if len == 0 || len > MAX_FRAME_PAYLOAD || head.len() < len || crc32(&head[..len]) != crc {
        return FrameCheck::Torn;
    }
    let payload = &head[..len];
    match decode_payload(payload) {
        Some(op) => FrameCheck::Complete(op, 8 + len),
        None => FrameCheck::Undecodable,
    }
}

fn decode_payload(payload: &[u8]) -> Option<WalOp> {
    let mut buf = payload;
    let tag = buf.get_u8();
    match tag {
        TAG_APPEND => {
            if buf.len() < 4 {
                return None;
            }
            let first_segment_idx = buf.get_u32_le();
            let batch = DescriptorCodec::decode_batch(buf).ok()?;
            Some(WalOp::Append {
                first_segment_idx,
                batch,
            })
        }
        TAG_LEGACY_APPEND => {
            if buf.len() != 8 + 8 + 4 + DescriptorCodec::RECORD_SIZE {
                return None;
            }
            let provider_id = buf.get_u64_le();
            let video_id = buf.get_u64_le();
            let first_segment_idx = buf.get_u32_le();
            let rep = DescriptorCodec::decode_rep(&mut buf).ok()?;
            Some(WalOp::Append {
                first_segment_idx,
                batch: UploadBatch {
                    provider_id,
                    video_id,
                    reps: vec![rep],
                },
            })
        }
        TAG_RETRACT => {
            if buf.len() != 8 && buf.len() != 16 {
                return None;
            }
            let provider_id = buf.get_u64_le();
            let cold_seq = if buf.is_empty() {
                LEGACY_RETRACT_COLD_SEQ
            } else {
                buf.get_u64_le()
            };
            Some(WalOp::Retract {
                provider_id,
                cold_seq,
            })
        }
        TAG_EXPIRE => {
            if buf.len() != 8 {
                return None;
            }
            Some(WalOp::Expire {
                horizon_s: f64::from_bits(buf.get_u64_le()),
            })
        }
        _ => None,
    }
}

fn segment_file_name(start_seq: u64) -> String {
    format!("wal-{start_seq:020}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Result of scanning (and repairing) a WAL directory.
#[derive(Debug)]
pub struct WalRecovery {
    /// Durable ops in sequence order, each with its sequence number.
    pub ops: Vec<(u64, WalOp)>,
    /// The sequence number the next append will get.
    pub next_seq: u64,
    /// Bytes truncated from torn tails (0 on a clean shutdown).
    pub truncated_bytes: u64,
    /// Surviving segment files as `(start_seq, end_seq, path)`.
    pub segments: Vec<(u64, u64, PathBuf)>,
}

/// Scans a WAL directory, truncating torn tails in place.
///
/// Segments are read in start-sequence order. The first short or
/// crc-failing frame ends the durable prefix: its file is truncated at
/// that offset and any later segment files are removed (they lie beyond
/// the tear and their sequence numbers would collide with re-appends).
/// A crc-valid frame that does not decode, met before any tear (so
/// before any repair), is [`StoreError::Corrupt`] naming its file and
/// offset, and no file is changed.
pub fn recover_wal_dir(dir: &Path) -> Result<WalRecovery, StoreError> {
    let io = |e| StoreError::Io(format!("recover wal: {e}"));
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    if dir.exists() {
        for entry in std::fs::read_dir(dir).map_err(io)? {
            let entry = entry.map_err(io)?;
            if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_name) {
                segments.push((seq, entry.path()));
            }
        }
    }
    segments.sort_by_key(|(seq, _)| *seq);

    let mut ops = Vec::new();
    let mut next_seq = 0u64;
    let mut truncated_bytes = 0u64;
    let mut surviving = Vec::new();
    let mut torn = false;
    for (i, (start_seq, path)) in segments.iter().enumerate() {
        if torn {
            truncated_bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            std::fs::remove_file(path).map_err(io)?;
            continue;
        }
        let raw = std::fs::read(path).map_err(io)?;
        let mut offset = 0usize;
        let mut seq = *start_seq;
        while offset < raw.len() {
            match check_frame(&raw[offset..]) {
                FrameCheck::Complete(op, size) => {
                    ops.push((seq, op));
                    seq += 1;
                    offset += size;
                }
                FrameCheck::Undecodable => {
                    return Err(StoreError::Corrupt(format!(
                        "{}: crc-valid wal frame at offset {offset} does not decode",
                        path.display()
                    )));
                }
                FrameCheck::Torn => {
                    truncated_bytes += (raw.len() - offset) as u64;
                    let f = OpenOptions::new().write(true).open(path).map_err(io)?;
                    f.set_len(offset as u64)
                        .and_then(|()| f.sync_data())
                        .map_err(io)?;
                    torn = true;
                    break;
                }
            }
        }
        next_seq = seq;
        surviving.push((*start_seq, seq, path.clone()));
        if !torn && i + 1 < segments.len() && segments[i + 1].0 != seq {
            // A gap between segments means the later file predates a
            // truncation we did not finish; treat it like a tear.
            torn = true;
        }
    }
    Ok(WalRecovery {
        ops,
        next_seq,
        truncated_bytes,
        segments: surviving,
    })
}

/// The active WAL segment writer.
pub struct WalWriter {
    dir: PathBuf,
    file: File,
    path: PathBuf,
    segment_start: u64,
    next_seq: u64,
    segment_bytes: u64,
    unsynced_bytes: u64,
    fsync_interval_micros: u64,
    /// Bumped on rotation so an in-flight background sync of the old
    /// file cannot be credited against the new one.
    file_epoch: u64,
    clock: Arc<dyn MonotonicClock>,
    /// A failed write could not be cut back off the segment: its bytes
    /// may follow the last whole frame, so nothing may be appended after.
    torn: bool,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("path", &self.path)
            .field("next_seq", &self.next_seq)
            .field("segment_bytes", &self.segment_bytes)
            .finish()
    }
}

impl WalWriter {
    /// Opens (creating if needed) the segment whose first record is
    /// `start_seq`. Appending to an existing clean segment is fine — the
    /// caller derives `start_seq` from [`recover_wal_dir`].
    pub fn open(
        dir: &Path,
        start_seq: u64,
        fsync_interval_micros: u64,
        clock: Arc<dyn MonotonicClock>,
    ) -> std::io::Result<WalWriter> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(segment_file_name(start_seq));
        let existing = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            file,
            path,
            segment_start: start_seq,
            next_seq: start_seq,
            segment_bytes: existing,
            unsynced_bytes: 0,
            fsync_interval_micros,
            file_epoch: 0,
            clock,
            torn: false,
        })
    }

    /// Sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes in the active segment.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Bytes written but not yet fsynced (the durability lag).
    pub fn unsynced_bytes(&self) -> u64 {
        self.unsynced_bytes
    }

    /// Appends one encoded frame ([`encode_frame`]) in one `write`. In
    /// strict mode (interval 0) it is fsynced before returning, and the
    /// fsync's duration returned; otherwise it lands in the page cache
    /// and the owner's flusher group-commits it within the interval. On
    /// error the frame is not in the log: the segment is cut back to its
    /// last whole frame, and if that fails too, every later append is
    /// refused.
    pub fn append(&mut self, frame: &[u8]) -> std::io::Result<Option<u64>> {
        if self.torn {
            return Err(std::io::Error::other("wal segment ends in a failed write"));
        }
        let strict = self.fsync_interval_micros == 0;
        let t0 = self.clock.now_micros();
        let mut written = self.file.write_all(frame);
        if strict {
            written = written.and_then(|()| self.file.sync_data());
        }
        if let Err(e) = written {
            self.torn = self.file.set_len(self.segment_bytes).is_err();
            return Err(e);
        }
        self.next_seq += 1;
        self.segment_bytes += frame.len() as u64;
        if !strict {
            self.unsynced_bytes += frame.len() as u64;
        }
        Ok(strict.then(|| self.clock.now_micros() - t0))
    }

    /// Fsyncs the active segment; returns the fsync duration.
    pub fn sync(&mut self) -> std::io::Result<u64> {
        let t0 = self.clock.now_micros();
        self.file.sync_data()?;
        self.unsynced_bytes = 0;
        Ok(self.clock.now_micros() - t0)
    }

    /// First half of a lock-free-ish background sync: hands back a
    /// cloned fd plus the lag it will cover. The caller drops the writer
    /// lock, runs `sync_data` on the clone, then reports back via
    /// [`WalWriter::finish_background_sync`] — appends keep flowing while
    /// the disk works. `None` when there is nothing to sync or the fd
    /// cannot be cloned.
    pub fn begin_background_sync(&mut self) -> Option<(File, u64, u64)> {
        if self.unsynced_bytes == 0 {
            return None;
        }
        let file = self.file.try_clone().ok()?;
        Some((file, self.unsynced_bytes, self.file_epoch))
    }

    /// Credits a completed background sync. Ignored if the segment
    /// rotated meanwhile (rotation syncs the old file itself).
    pub fn finish_background_sync(&mut self, covered: u64, epoch: u64) {
        if epoch == self.file_epoch {
            self.unsynced_bytes = self.unsynced_bytes.saturating_sub(covered);
        }
    }

    /// Closes the active segment (fsyncing it) and starts a fresh one.
    ///
    /// Returns the closed segment's `(start_seq, end_seq, path)`, or
    /// `None` if the active segment held no records.
    pub fn rotate(&mut self) -> std::io::Result<Option<(u64, u64, PathBuf)>> {
        if self.next_seq == self.segment_start {
            return Ok(None);
        }
        self.sync()?;
        let closed = (self.segment_start, self.next_seq, self.path.clone());
        let path = self.dir.join(segment_file_name(self.next_seq));
        self.file = OpenOptions::new().create(true).append(true).open(&path)?;
        self.path = path;
        self.segment_start = self.next_seq;
        self.segment_bytes = 0;
        self.unsynced_bytes = 0;
        self.file_epoch += 1;
        Ok(Some(closed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_core::Fov;
    use swag_geo::LatLon;
    use swag_obs::ManualClock;

    fn op(i: u64) -> WalOp {
        let rep = |k: u64| {
            let t = (i * 4 + k) as f64;
            RepFov::new(t, t + 1.0, Fov::new(LatLon::new(40.0, 116.0), 0.0))
        };
        WalOp::Append {
            first_segment_idx: i as u32,
            batch: UploadBatch {
                provider_id: i,
                video_id: i * 2,
                reps: (0..1 + i % 3).map(rep).collect(),
            },
        }
    }

    fn frame(op: &WalOp) -> BytesMut {
        let mut out = BytesMut::new();
        encode_frame(op, &mut out).unwrap();
        out
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "swag-wal-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn append_and_recover_round_trip() {
        let dir = tmp_dir("rt");
        let clock = Arc::new(ManualClock::new());
        let mut w = WalWriter::open(&dir, 0, 0, clock).unwrap();
        for i in 0..10 {
            w.append(&frame(&op(i))).unwrap();
        }
        let retract = WalOp::Retract {
            provider_id: 3,
            cold_seq: 17,
        };
        w.append(&frame(&retract)).unwrap();
        w.append(&frame(&WalOp::Expire { horizon_s: 42.5 }))
            .unwrap();
        drop(w);
        let rec = recover_wal_dir(&dir).unwrap();
        assert_eq!(rec.ops.len(), 12);
        assert_eq!(rec.next_seq, 12);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.ops[0], (0, op(0)));
        assert_eq!(rec.ops[5], (5, op(5)));
        assert_eq!(rec.ops[10].1, retract);
        assert_eq!(rec.ops[11].1, WalOp::Expire { horizon_s: 42.5 });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refused_frames_leave_out_untouched() {
        let mut out = BytesMut::new();
        let bad = UploadBatch {
            provider_id: 1,
            video_id: 0,
            reps: vec![RepFov::new(
                -1.0,
                1.0,
                Fov::new(LatLon::new(40.0, 116.0), 0.0),
            )],
        };
        let err = encode_append(0, &bad, &mut out).unwrap_err();
        assert!(matches!(err, StoreError::Codec(_)), "{err}");
        let huge = UploadBatch {
            reps: vec![bad.reps[0]; MAX_FRAME_PAYLOAD / DescriptorCodec::RECORD_SIZE + 1],
            ..bad
        };
        let err = encode_append(0, &huge, &mut out).unwrap_err();
        assert!(matches!(err, StoreError::FrameTooLarge(_)), "{err}");
        assert!(out.is_empty());
    }

    #[test]
    fn group_commit_defers_fsync_to_the_flusher() {
        let dir = tmp_dir("gc");
        let clock = Arc::new(ManualClock::new());
        let mut w = WalWriter::open(&dir, 0, 1000, Arc::clone(&clock) as _).unwrap();
        // Nonzero interval: appends never fsync inline; the lag grows
        // until the owner's flusher (or an explicit sync) drains it.
        assert!(w.append(&frame(&op(0))).unwrap().is_none());
        assert!(w.append(&frame(&op(1))).unwrap().is_none());
        assert!(w.unsynced_bytes() > 0);
        w.sync().unwrap();
        assert_eq!(w.unsynced_bytes(), 0);
        // Strict mode: every append pays its own fsync.
        let mut strict = WalWriter::open(&dir, 10, 0, Arc::new(ManualClock::new())).unwrap();
        assert!(strict.append(&frame(&op(2))).unwrap().is_some());
        assert_eq!(strict.unsynced_bytes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A write the device refuses is not in the log: sequence and size
    /// stay where they were. (The directory is never recovered: the
    /// segment reads as an endless stream of zeros.)
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_write_assigns_no_sequence() {
        let dir = tmp_dir("full");
        std::os::unix::fs::symlink("/dev/full", dir.join(segment_file_name(0))).unwrap();
        let mut w = WalWriter::open(&dir, 0, 1000, Arc::new(ManualClock::new())).unwrap();
        let before = (w.next_seq(), w.segment_bytes());
        assert!(w.append(&frame(&op(0))).is_err());
        assert_eq!((w.next_seq(), w.segment_bytes()), before);
        assert!(w.append(&frame(&op(1))).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_splits_segments_and_recovery_merges_them() {
        let dir = tmp_dir("rot");
        let clock = Arc::new(ManualClock::new());
        let mut w = WalWriter::open(&dir, 0, 0, clock).unwrap();
        for i in 0..4 {
            w.append(&frame(&op(i))).unwrap();
        }
        let closed = w.rotate().unwrap().unwrap();
        assert_eq!((closed.0, closed.1), (0, 4));
        assert!(
            w.rotate().unwrap().is_none(),
            "empty segment does not rotate"
        );
        for i in 4..7 {
            w.append(&frame(&op(i))).unwrap();
        }
        drop(w);
        let rec = recover_wal_dir(&dir).unwrap();
        assert_eq!(rec.ops.len(), 7);
        assert_eq!(rec.next_seq, 7);
        let seqs: Vec<u64> = rec.ops.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..7).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncates_to_last_whole_frame() {
        let dir = tmp_dir("torn");
        let clock = Arc::new(ManualClock::new());
        let mut w = WalWriter::open(&dir, 0, 0, clock).unwrap();
        for i in 0..5 {
            w.append(&frame(&op(i))).unwrap();
        }
        drop(w);
        let path = dir.join(segment_file_name(0));
        let len = std::fs::metadata(&path).unwrap().len();
        // Chop mid-frame.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);
        let rec = recover_wal_dir(&dir).unwrap();
        assert_eq!(rec.ops.len(), 4);
        assert_eq!(rec.next_seq, 4);
        assert!(rec.truncated_bytes > 0);
        // The file was repaired in place: a second recovery is clean.
        let rec2 = recover_wal_dir(&dir).unwrap();
        assert_eq!(rec2.ops.len(), 4);
        assert_eq!(rec2.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_continues_sequence_in_same_segment() {
        let dir = tmp_dir("reopen");
        let clock: Arc<dyn MonotonicClock> = Arc::new(ManualClock::new());
        let mut w = WalWriter::open(&dir, 0, 0, Arc::clone(&clock)).unwrap();
        for i in 0..3 {
            w.append(&frame(&op(i))).unwrap();
        }
        drop(w);
        let rec = recover_wal_dir(&dir).unwrap();
        let mut w = WalWriter::open(&dir, rec.next_seq, 0, clock).unwrap();
        // next_seq=3 names a new segment file; both merge on recovery.
        w.append(&frame(&op(3))).unwrap();
        drop(w);
        let rec = recover_wal_dir(&dir).unwrap();
        assert_eq!(rec.ops.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
