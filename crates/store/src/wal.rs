//! Append-only segment WAL with crc32-framed records.
//!
//! Every mutation on the server's ingest path becomes one frame:
//!
//! ```text
//! | payload_len u32 | crc32(payload) u32 | payload |
//! payload = tag u8 + body
//!   tag 1 Append  : SegmentRef (20 B) + DescriptorCodec rep (22 B)
//!   tag 2 Retract : provider_id u64 + cold_seq u64
//!                   (a legacy 8-byte body, provider_id only, still decodes)
//!   tag 3 Expire  : horizon_s f64 bits
//! ```
//!
//! Frames are written immediately (page cache); fsync is group-committed
//! *off the ingest path*: with a nonzero `fsync_interval_micros` the
//! writer never syncs inline — the owner runs a flusher that calls
//! [`WalWriter::sync`] on that cadence, so a burst of appends shares one
//! disk flush and no append ever waits on the disk. Interval 0 is the
//! strict mode: every append syncs before returning. Opening a WAL
//! directory scans frames in sequence order and truncates the first
//! incomplete or corrupt frame — the classic torn-tail rule: everything
//! before the tear is the durable prefix, everything after never happened.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::{Buf, BufMut, BytesMut};
use swag_core::{DescriptorCodec, RepFov};
use swag_obs::MonotonicClock;

use crate::crc::crc32;
use crate::segment::SegmentRef;

/// Upper bound on a frame payload; anything larger is treated as
/// corruption rather than an allocation request.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// Pending appends are batched in memory and written to the file in
/// chunks of at most this size, so the ingest path pays one `write`
/// syscall per ~1400 frames instead of one per frame. `sync`, `rotate`
/// and segment-size accounting all see through the buffer.
const WRITE_BUF_BYTES: usize = 64 << 10;

const TAG_APPEND: u8 = 1;
const TAG_RETRACT: u8 = 2;
const TAG_EXPIRE: u8 = 3;

/// `cold_seq` of a Retract frame written with the legacy 8-byte body.
/// Recovery clamps it to the next run sequence, so it hides the provider
/// from every run present when the directory is opened.
pub const LEGACY_RETRACT_COLD_SEQ: u64 = u64::MAX;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A representative FoV was ingested.
    Append {
        /// The uploaded representative FoV.
        rep: RepFov,
        /// Source video segment reference.
        source: SegmentRef,
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

/// Encodes one op as a framed WAL record.
pub fn encode_frame(op: &WalOp, out: &mut BytesMut) {
    let mut payload = BytesMut::with_capacity(64);
    match op {
        WalOp::Append { rep, source } => {
            payload.put_u8(TAG_APPEND);
            payload.put_u64_le(source.provider_id);
            payload.put_u64_le(source.video_id);
            payload.put_u32_le(source.segment_idx);
            DescriptorCodec::encode_rep(rep, &mut payload)
                .expect("ingested rep is inside the codec domain");
        }
        WalOp::Retract {
            provider_id,
            cold_seq,
        } => {
            payload.put_u8(TAG_RETRACT);
            payload.put_u64_le(*provider_id);
            payload.put_u64_le(*cold_seq);
        }
        WalOp::Expire { horizon_s } => {
            payload.put_u8(TAG_EXPIRE);
            payload.put_u64_le(horizon_s.to_bits());
        }
    }
    out.put_u32_le(payload.len() as u32);
    out.put_u32_le(crc32(&payload));
    out.extend_from_slice(&payload);
}

/// Outcome of inspecting the bytes at a frame boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameCheck {
    /// A whole, checksummed frame: the op and its total encoded size.
    Complete(WalOp, usize),
    /// The buffer ends mid-frame (torn tail).
    Incomplete,
    /// The frame is whole but fails its crc or carries a bad payload.
    Corrupt,
}

/// Checks the frame starting at `buf[0]`.
pub fn check_frame(buf: &[u8]) -> FrameCheck {
    if buf.len() < 8 {
        return FrameCheck::Incomplete;
    }
    let mut head = buf;
    let len = head.get_u32_le() as usize;
    let crc = head.get_u32_le();
    if len == 0 || len > MAX_FRAME_PAYLOAD {
        return FrameCheck::Corrupt;
    }
    if head.len() < len {
        return FrameCheck::Incomplete;
    }
    let payload = &head[..len];
    if crc32(payload) != crc {
        return FrameCheck::Corrupt;
    }
    match decode_payload(payload) {
        Some(op) => FrameCheck::Complete(op, 8 + len),
        None => FrameCheck::Corrupt,
    }
}

fn decode_payload(payload: &[u8]) -> Option<WalOp> {
    let mut buf = payload;
    if buf.is_empty() {
        return None;
    }
    let tag = buf.get_u8();
    match tag {
        TAG_APPEND => {
            if buf.len() != 8 + 8 + 4 + DescriptorCodec::RECORD_SIZE {
                return None;
            }
            let source = SegmentRef {
                provider_id: buf.get_u64_le(),
                video_id: buf.get_u64_le(),
                segment_idx: buf.get_u32_le(),
            };
            let rep = DescriptorCodec::decode_rep(&mut buf).ok()?;
            Some(WalOp::Append { rep, source })
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
/// Segments are read in start-sequence order. The first incomplete or
/// corrupt frame ends the durable prefix: its file is truncated at that
/// offset and any later segment files are removed (they lie beyond the
/// tear and their sequence numbers would collide with re-appends).
pub fn recover_wal_dir(dir: &Path) -> std::io::Result<WalRecovery> {
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    if dir.exists() {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
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
            std::fs::remove_file(path)?;
            continue;
        }
        let mut raw = Vec::new();
        File::open(path)?.read_to_end(&mut raw)?;
        let mut offset = 0usize;
        let mut seq = *start_seq;
        while offset < raw.len() {
            match check_frame(&raw[offset..]) {
                FrameCheck::Complete(op, size) => {
                    ops.push((seq, op));
                    seq += 1;
                    offset += size;
                }
                FrameCheck::Incomplete | FrameCheck::Corrupt => {
                    truncated_bytes += (raw.len() - offset) as u64;
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(offset as u64)?;
                    f.sync_data()?;
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

/// What one append did, for the caller's metrics.
#[derive(Debug, Clone, Copy)]
pub struct AppendInfo {
    /// Sequence number the op was assigned.
    pub seq: u64,
    /// Frame bytes written.
    pub bytes: u64,
    /// If this append triggered a group-commit fsync, its duration.
    pub fsync_micros: Option<u64>,
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
    scratch: BytesMut,
    /// Frames accepted but not yet handed to the kernel.
    buf: Vec<u8>,
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

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Buffered frames were accepted; hand them to the kernel (no
        // fsync — that is the owner's call) rather than losing them.
        let _ = self.flush_buf();
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
            scratch: BytesMut::with_capacity(64),
            buf: Vec::with_capacity(WRITE_BUF_BYTES),
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

    /// Appends one op. In strict mode (interval 0) the frame is fsynced
    /// before returning; otherwise the write lands in the page cache and
    /// the owner's flusher group-commits it within the interval.
    pub fn append(&mut self, op: &WalOp) -> std::io::Result<AppendInfo> {
        self.scratch.clear();
        encode_frame(op, &mut self.scratch);
        self.buf.extend_from_slice(&self.scratch);
        if self.buf.len() >= WRITE_BUF_BYTES {
            self.flush_buf()?;
        }
        let bytes = self.scratch.len() as u64;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.segment_bytes += bytes;
        self.unsynced_bytes += bytes;
        let fsync_micros = if self.fsync_interval_micros == 0 {
            Some(self.sync()?)
        } else {
            None
        };
        Ok(AppendInfo {
            seq,
            bytes,
            fsync_micros,
        })
    }

    /// Hands buffered frames to the kernel.
    fn flush_buf(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Flushes buffered frames and fsyncs the active segment; returns
    /// the fsync duration.
    pub fn sync(&mut self) -> std::io::Result<u64> {
        self.flush_buf()?;
        let t0 = self.clock.now_micros();
        self.file.sync_data()?;
        self.unsynced_bytes = 0;
        Ok(self.clock.now_micros() - t0)
    }

    /// First half of a lock-free-ish background sync: flushes buffered
    /// frames and hands back a cloned fd plus the lag it will cover.
    /// The caller drops the writer lock, runs `sync_data` on the clone,
    /// then reports back via [`WalWriter::finish_background_sync`] —
    /// appends keep flowing while the disk works. `None` when there is
    /// nothing to sync or the fd cannot be cloned.
    pub fn begin_background_sync(&mut self) -> Option<(File, u64, u64)> {
        if self.unsynced_bytes == 0 {
            return None;
        }
        self.flush_buf().ok()?;
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
        WalOp::Append {
            rep: RepFov::new(
                i as f64,
                i as f64 + 1.0,
                Fov::new(LatLon::new(40.0, 116.0), (i % 360) as f64),
            ),
            source: SegmentRef {
                provider_id: i,
                video_id: i * 2,
                segment_idx: i as u32,
            },
        }
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
            w.append(&op(i)).unwrap();
        }
        let retract = WalOp::Retract {
            provider_id: 3,
            cold_seq: 17,
        };
        w.append(&retract).unwrap();
        w.append(&WalOp::Expire { horizon_s: 42.5 }).unwrap();
        drop(w);
        let rec = recover_wal_dir(&dir).unwrap();
        assert_eq!(rec.ops.len(), 12);
        assert_eq!(rec.next_seq, 12);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.ops[0], (0, op(0)));
        assert_eq!(rec.ops[10].1, retract);
        assert_eq!(rec.ops[11].1, WalOp::Expire { horizon_s: 42.5 });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_defers_fsync_to_the_flusher() {
        let dir = tmp_dir("gc");
        let clock = Arc::new(ManualClock::new());
        let mut w = WalWriter::open(&dir, 0, 1000, Arc::clone(&clock) as _).unwrap();
        // Nonzero interval: appends never fsync inline; the lag grows
        // until the owner's flusher (or an explicit sync) drains it.
        assert!(w.append(&op(0)).unwrap().fsync_micros.is_none());
        assert!(w.append(&op(1)).unwrap().fsync_micros.is_none());
        assert!(w.unsynced_bytes() > 0);
        w.sync().unwrap();
        assert_eq!(w.unsynced_bytes(), 0);
        // Strict mode: every append pays its own fsync.
        let mut strict = WalWriter::open(&dir, 10, 0, Arc::new(ManualClock::new())).unwrap();
        assert!(strict.append(&op(2)).unwrap().fsync_micros.is_some());
        assert_eq!(strict.unsynced_bytes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_splits_segments_and_recovery_merges_them() {
        let dir = tmp_dir("rot");
        let clock = Arc::new(ManualClock::new());
        let mut w = WalWriter::open(&dir, 0, 0, clock).unwrap();
        for i in 0..4 {
            w.append(&op(i)).unwrap();
        }
        let closed = w.rotate().unwrap().unwrap();
        assert_eq!((closed.0, closed.1), (0, 4));
        assert!(
            w.rotate().unwrap().is_none(),
            "empty segment does not rotate"
        );
        for i in 4..7 {
            w.append(&op(i)).unwrap();
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
            w.append(&op(i)).unwrap();
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
            w.append(&op(i)).unwrap();
        }
        drop(w);
        let rec = recover_wal_dir(&dir).unwrap();
        let mut w = WalWriter::open(&dir, rec.next_seq, 0, clock).unwrap();
        // next_seq=3 names a new segment file; both merge on recovery.
        w.append(&op(3)).unwrap();
        drop(w);
        let rec = recover_wal_dir(&dir).unwrap();
        assert_eq!(rec.ops.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
