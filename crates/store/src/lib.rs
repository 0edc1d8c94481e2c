//! # swag-store — durable storage layer for the SWAG cloud server
//!
//! The server's queryable state is exactly its representative-FoV records
//! (the R-tree is derived data), which makes durability a record-stream
//! problem. This crate layers three mechanisms on top of the in-memory
//! [`SegmentStore`] (which also lives here so background workers can hold
//! cheap copy-on-write clones of it):
//!
//! 1. **Segment WAL** (`wal`): every mutation is appended as one
//!    crc32-framed record before it touches the in-memory engine — an
//!    ingest call as one frame holding its upload batch's wire bytes —
//!    and a mutation the log refuses is not applied. Fsyncs are
//!    group-committed on an injectable clock; opening a WAL directory
//!    truncates any torn tail back to the last whole frame.
//! 2. **Incremental snapshots** (`durability`, `manifest`): each epoch
//!    publish hands a COW store clone plus the epoch's per-bucket
//!    `CacheStamp` versions to a background worker, which rewrites only
//!    the time-shard buckets whose version moved since the last manifest,
//!    then atomically swaps the manifest and retires WAL segments the new
//!    snapshot covers.
//! 3. **Cold tier** (`cold`): retention no longer deletes aged-out
//!    shards outright — their records are demoted to immutable on-disk
//!    runs that the query path can still reach through a `cold_scan`
//!    operator. Each run's header carries a zone map (count + 3-D MBR),
//!    so queries prune runs in time and space before any I/O and bodies
//!    stay on disk until a probe survives. A retracted provider's rows
//!    are hidden from the runs written before the retraction.
//!
//! Recovery ([`Durability::open`]) is "latest snapshot + WAL replay": the
//! manifest's bucket files rebuild the folded state, and WAL frames at or
//! above the manifest's `wal_floor` sequence are re-applied through the
//! server's normal ingest path, so caches and forensic stamps stay
//! consistent with a never-crashed server.

mod cold;
mod container;
mod crc;
mod durability;
mod manifest;
mod segment;
mod wal;

pub use cold::{ColdCatalog, ColdRecords, ColdRun, Retracted};
pub use container::{decode_container, encode_records, SnapshotError, Zone};
pub use crc::crc32;
pub use durability::{
    Durability, DurabilityConfig, DurabilityStats, Recovery, COLD_DIR, SNAPSHOT_DIR, WAL_DIR,
};
pub use manifest::{BucketEntry, Manifest, MANIFEST_FILE};
pub use segment::{SegmentId, SegmentRecord, SegmentRef, SegmentStore};
pub use wal::{
    batch_records, check_frame, encode_append, encode_frame, recover_wal_dir, FrameCheck, WalOp,
    WalRecovery, WalWriter, LEGACY_RETRACT_COLD_SEQ, MAX_FRAME_PAYLOAD,
};

/// Errors opening or operating a data directory.
#[derive(Debug, Clone)]
pub enum StoreError {
    /// An I/O operation failed.
    Io(String),
    /// On-disk state failed to parse or checksum.
    Corrupt(String),
    /// A WAL frame was refused: a rep the descriptor codec cannot encode.
    Codec(swag_core::descriptor::CodecError),
    /// A WAL frame was refused: this many payload bytes exceed
    /// [`MAX_FRAME_PAYLOAD`].
    FrameTooLarge(usize),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(e) => write!(f, "store corrupt: {e}"),
            StoreError::Codec(e) => write!(f, "wal frame refused: {e}"),
            StoreError::FrameTooLarge(n) => write!(f, "wal frame refused: {n} B payload"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Home time-shard bucket of a record: `floor(t_start / width)`.
///
/// Matches `ShardedFovIndex::bucket_of` in `swag-server` — bucket versions
/// in the epoch `CacheStamp` are keyed by this value, and incremental
/// snapshots group records by it.
#[inline]
pub fn home_bucket(t_start: f64, width_s: f64) -> i64 {
    (t_start / width_s).floor() as i64
}
