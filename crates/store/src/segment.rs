//! Segment metadata storage.
//!
//! The server never holds video content — only representative FoVs plus a
//! reference telling the querier *which provider's video, which segment* to
//! fetch afterwards (the content-free design of §I).

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use swag_core::RepFov;

/// Server-assigned dense identifier of a stored segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SegmentId(pub u32);

/// Where a segment's actual video bytes live on the client side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SegmentRef {
    /// Contributing provider.
    pub provider_id: u64,
    /// Video on the provider's device.
    pub video_id: u64,
    /// Segment index within that video.
    pub segment_idx: u32,
}

/// A stored segment: its representative FoV and its source reference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentRecord {
    /// Server-assigned id.
    pub id: SegmentId,
    /// The uploaded representative FoV.
    pub rep: RepFov,
    /// Source video segment.
    pub source: SegmentRef,
}

/// Records per chunk (see [`SegmentStore`]). A power of two so the
/// id → (chunk, offset) split is a shift and a mask.
const CHUNK: usize = 1024;

#[derive(Debug, Clone, Default)]
struct Chunk {
    records: Vec<SegmentRecord>,
    retired: Vec<bool>,
}

/// Append-only segment store with tombstones; `SegmentId` is the index.
///
/// Ids stay stable across retraction: [`SegmentStore::retire`] marks a
/// record dead instead of reusing its slot, so references held by queriers
/// never dangle. (Ids are *server-internal* — they may be re-assigned
/// wholesale when the store compacts or a snapshot is reloaded; the
/// durable external handle is [`SegmentRef`].)
///
/// Records live in fixed-size chunks behind `Arc`s, so cloning the store —
/// which the snapshot-publishing server does on every epoch — is
/// `O(n / CHUNK)` pointer bumps, and a clone shares all chunk memory with
/// its parent until one side writes (copy-on-write via [`Arc::make_mut`]).
#[derive(Debug, Clone, Default)]
pub struct SegmentStore {
    chunks: Vec<Arc<Chunk>>,
    total: usize,
    live: usize,
}

impl SegmentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record, assigning its id.
    pub fn push(&mut self, rep: RepFov, source: SegmentRef) -> SegmentId {
        let id = SegmentId(u32::try_from(self.total).expect("store capacity exceeded"));
        if self.total.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new(Chunk {
                records: Vec::with_capacity(CHUNK),
                retired: Vec::with_capacity(CHUNK),
            }));
        }
        let chunk = Arc::make_mut(self.chunks.last_mut().expect("chunk just ensured"));
        chunk.records.push(SegmentRecord { id, rep, source });
        chunk.retired.push(false);
        self.total += 1;
        self.live += 1;
        id
    }

    /// Looks up a record (live or retired — ids never dangle).
    #[inline]
    pub fn get(&self, id: SegmentId) -> &SegmentRecord {
        let i = id.0 as usize;
        &self.chunks[i / CHUNK].records[i % CHUNK]
    }

    /// Marks a record retired. Returns `false` if it already was.
    pub fn retire(&mut self, id: SegmentId) -> bool {
        let i = id.0 as usize;
        let chunk = Arc::make_mut(&mut self.chunks[i / CHUNK]);
        let slot = &mut chunk.retired[i % CHUNK];
        if *slot {
            false
        } else {
            *slot = true;
            self.live -= 1;
            true
        }
    }

    /// Whether a record has been retired.
    #[inline]
    pub fn is_retired(&self, id: SegmentId) -> bool {
        let i = id.0 as usize;
        self.chunks[i / CHUNK].retired[i % CHUNK]
    }

    /// Number of live (non-retired) segments.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated, retired included — also the id the next
    /// [`Self::push`] will be assigned.
    #[inline]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of retired (tombstoned) slots.
    #[inline]
    pub fn dead(&self) -> usize {
        self.total - self.live
    }

    /// Whether the store has no live segments.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over the live records.
    pub fn iter(&self) -> impl Iterator<Item = &SegmentRecord> {
        self.chunks
            .iter()
            .flat_map(|c| c.records.iter().zip(&c.retired))
            .filter(|(_, &dead)| !dead)
            .map(|(r, _)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_core::Fov;
    use swag_geo::LatLon;

    fn rep(t: f64) -> RepFov {
        RepFov::new(t, t + 1.0, Fov::new(LatLon::new(40.0, 116.0), 0.0))
    }

    fn src(p: u64) -> SegmentRef {
        SegmentRef {
            provider_id: p,
            video_id: 0,
            segment_idx: 0,
        }
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut s = SegmentStore::new();
        assert!(s.is_empty());
        let a = s.push(rep(0.0), src(1));
        let b = s.push(rep(1.0), src(2));
        assert_eq!((a, b), (SegmentId(0), SegmentId(1)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(b).source.provider_id, 2);
    }

    #[test]
    fn iter_preserves_order() {
        let mut s = SegmentStore::new();
        for i in 0..5 {
            s.push(rep(i as f64), src(i));
        }
        let providers: Vec<u64> = s.iter().map(|r| r.source.provider_id).collect();
        assert_eq!(providers, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn clone_is_independent_snapshot() {
        let mut s = SegmentStore::new();
        for i in 0..(CHUNK as u64 + 50) {
            s.push(rep(i as f64), src(i));
        }
        let snap = s.clone();
        // Mutations after the clone are invisible to the snapshot...
        let late = s.push(rep(9999.0), src(777));
        s.retire(SegmentId(0));
        assert_eq!(snap.len(), CHUNK + 50);
        assert_eq!(snap.total(), CHUNK + 50);
        assert!(!snap.is_retired(SegmentId(0)));
        // ...and both sides keep resolving every id they know about.
        assert_eq!(s.get(late).source.provider_id, 777);
        assert_eq!(snap.get(SegmentId(0)).source.provider_id, 0);
        assert_eq!(s.len(), CHUNK + 50); // +1 push, -1 retire
        assert_eq!(s.dead(), 1);
    }

    #[test]
    fn ids_stay_dense_across_chunk_boundaries() {
        let mut s = SegmentStore::new();
        let n = 3 * CHUNK + 7;
        for i in 0..n {
            let id = s.push(rep(i as f64), src(i as u64));
            assert_eq!(id, SegmentId(i as u32));
        }
        assert_eq!(s.total(), n);
        assert_eq!(s.iter().count(), n);
        assert_eq!(
            s.get(SegmentId((2 * CHUNK) as u32)).id.0 as usize,
            2 * CHUNK
        );
    }

    #[test]
    fn retire_hides_but_keeps_ids_valid() {
        let mut s = SegmentStore::new();
        let a = s.push(rep(0.0), src(1));
        let b = s.push(rep(1.0), src(2));
        assert!(s.retire(a));
        assert!(!s.retire(a), "double retire must be a no-op");
        assert_eq!(s.len(), 1);
        assert!(s.is_retired(a) && !s.is_retired(b));
        // The slot still resolves (no dangling ids).
        assert_eq!(s.get(a).source.provider_id, 1);
        let live: Vec<u64> = s.iter().map(|r| r.source.provider_id).collect();
        assert_eq!(live, vec![2]);
    }
}
