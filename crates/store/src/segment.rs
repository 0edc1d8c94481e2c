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
/// id → (group, chunk, offset) split is shifts and masks.
const CHUNK: usize = 256;
/// Chunks per group (see [`SegmentStore`]).
const GROUP: usize = 64;
/// Records per group.
const GROUP_RECORDS: usize = CHUNK * GROUP;

#[derive(Debug, Default)]
struct Chunk {
    records: Vec<SegmentRecord>,
    retired: Vec<bool>,
}

/// A copy-on-write copy reserves the whole chunk, so the pushes after it
/// never reallocate.
impl Clone for Chunk {
    fn clone(&self) -> Self {
        let mut records = Vec::with_capacity(CHUNK);
        records.extend_from_slice(&self.records);
        let mut retired = Vec::with_capacity(CHUNK);
        retired.extend_from_slice(&self.retired);
        Chunk { records, retired }
    }
}

#[derive(Debug, Default)]
struct Group(Vec<Arc<Chunk>>);

impl Clone for Group {
    fn clone(&self) -> Self {
        let mut chunks = Vec::with_capacity(GROUP);
        chunks.extend_from_slice(&self.0);
        Group(chunks)
    }
}

/// Append-only segment store with tombstones; `SegmentId` is the index.
///
/// Ids stay stable across retraction: [`SegmentStore::retire`] marks a
/// record dead instead of reusing its slot, so references held by queriers
/// never dangle. (Ids are *server-internal* — they may be re-assigned
/// wholesale when the store compacts or a snapshot is reloaded; the
/// durable external handle is [`SegmentRef`].)
///
/// Records live in two levels of `Arc`s: chunks of [`CHUNK`] records in
/// groups of [`GROUP`] chunks. Cloning the store — which the server does
/// on every publish — is one pointer bump per group, and a clone shares
/// all memory with its parent until one side writes (copy-on-write via
/// [`Arc::make_mut`]): the first push after a clone copies the tail
/// group's chunk pointers and the tail chunk, never a full group.
#[derive(Debug, Clone, Default)]
pub struct SegmentStore {
    groups: Vec<Arc<Group>>,
    total: usize,
    live: usize,
}

impl SegmentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn chunk(&self, i: usize) -> &Chunk {
        &self.groups[i / GROUP_RECORDS].0[i / CHUNK % GROUP]
    }

    fn chunk_mut(&mut self, i: usize) -> &mut Chunk {
        let group = Arc::make_mut(&mut self.groups[i / GROUP_RECORDS]);
        Arc::make_mut(&mut group.0[i / CHUNK % GROUP])
    }

    /// Appends a record, assigning its id.
    pub fn push(&mut self, rep: RepFov, source: SegmentRef) -> SegmentId {
        let i = self.total;
        let id = SegmentId(u32::try_from(i).expect("store capacity exceeded"));
        if i.is_multiple_of(GROUP_RECORDS) {
            self.groups.push(Arc::new(Group(Vec::with_capacity(GROUP))));
        }
        if i.is_multiple_of(CHUNK) {
            let group = Arc::make_mut(self.groups.last_mut().expect("group just ensured"));
            group.0.push(Arc::new(Chunk {
                records: Vec::with_capacity(CHUNK),
                retired: Vec::with_capacity(CHUNK),
            }));
        }
        let chunk = self.chunk_mut(i);
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
        &self.chunk(i).records[i % CHUNK]
    }

    /// Marks a record retired. Returns `false` if it already was.
    pub fn retire(&mut self, id: SegmentId) -> bool {
        let i = id.0 as usize;
        if self.is_retired(id) {
            return false;
        }
        self.chunk_mut(i).retired[i % CHUNK] = true;
        self.live -= 1;
        true
    }

    /// Whether a record has been retired.
    #[inline]
    pub fn is_retired(&self, id: SegmentId) -> bool {
        let i = id.0 as usize;
        self.chunk(i).retired[i % CHUNK]
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
        self.groups
            .iter()
            .flat_map(|g| g.0.iter())
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
        let n = GROUP_RECORDS + 3 * CHUNK + 7;
        for i in 0..n {
            let id = s.push(rep(i as f64), src(i as u64));
            assert_eq!(id, SegmentId(i as u32));
        }
        assert_eq!(s.total(), n);
        assert_eq!(s.iter().count(), n);
        for i in [
            2 * CHUNK,
            GROUP_RECORDS - 1,
            GROUP_RECORDS,
            GROUP_RECORDS + CHUNK,
            n - 1,
        ] {
            assert_eq!(s.get(SegmentId(i as u32)).source.provider_id, i as u64);
        }
        let providers: Vec<u64> = s.iter().map(|r| r.source.provider_id).collect();
        assert!(providers.iter().copied().eq(0..n as u64));
    }

    #[test]
    fn push_after_clone_shares_every_full_group() {
        let mut s = SegmentStore::new();
        for i in 0..(2 * GROUP_RECORDS + 5) {
            s.push(rep(i as f64), src(i as u64));
        }
        let snap = s.clone();
        s.push(rep(0.0), src(9));
        assert!(Arc::ptr_eq(&s.groups[0], &snap.groups[0]));
        assert!(Arc::ptr_eq(&s.groups[1], &snap.groups[1]));
        // The tail group was copied, but only its last chunk with it.
        let (tail, old_tail) = (&s.groups[2].0, &snap.groups[2].0);
        assert!(!Arc::ptr_eq(&s.groups[2], &snap.groups[2]));
        assert!(!Arc::ptr_eq(&tail[0], &old_tail[0]));
        assert_eq!(snap.total(), 2 * GROUP_RECORDS + 5);
        // A retire deep in a full group copies just that group and chunk.
        let snap = s.clone();
        assert!(s.retire(SegmentId((GROUP_RECORDS + CHUNK + 1) as u32)));
        assert!(Arc::ptr_eq(&s.groups[0], &snap.groups[0]));
        assert!(Arc::ptr_eq(&s.groups[2], &snap.groups[2]));
        let (g, old) = (&s.groups[1].0, &snap.groups[1].0);
        for c in 0..GROUP {
            assert_eq!(Arc::ptr_eq(&g[c], &old[c]), c != 1, "chunk {c}");
        }
        assert!(!snap.is_retired(SegmentId((GROUP_RECORDS + CHUNK + 1) as u32)));
    }

    #[test]
    fn retire_across_a_group_boundary_keeps_counts() {
        let mut s = SegmentStore::new();
        for i in 0..(GROUP_RECORDS + CHUNK) {
            s.push(rep(i as f64), src(i as u64));
        }
        for i in [GROUP_RECORDS - 1, GROUP_RECORDS, GROUP_RECORDS + CHUNK - 1] {
            assert!(s.retire(SegmentId(i as u32)));
            assert!(s.is_retired(SegmentId(i as u32)));
        }
        assert_eq!((s.len(), s.dead()), (GROUP_RECORDS + CHUNK - 3, 3));
        assert_eq!(s.iter().count(), s.len());
        assert!(!s.iter().any(|r| r.id.0 as usize == GROUP_RECORDS));
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
