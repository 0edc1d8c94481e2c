//! Time-sharded FoV indexing with retention.
//!
//! A city-scale deployment ingests forever, but queries target recent
//! windows and storage is finite. Sharding the index by time buckets
//! keeps every R-tree small and makes retention trivial: expiring old
//! footage drops whole shards instead of deleting records one by one.
//!
//! A segment whose interval spans several buckets is registered in each;
//! queries deduplicate. Expiry is shard-granular: a segment survives
//! until *every* bucket it touches has expired, so retention is
//! conservative (never drops data younger than the horizon).
//!
//! A shard is a list of immutable STR-packed **runs**: a publish packs
//! only its batch into a new run and merges small runs geometrically
//! ([`ShardedFovIndex::bulk_insert_exec`]). A run is tiled in space only
//! ([`FovIndex::packed`]): the shard is already the time partition, and
//! tiling its time too would only make the spatial cells coarser — a
//! wide query spans most shards' whole time. Runs, run lists and shard
//! groups ([`ShardMap`]) are `Arc`-shared with older snapshots, so a
//! publish's cost follows its batch, not the shard or the index.

use std::collections::BTreeMap;
use std::sync::Arc;

use swag_core::RepFov;
use swag_exec::Executor;
use swag_rtree::{Aabb, Item, SearchStats};

use crate::index::{fov_box, query_boxes, scan_leaf, FovIndex, IndexKind, LeafRef, QueryBoxes};
use crate::query::Query;
use crate::shard_map::ShardMap;
use crate::store::SegmentId;

/// A new run merges with the run before it while that run holds at most
/// `MERGE_RATIO` times the new run's items, so every run holds more than
/// `MERGE_RATIO` times the items of the run after it.
const MERGE_RATIO: usize = 2;

/// Fewest batch items for which [`ShardedFovIndex::bulk_insert_exec`]
/// packs the touched shards on scoped threads (bootstrap, compaction); a
/// publish-sized batch packs faster than a thread spawns. Queries never
/// fan out: measured with `swag_e2e` at 2 threads on a 2-vCPU guest, a
/// wide query's shard probe fanned out on scoped threads read 1.7–1.8×
/// serial at ≈ 8.8 k items (`fleet_ingest`), 1.14–1.21× at ≈ 35 k
/// (`query_city`) and 1.03–1.12× at ≈ 87 k (`mixed_live`). No wide query
/// of the benchmark repays a spawn there, so the threshold sits above the
/// largest (≈ 95 k), at 2¹⁷.
pub const PARALLEL_MIN_WORK: usize = 131_072;

/// One time shard: immutable STR-packed runs, largest and oldest first,
/// each segment of the bucket in exactly one; shared until a publish.
type Runs = Arc<Vec<Arc<FovIndex>>>;

/// A probed shard: its bucket and runs.
type Probed<'a> = (i64, &'a [Arc<FovIndex>]);

/// Indexed items across a shard's runs.
fn items(runs: &[Arc<FovIndex>]) -> usize {
    runs.iter().map(|run| run.len()).sum()
}

/// Where [`ShardedFovIndex::scan`] delivers box matches, and how far it
/// must look: the scan examines leaves in ascending
/// [`lower_bound`](Self::lower_bound) and stops at the first one above
/// [`bound`](Self::bound).
pub trait LeafSink {
    /// One box match, delivered once however many shards, runs or
    /// half-boxes hold it. Ties order by the segment id, so results never
    /// depend on how publishes split a shard into runs.
    fn accept(&mut self, mbr: &Aabb<3>, leaf: &LeafRef);

    /// A key no box match inside a leaf of box `mbr` can rank below; 0
    /// (the default) keeps the index's own visit order.
    fn lower_bound(&self, _mbr: &Aabb<3>) -> f64 {
        0.0
    }

    /// The key above which no match can enter the answer any more, given
    /// what was accepted so far; `+∞` (the default) scans every leaf.
    fn bound(&self) -> f64 {
        f64::INFINITY
    }
}

/// The candidate-list sink: segment ids, sorted afterwards.
impl LeafSink for Vec<SegmentId> {
    fn accept(&mut self, _mbr: &Aabb<3>, leaf: &LeafRef) {
        self.push(leaf.id);
    }
}

/// Leaves [`ShardedFovIndex::scan`] collects on the stack before it
/// allocates: a narrow query reaches a handful.
const INLINE_LEAVES: usize = 8;

/// A leaf [`ShardedFovIndex::scan`] may examine.
#[derive(Clone, Copy)]
struct Candidate<'a> {
    /// [`LeafSink::lower_bound`] of its box (0 for a root leaf or a
    /// linear run).
    bound: f64,
    /// Position of its shard among the probed ones.
    shard: usize,
    /// Which query box reached it.
    qbox: usize,
    entries: &'a [Item<LeafRef, 3>],
}

/// What one [`ShardedFovIndex::expire_before`] call removed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpireReport {
    /// Whole shards dropped.
    pub shards_dropped: usize,
    /// Bucket ids of the dropped shards, ascending — the write path
    /// bumps these buckets' cache versions so cached results that probed
    /// them are invalidated.
    pub buckets_dropped: Vec<i64>,
    /// Segments no longer present in *any* shard — every bucket they
    /// touched expired. The caller retires these in its segment store.
    pub segments_dropped: Vec<SegmentId>,
}

/// A time-sharded spatio-temporal index.
#[derive(Debug, Clone)]
pub struct ShardedFovIndex {
    shard_width_s: f64,
    kind: IndexKind,
    shards: ShardMap<Runs>,
    /// Number of distinct indexed segments. Each id must be indexed at
    /// most once; the span a segment occupies is recomputed from its
    /// interval (insert, remove) or its stored box (expiry), so no
    /// per-segment map has to be deep-copied when the index is cloned
    /// for a new snapshot.
    segments: usize,
    /// The highest cutoff [`Self::expire_before`] has applied since the
    /// index was empty: a live shard below it was re-created after that
    /// expiry and may lack segments of its span living in later buckets.
    cut: i64,
}

impl ShardedFovIndex {
    /// Creates a sharded index with the given bucket width (seconds).
    ///
    /// # Panics
    /// Panics if `shard_width_s` is not positive and finite.
    pub fn new(shard_width_s: f64, kind: IndexKind) -> Self {
        assert!(
            shard_width_s.is_finite() && shard_width_s > 0.0,
            "shard width must be positive, got {shard_width_s}"
        );
        ShardedFovIndex {
            shard_width_s,
            kind,
            shards: ShardMap::default(),
            segments: 0,
            cut: i64::MIN,
        }
    }

    /// The configured bucket width in seconds.
    pub fn shard_width_s(&self) -> f64 {
        self.shard_width_s
    }

    fn bucket_of(&self, t: f64) -> i64 {
        (t / self.shard_width_s).floor() as i64
    }

    /// Buckets a time interval touches (inclusive).
    fn buckets(&self, t0: f64, t1: f64) -> std::ops::RangeInclusive<i64> {
        self.bucket_of(t0)..=self.bucket_of(t1)
    }

    /// Number of indexed segments (each counted once, surviving expiry
    /// accounting included).
    pub fn len(&self) -> usize {
        self.segments
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.segments == 0
    }

    /// Number of live shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The live shards a `[t0, t1]` window would probe, as
    /// `(bucket, indexed items, runs)` in bucket order (used by plan
    /// explain renderings).
    pub fn probe_shards(&self, t0: f64, t1: f64) -> Vec<(i64, usize, usize)> {
        self.shards
            .range(self.buckets(t0, t1))
            .map(|(bucket, runs)| (bucket, items(runs), runs.len()))
            .collect()
    }

    /// How many live shards a `[t0, t1]` window would probe, without
    /// materialising them.
    pub fn probe_shard_count(&self, t0: f64, t1: f64) -> usize {
        self.shards.range(self.buckets(t0, t1)).count()
    }

    /// Every live shard as `(bucket, indexed items)` pairs in bucket
    /// order (per-shard gauge export).
    pub fn shard_sizes(&self) -> Vec<(i64, usize)> {
        self.shards
            .iter()
            .map(|(bucket, runs)| (bucket, items(runs)))
            .collect()
    }

    /// Removes one indexed segment from every bucket it spans. Returns
    /// `false` if the id was not indexed (already removed or expired).
    /// Only the run holding the segment is copied (when an older snapshot
    /// shares it); a run or shard left empty is dropped.
    pub fn remove(&mut self, rep: &RepFov, id: SegmentId) -> bool {
        let mbr = fov_box(rep);
        let mut removed = false;
        for bucket in self.buckets(rep.t_start, rep.t_end) {
            let holder = |runs: &Runs| runs.iter().position(|run| run.contains(&mbr, id));
            let Some(i) = self.shards.get(bucket).and_then(holder) else {
                continue; // bucket already expired
            };
            let runs = Arc::make_mut(self.shards.get_mut(bucket).expect("bucket just read"));
            removed |= Arc::make_mut(&mut runs[i]).remove(rep, id);
            runs.retain(|run| !run.is_empty());
            if runs.is_empty() {
                self.shards.remove(bucket);
            }
        }
        self.segments -= usize::from(removed);
        removed
    }

    /// Bulk-inserts a batch as one new run per touched shard (the publish
    /// path; see [`Self::bulk_insert_exec`]).
    pub fn bulk_insert(&mut self, items: &[(RepFov, SegmentId)]) {
        self.bulk_insert_exec(&Executor::serial(), items);
    }

    /// [`Self::bulk_insert`] on `exec`: per touched bucket, the batch's
    /// items form a new run, which absorbs the run before it while that
    /// run holds at most [`MERGE_RATIO`] times its items, and is then
    /// STR-packed once. On an empty index (bootstrap, compaction) that is
    /// one run per shard. Threads claim whole shards and each pack is
    /// serial, so the index is identical to the serial build and no
    /// scoped thread spawns another. Only batches of at least
    /// [`PARALLEL_MIN_WORK`] items fan out (bootstrap, compaction): a
    /// publish-sized batch packs faster than a thread spawns.
    pub fn bulk_insert_exec(&mut self, exec: &Executor, items: &[(RepFov, SegmentId)]) {
        let (serial, small) = (Executor::serial(), items.len() < PARALLEL_MIN_WORK);
        let exec = if small { &serial } else { exec };
        self.segments += items.len();
        let mut per_bucket: BTreeMap<i64, Vec<(Aabb<3>, LeafRef)>> = BTreeMap::new();
        for (rep, id) in items {
            let entry = LeafRef::entry(rep, *id);
            for bucket in self.buckets(rep.t_start, rep.t_end) {
                per_bucket.entry(bucket).or_default().push(entry);
            }
        }
        let touched: Vec<(i64, Vec<(Aabb<3>, LeafRef)>)> = per_bucket.into_iter().collect();
        let (shards, kind) = (&self.shards, self.kind);
        let grown = exec.par_map_owned(touched, |(bucket, mut entries)| {
            let mut runs = shards.get(bucket).map_or_else(Vec::new, |r| r.to_vec());
            // Absorb every tail run the merge rule reaches, then pack once.
            while let Some(last) = runs.pop_if(|last| last.len() <= MERGE_RATIO * entries.len()) {
                last.append_entries(&mut entries);
            }
            runs.push(Arc::new(FovIndex::packed(kind, entries)));
            (bucket, Arc::new(runs))
        });
        self.shards.extend(grown);
    }

    /// All segment ids intersecting the query, deduplicated across shards
    /// and runs, ascending. Only live shards inside the window are
    /// visited (a wide-open time range costs the number of shards, not of
    /// buckets).
    pub fn candidates(&self, q: &Query) -> Vec<SegmentId> {
        self.candidates_with_stats(q, &mut SearchStats::default())
    }

    /// [`Self::candidates`] accumulating per-shard traversal counters into
    /// `stats`: [`Self::scan`]'s matches in tie order.
    pub fn candidates_with_stats(&self, q: &Query, stats: &mut SearchStats) -> Vec<SegmentId> {
        let mut hits: Vec<SegmentId> = Vec::new();
        self.scan(&query_boxes(q), q.t_start, q.t_end, Some(stats), &mut hits);
        hits.sort_unstable();
        hits
    }

    /// The index probe: feeds `sink` the matches of `boxes` in the live
    /// shards over `[t0, t1]`, each exactly once, and returns the shards
    /// probed and the matches fed. It walks every probed run first and
    /// collects the leaves the boxes reach, then examines them in
    /// ascending [`LeafSink::lower_bound`] — a stable sort, so with every
    /// bound 0 the order is shard by shard in bucket order, run by run,
    /// box by box — and stops at the first leaf whose bound exceeds
    /// [`LeafSink::bound`]: nothing in it or after it can rank. Counters
    /// go into `stats` when given: the internal nodes walked, and only
    /// the leaves examined.
    pub fn scan<S: LeafSink>(
        &self,
        boxes: &QueryBoxes,
        t0: f64,
        t1: f64,
        mut stats: Option<&mut SearchStats>,
        sink: &mut S,
    ) -> (usize, usize) {
        let probed: Vec<Probed<'_>> = self
            .shards
            .range(self.buckets(t0, t1))
            .map(|(bucket, runs)| (bucket, runs.as_slice()))
            .collect();
        let boxes = boxes.as_slice();
        let none = Candidate {
            bound: 0.0,
            shard: 0,
            qbox: 0,
            entries: &[],
        };
        let (mut inline, mut spilled, mut n) = ([none; INLINE_LEAVES], Vec::new(), 0);
        let mut internal = 0;
        for (shard, (_, runs)) in probed.iter().enumerate() {
            for run in *runs {
                for (qbox, qb) in boxes.iter().enumerate() {
                    internal += run.leaves(qb, |mbr, entries| {
                        let bound = mbr.map_or(0.0, |mbr| sink.lower_bound(mbr));
                        let leaf = Candidate {
                            bound,
                            shard,
                            qbox,
                            entries,
                        };
                        if n < INLINE_LEAVES {
                            inline[n] = leaf;
                        } else {
                            if n == INLINE_LEAVES {
                                spilled.reserve(8 * INLINE_LEAVES);
                                spilled.extend_from_slice(&inline);
                            }
                            spilled.push(leaf);
                        }
                        n += 1;
                    });
                }
            }
        }
        if let Some(stats) = stats.as_deref_mut() {
            stats.nodes_visited += internal;
        }
        let leaves = if n <= INLINE_LEAVES {
            &mut inline[..n]
        } else {
            &mut spilled[..]
        };
        leaves.sort_by(|a, b| a.bound.total_cmp(&b.bound));
        let mut matched = 0;
        for leaf in leaves.iter() {
            if leaf.bound > sink.bound() {
                break;
            }
            let earlier = &probed[..leaf.shard];
            scan_leaf(
                leaf.entries,
                boxes,
                leaf.qbox,
                stats.as_deref_mut(),
                |mbr, entry| {
                    if self.first_home(earlier, mbr, entry.id) {
                        sink.accept(mbr, entry);
                        matched += 1;
                    }
                },
            );
        }
        (probed.len(), matched)
    }

    /// Dedup without a set: whether `(mbr, id)` has no home among the
    /// `earlier` probed shards `b_0 < … < b_{i−1}`. A segment is in every
    /// live bucket of its span, so it is a repeat exactly when its first
    /// bucket is at most `b_{i−1}` — unless `b_{i−1}` sits below
    /// [`Self::cut`]; then the earlier shards' runs are asked directly.
    fn first_home(&self, earlier: &[Probed<'_>], mbr: &Aabb<3>, id: SegmentId) -> bool {
        let Some(&(prev, _)) = earlier.last() else {
            return true;
        };
        let first = self.bucket_of(mbr.min[2]);
        first > prev
            || (prev < self.cut
                && !earlier.iter().any(|(bucket, runs)| {
                    *bucket >= first && runs.iter().any(|run| run.contains(mbr, id))
                }))
    }

    /// Drops every shard that ends at or before `horizon_s`. Segments
    /// spanning the horizon survive in their later buckets (conservative
    /// retention); segments whose *every* bucket expired are reported in
    /// [`ExpireReport::segments_dropped`] so the caller can retire them
    /// from its store, and no longer count toward [`Self::len`].
    pub fn expire_before(&mut self, horizon_s: f64) -> ExpireReport {
        let cutoff = self.bucket_of(horizon_s);
        self.cut = self.cut.max(cutoff);
        let keep = self.shards.split_off(cutoff);
        let dropped_shards = std::mem::replace(&mut self.shards, keep);
        // A segment died with the dropped shards iff its last bucket —
        // read straight off its stored box — is itself below the cutoff.
        // Segments straddling the cutoff keep living in later buckets.
        let mut segments_dropped = Vec::new();
        for run in dropped_shards.iter().flat_map(|(_, runs)| runs.iter()) {
            run.for_each_item(|b, id| {
                if self.bucket_of(b.max[2]) < cutoff {
                    segments_dropped.push(id);
                }
            });
        }
        segments_dropped.sort_unstable();
        segments_dropped.dedup();
        self.segments -= segments_dropped.len();
        ExpireReport {
            shards_dropped: dropped_shards.len(),
            buckets_dropped: dropped_shards.keys().collect(),
            segments_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_core::Fov;
    use swag_geo::LatLon;

    fn center() -> LatLon {
        LatLon::new(40.0, 116.32)
    }

    fn rep(t0: f64, t1: f64, north_m: f64) -> RepFov {
        RepFov::new(t0, t1, Fov::new(center().offset(0.0, north_m), 0.0))
    }

    fn q(t0: f64, t1: f64) -> Query {
        Query::new(t0, t1, center(), 500.0)
    }

    /// Indexes `rep(t0, t1, north_m)` as segment `id`, a batch of its own.
    fn one(idx: &mut ShardedFovIndex, t0: f64, t1: f64, north_m: f64, id: u32) {
        idx.bulk_insert(&[(rep(t0, t1, north_m), SegmentId(id))]);
    }

    /// Segment `i` starting at `i × step`, lasting `i mod dur`, `i mod
    /// rows` 25 m steps north.
    fn item(i: u32, step: f64, dur: u32, rows: u32) -> (RepFov, SegmentId) {
        let t0 = f64::from(i) * step % 7200.0;
        let north = f64::from(i % rows) * 25.0;
        (rep(t0, t0 + f64::from(i % dur), north), SegmentId(i))
    }

    #[test]
    fn matches_flat_index_on_random_workload() {
        let items: Vec<_> = (0..500).map(|i| item(i, 17.3, 40, 23)).collect();
        let mut sharded = ShardedFovIndex::new(600.0, IndexKind::RTree);
        let mut flat = FovIndex::new(IndexKind::RTree);
        for batch in items.chunks(37) {
            sharded.bulk_insert(batch);
        }
        for (r, id) in &items {
            flat.insert(r, *id);
        }
        assert_eq!(sharded.len(), 500);
        for (t0, t1) in [
            (0.0, 7200.0),
            (100.0, 700.0),
            (3000.0, 3001.0),
            (6500.0, 7300.0),
        ] {
            let mut b = flat.candidates(&q(t0, t1));
            b.sort();
            assert_eq!(sharded.candidates(&q(t0, t1)), b, "window {t0}..{t1}");
        }
    }

    #[test]
    fn bulk_insert_matches_incremental() {
        let old: Vec<_> = (0..150).map(|i| item(i, 13.0, 60, 17)).collect();
        let new: Vec<_> = (150..260).map(|i| item(i, 7.0, 90, 13)).collect();
        let mut incremental = ShardedFovIndex::new(300.0, IndexKind::RTree);
        for item in old.iter().chain(&new) {
            incremental.bulk_insert(std::slice::from_ref(item));
        }
        let mut bulk = ShardedFovIndex::new(300.0, IndexKind::RTree);
        bulk.bulk_insert(&old);
        let snapshot = bulk.clone();
        bulk.bulk_insert(&new);
        assert_eq!(bulk.len(), 260);
        // The pre-extend clone is unaffected by the second bulk insert.
        assert_eq!(snapshot.len(), 150);
        for (t0, t1) in [(0.0, 3000.0), (500.0, 700.0), (1800.0, 1900.0)] {
            let b = incremental.candidates(&q(t0, t1));
            assert_eq!(bulk.candidates(&q(t0, t1)), b, "window {t0}..{t1}");
        }
    }

    #[test]
    fn spanning_segments_are_deduplicated() {
        let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
        // Spans three buckets.
        one(&mut idx, 50.0, 250.0, 10.0, 1);
        assert_eq!(idx.shard_count(), 3);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.candidates(&q(0.0, 300.0)), vec![SegmentId(1)]);
    }

    #[test]
    fn expiry_drops_old_keeps_recent() {
        let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
        one(&mut idx, 10.0, 20.0, 0.0, 0); // bucket 0
        one(&mut idx, 150.0, 160.0, 0.0, 1); // bucket 1
        one(&mut idx, 950.0, 960.0, 0.0, 2); // bucket 9
        assert_eq!(idx.shard_count(), 3);

        let report = idx.expire_before(500.0);
        assert_eq!(report.shards_dropped, 2);
        assert_eq!(report.segments_dropped, vec![SegmentId(0), SegmentId(1)]);
        assert_eq!(idx.shard_count(), 1);
        assert_eq!(idx.len(), 1, "len reflects survivors");
        assert!(idx.candidates(&q(0.0, 500.0)).is_empty());
        assert_eq!(idx.candidates(&q(900.0, 1000.0)), vec![SegmentId(2)]);
    }

    #[test]
    fn segment_spanning_horizon_survives() {
        let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
        one(&mut idx, 90.0, 110.0, 0.0, 7); // buckets 0 and 1
        let report = idx.expire_before(100.0); // drops bucket 0
        assert_eq!(report.shards_dropped, 1);
        assert!(
            report.segments_dropped.is_empty(),
            "survivor must not be reported dropped"
        );
        assert_eq!(idx.len(), 1);
        // Still findable through its surviving bucket.
        assert_eq!(idx.candidates(&q(100.0, 120.0)), vec![SegmentId(7)]);
    }

    #[test]
    fn remove_unindexes_across_spanned_buckets() {
        let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
        let spanning = rep(50.0, 250.0, 10.0);
        one(&mut idx, 50.0, 250.0, 10.0, 1);
        one(&mut idx, 10.0, 20.0, 0.0, 2);
        assert!(idx.remove(&spanning, SegmentId(1)));
        assert!(!idx.remove(&spanning, SegmentId(1)), "double remove");
        assert_eq!(idx.len(), 1);
        assert!(idx.candidates(&q(100.0, 300.0)).is_empty());
        assert_eq!(idx.candidates(&q(0.0, 300.0)), vec![SegmentId(2)]);
        // Emptied shards are dropped entirely.
        assert_eq!(idx.shard_count(), 1);
    }

    #[test]
    fn remove_after_partial_expiry_is_safe() {
        let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
        one(&mut idx, 90.0, 110.0, 0.0, 3); // buckets 0 and 1
        idx.expire_before(100.0); // bucket 0 gone
        assert!(idx.remove(&rep(90.0, 110.0, 0.0), SegmentId(3)));
        assert!(idx.is_empty());
        assert!(idx.candidates(&q(100.0, 120.0)).is_empty());
    }

    #[test]
    fn negative_times_bucket_correctly() {
        let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
        one(&mut idx, 0.0, 10.0, 0.0, 0);
        // floor() keeps pre-epoch times in their own buckets; nothing
        // before t=0 exists here, but the query must not wrap.
        assert!(idx
            .candidates(&Query::new(-500.0, -1.0, center(), 500.0))
            .is_empty());
        assert_eq!(idx.candidates(&q(0.0, 10.0)), vec![SegmentId(0)]);
    }

    #[test]
    fn linear_shards_agree_with_rtree_shards() {
        let mut a = ShardedFovIndex::new(250.0, IndexKind::RTree);
        let mut b = ShardedFovIndex::new(250.0, IndexKind::Linear);
        for i in 0..200u32 {
            let t0 = f64::from(i) * 9.0;
            for idx in [&mut a, &mut b] {
                one(idx, t0, t0 + 30.0, f64::from(i % 11) * 30.0, i);
            }
        }
        let window = q(300.0, 900.0);
        assert_eq!(a.candidates(&window), b.candidates(&window));
    }

    #[test]
    #[should_panic(expected = "shard width")]
    fn zero_width_rejected() {
        ShardedFovIndex::new(0.0, IndexKind::RTree);
    }

    /// What the scan's dedup must reproduce: the union of every probed
    /// shard's runs' own matches, each id once.
    fn union_of_shards(idx: &ShardedFovIndex, q: &Query) -> Vec<SegmentId> {
        let mut ids: Vec<SegmentId> = idx
            .shards
            .range(idx.buckets(q.t_start, q.t_end))
            .flat_map(|(_, runs)| runs.iter().flat_map(|run| run.candidates(q)))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    #[test]
    fn segment_behind_a_recreated_bucket_is_found_once() {
        let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
        // Segment 0 spans buckets 0..=3; the expiry leaves it in 2 and 3,
        // then a late arrival re-creates buckets 0 and 1 without it.
        one(&mut idx, 50.0, 350.0, 0.0, 0);
        idx.expire_before(200.0);
        one(&mut idx, 20.0, 180.0, 5.0, 1);
        let query = q(0.0, 400.0);
        assert_eq!(idx.candidates(&query), vec![SegmentId(0), SegmentId(1)]);
        assert_eq!(idx.candidates(&query), union_of_shards(&idx, &query));
    }

    /// The run list of bucket `b`, oldest first.
    fn runs(idx: &ShardedFovIndex, b: i64) -> &Runs {
        idx.shards.get(b).unwrap()
    }

    /// Run sizes of bucket `b`, oldest first.
    fn run_sizes(idx: &ShardedFovIndex, b: i64) -> Vec<usize> {
        runs(idx, b).iter().map(|run| run.len()).collect()
    }

    /// Segments `ids`, each one second long at `t = id mod 90`: bucket 0.
    fn batch(ids: std::ops::Range<u32>) -> Vec<(RepFov, SegmentId)> {
        ids.map(|i| {
            let t = f64::from(i % 90);
            (rep(t, t + 1.0, f64::from(i % 7)), SegmentId(i))
        })
        .collect()
    }

    #[test]
    fn runs_shrink_geometrically_under_any_batch_sizes() {
        let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
        let mut next = 0u32;
        for step in 0..200u32 {
            let n = 1 + step * 7 % 37;
            idx.bulk_insert(&batch(next..next + n));
            next += n;
            let sizes = run_sizes(&idx, 0);
            assert!(
                sizes.windows(2).all(|w| w[0] > MERGE_RATIO * w[1]),
                "after step {step}: {sizes:?}"
            );
            assert_eq!(sizes.iter().sum::<usize>(), next as usize);
        }
    }

    #[test]
    fn unmerged_publish_shares_every_older_run() {
        let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
        idx.bulk_insert(&batch(0..40)); // one run of 40
        one(&mut idx, 150.0, 151.0, 0.0, 40); // bucket 1, untouched below
        idx.bulk_insert(&batch(41..44)); // 40 > 2 × 3: a second run
        let before = idx.clone();
        idx.bulk_insert(&batch(44..45)); // 3 > 2 × 1: appended, no merge
        assert_eq!(run_sizes(&before, 0), vec![40, 3]);
        assert_eq!(run_sizes(&idx, 0), vec![40, 3, 1]);
        for (old, new) in runs(&before, 0).iter().zip(runs(&idx, 0).iter()) {
            assert!(Arc::ptr_eq(old, new), "older runs are never rebuilt");
        }
        // The untouched bucket's run list itself is shared.
        assert!(Arc::ptr_eq(runs(&idx, 1), runs(&before, 1)));
        let before = idx.clone();
        idx.bulk_insert(&batch(45..46)); // 1 ≤ 2 × 1, then 3 ≤ 2 × 2
        assert_eq!(run_sizes(&idx, 0), vec![40, 5]);
        assert!(Arc::ptr_eq(&runs(&idx, 0)[0], &runs(&before, 0)[0]));
    }

    #[test]
    fn remove_reaches_a_segment_in_an_older_run() {
        let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
        idx.bulk_insert(&batch(0..10));
        idx.bulk_insert(&batch(10..11));
        let before = idx.clone();
        assert_eq!(run_sizes(&idx, 0), vec![10, 1]);
        assert!(idx.remove(&batch(3..4)[0].0, SegmentId(3)));
        assert_eq!(run_sizes(&idx, 0), vec![9, 1]);
        assert_eq!(idx.len(), 10);
        assert!(!idx.candidates(&q(0.0, 99.0)).contains(&SegmentId(3)));
        // The snapshot still holds it; the untouched tail run is shared.
        assert!(before.candidates(&q(0.0, 99.0)).contains(&SegmentId(3)));
        assert!(Arc::ptr_eq(&runs(&idx, 0)[1], &runs(&before, 0)[1]));
    }

    mod dedup {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Whatever batched inserts (several per bucket, so shards
            /// hold several runs), expiries (late arrivals then re-create
            /// expired buckets) and removals built the index, the scan
            /// reports the union of the probed shards' matches, each once.
            #[test]
            fn scan_reports_each_probed_match_once(
                ops in prop::collection::vec(
                    (0u8..4, 0.0..1500.0f64, 0.0..450.0f64, -400.0..400.0f64),
                    1..80,
                ),
                queries in prop::collection::vec(
                    (0.0..1600.0f64, 0.0..900.0f64, 50.0..600.0f64),
                    1..6,
                ),
            ) {
                let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
                let (mut live, mut batch) = (Vec::new(), Vec::new());
                for (i, &(kind, t0, dur, north)) in ops.iter().enumerate() {
                    match kind {
                        // Stage; 1 also publishes the staged batch.
                        0 | 1 => {
                            batch.push((rep(t0, t0 + dur, north), SegmentId(i as u32)));
                            if kind == 1 {
                                idx.bulk_insert(&batch);
                                live.append(&mut batch);
                            }
                        }
                        2 => _ = idx.expire_before(t0),
                        _ if !live.is_empty() => {
                            let (r, id) = live.swap_remove(i % live.len());
                            idx.remove(&r, id);
                        }
                        _ => {}
                    }
                }
                idx.bulk_insert(&batch);
                for &(t0, len, radius) in &queries {
                    let query = Query::new(t0, t0 + len, center(), radius);
                    prop_assert_eq!(idx.candidates(&query), union_of_shards(&idx, &query));
                }
            }
        }
    }
}
