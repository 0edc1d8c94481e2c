//! Time-sharded FoV indexing with retention.
//!
//! A city-scale deployment ingests forever, but queries target recent
//! windows and storage is finite. Sharding the index by time buckets
//! keeps every R-tree small (bounded rebuild and memory cost) and makes
//! retention trivial: expiring old footage drops whole shards instead of
//! deleting records one by one.
//!
//! A segment whose interval spans several buckets is registered in each;
//! queries deduplicate. Expiry is shard-granular: a segment survives
//! until *every* bucket it touches has expired, so retention is
//! conservative (never drops data younger than the horizon).
//!
//! Shards sit behind `Arc`s so cloning the whole index — which the
//! snapshot-publishing server does on every epoch — costs one pointer
//! bump per shard, and publish-time [`ShardedFovIndex::bulk_insert`]
//! rebuilds only the shards the new batch touches (STR re-pack of old +
//! new), sharing every untouched shard with the previous snapshot.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use swag_core::RepFov;
use swag_exec::Executor;
use swag_obs::{FlightRecorder, Histogram, Registry};
use swag_rtree::{Aabb, SearchStats};

use crate::index::{fov_box, query_boxes, FovIndex, IndexKind, QueryBoxes};
use crate::query::Query;
use crate::store::SegmentId;

thread_local! {
    /// Reusable accumulator for cross-shard dedup: multi-shard probes
    /// collect per-shard matches here, sort + dedup in place, then copy
    /// an exact-sized result out. Clearing keeps the capacity, so steady-
    /// state queries allocate only their (returned) result vector.
    static DEDUP_SCRATCH: RefCell<Vec<SegmentId>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with the thread's cleared dedup scratch. `f` must not call
/// back into the executor (a helping wait could re-enter this scratch);
/// both probe paths finish all pool work before borrowing it.
fn with_scratch<R>(f: impl FnOnce(&mut Vec<SegmentId>) -> R) -> R {
    DEDUP_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.clear();
        f(&mut scratch)
    })
}

/// Sorts + dedups the accumulated candidates and copies them into an
/// exact-sized result vector (the scratch keeps its capacity).
fn sorted_dedup(scratch: &mut Vec<SegmentId>) -> Vec<SegmentId> {
    scratch.sort_unstable();
    scratch.dedup();
    scratch.as_slice().to_vec()
}

/// Per-query fan-out metrics for a sharded index.
#[derive(Debug, Clone)]
struct ShardObs {
    /// Shards actually probed per query (buckets with a live shard).
    fanout: Arc<Histogram>,
    /// Deduplicated candidates returned per query.
    candidates: Arc<Histogram>,
}

/// What a `[t0, t1]` probe is estimated to cost, before running it
/// (the input to the engine's adaptive fan-out cost model).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProbeEstimate {
    /// Live shards the window touches.
    pub shards: usize,
    /// Indexed items across those shards.
    pub items: usize,
    /// Selectivity-weighted items: each shard's count scaled by the
    /// fraction of its time bucket the window overlaps. Assumes items
    /// spread roughly uniformly over a bucket — good enough to separate
    /// "a sliver of two shards" from "all of nine shards".
    pub work: f64,
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
    shards: BTreeMap<i64, Arc<FovIndex>>,
    /// Number of distinct indexed segments. Each id must be indexed at
    /// most once; the span a segment occupies is recomputed from its
    /// interval (insert, remove) or its stored box (expiry), so no
    /// per-segment map has to be deep-copied when the index is cloned
    /// for a new snapshot.
    segments: usize,
    obs: Option<ShardObs>,
    /// Flight recorder for per-probe/per-rebuild spans. The spans it
    /// opens inherit the ambient [`swag_obs::TraceCtx`], which the
    /// executor carries into stolen jobs — so a parallel fan-out yields
    /// the same span tree as the serial loop.
    recorder: Option<Arc<FlightRecorder>>,
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
            shards: BTreeMap::new(),
            segments: 0,
            obs: None,
            recorder: None,
        }
    }

    /// Wires per-query fan-out metrics (`swag_shard_*`) to `registry`.
    pub fn attach_observability(&mut self, registry: &Registry) {
        self.obs = Some(ShardObs {
            fanout: registry.histogram("swag_shard_fanout"),
            candidates: registry.histogram("swag_shard_candidates"),
        });
    }

    /// Wires `shard_probe`/`shard_rebuild` spans to `recorder`. Until the
    /// recorder is enabled, each probe costs one relaxed load.
    pub fn set_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// An empty index with the same width, backend, and metric wiring
    /// (used when the server compacts its store and rebuilds from scratch).
    pub fn fresh_like(&self) -> Self {
        ShardedFovIndex {
            shard_width_s: self.shard_width_s,
            kind: self.kind,
            shards: BTreeMap::new(),
            segments: 0,
            obs: self.obs.clone(),
            recorder: self.recorder.clone(),
        }
    }

    /// The configured bucket width in seconds.
    pub fn shard_width_s(&self) -> f64 {
        self.shard_width_s
    }

    /// The index backend used for each shard.
    pub fn kind(&self) -> IndexKind {
        self.kind
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
    /// `(bucket, indexed items)` pairs in bucket order (used by plan
    /// explain renderings).
    pub fn probe_shards(&self, t0: f64, t1: f64) -> Vec<(i64, usize)> {
        self.shards
            .range(self.buckets(t0, t1))
            .map(|(bucket, shard)| (*bucket, shard.len()))
            .collect()
    }

    /// How many live shards a `[t0, t1]` window would probe, without
    /// materialising them (per-query fan-out accounting).
    pub fn probe_shard_count(&self, t0: f64, t1: f64) -> usize {
        self.shards.range(self.buckets(t0, t1)).count()
    }

    /// Estimates what probing `[t0, t1]` costs without running it: live
    /// shards, their item counts, and the selectivity-weighted work (the
    /// engine's fan-out cost model prices plans with this).
    pub fn estimate_probe(&self, t0: f64, t1: f64) -> ProbeEstimate {
        let w = self.shard_width_s;
        let mut est = ProbeEstimate::default();
        for (bucket, shard) in self.shards.range(self.buckets(t0, t1)) {
            let bucket_start = *bucket as f64 * w;
            let overlap = (t1.min(bucket_start + w) - t0.max(bucket_start)).clamp(0.0, w);
            est.shards += 1;
            est.items += shard.len();
            est.work += shard.len() as f64 * (overlap / w);
        }
        est
    }

    /// Every live shard as `(bucket, indexed items)` pairs in bucket
    /// order (per-shard gauge export).
    pub fn shard_sizes(&self) -> Vec<(i64, usize)> {
        self.shards
            .iter()
            .map(|(bucket, shard)| (*bucket, shard.len()))
            .collect()
    }

    /// Indexes a representative FoV into every bucket its interval spans.
    pub fn insert(&mut self, rep: &RepFov, id: SegmentId) {
        self.segments += 1;
        for bucket in self.buckets(rep.t_start, rep.t_end) {
            Arc::make_mut(
                self.shards
                    .entry(bucket)
                    .or_insert_with(|| Arc::new(FovIndex::new(self.kind))),
            )
            .insert(rep, id);
        }
    }

    /// Removes one indexed segment from every bucket it spans. Returns
    /// `false` if the id was not indexed (already removed or expired).
    pub fn remove(&mut self, rep: &RepFov, id: SegmentId) -> bool {
        let mut removed = false;
        for bucket in self.buckets(rep.t_start, rep.t_end) {
            let Some(shard) = self.shards.get_mut(&bucket) else {
                continue; // bucket already expired
            };
            removed |= Arc::make_mut(shard).remove(rep, id);
            if shard.is_empty() {
                self.shards.remove(&bucket);
            }
        }
        if removed {
            self.segments -= 1;
        }
        removed
    }

    /// Bulk-inserts a batch, rebuilding each touched shard once via an STR
    /// re-pack of its old items plus the new ones (publish path: untouched
    /// shards keep sharing memory with previous snapshots).
    pub fn bulk_insert(&mut self, items: &[(RepFov, SegmentId)]) {
        self.bulk_insert_exec(&Executor::serial(), items);
    }

    /// [`Self::bulk_insert`] with the touched shards' STR re-packs fanned
    /// out on `exec` (each rebuild also tiles its own leaves in parallel
    /// when large enough). The resulting index is identical to the serial
    /// build — workers merely claim different shards.
    pub fn bulk_insert_exec(&mut self, exec: &Executor, items: &[(RepFov, SegmentId)]) {
        self.segments += items.len();
        let mut per_bucket: BTreeMap<i64, Vec<(Aabb<3>, SegmentId)>> = BTreeMap::new();
        for (rep, id) in items {
            let b = fov_box(rep);
            for bucket in self.buckets(rep.t_start, rep.t_end) {
                per_bucket.entry(bucket).or_default().push((b, *id));
            }
        }
        let touched: Vec<(i64, Vec<(Aabb<3>, SegmentId)>)> = per_bucket.into_iter().collect();
        let shards = &self.shards;
        let kind = self.kind;
        let recorder = &self.recorder;
        let rebuilt = exec.par_map_owned(touched, |(bucket, new_items)| {
            let mut span = recorder.as_ref().map(|r| r.span("shard_rebuild"));
            if let Some(span) = &mut span {
                span.set_detail(new_items.len() as u64);
            }
            let tree = match shards.get(&bucket) {
                Some(old) => old.bulk_extend_par(exec, new_items),
                None => FovIndex::bulk_from_boxes_par(exec, kind, new_items),
            };
            (bucket, tree)
        });
        for (bucket, tree) in rebuilt {
            self.shards.insert(bucket, Arc::new(tree));
        }
    }

    /// All segment ids intersecting the query, deduplicated across shards.
    /// Only live shards inside the window are visited (a wide-open time
    /// range costs the number of shards, not the number of buckets).
    pub fn candidates(&self, q: &Query) -> Vec<SegmentId> {
        self.candidates_in_exec(
            &Executor::serial(),
            &query_boxes(q),
            q.t_start,
            q.t_end,
            None,
        )
    }

    /// [`Self::candidates`] accumulating per-shard traversal counters into
    /// `stats`.
    pub fn candidates_with_stats(&self, q: &Query, stats: &mut SearchStats) -> Vec<SegmentId> {
        let boxes = query_boxes(q);
        self.candidates_in_exec(&Executor::serial(), &boxes, q.t_start, q.t_end, Some(stats))
    }

    /// The probe behind [`Self::candidates`], against an already-built
    /// query box set and time window (the plan-driven query path builds
    /// boxes once per plan), with the per-shard probes fanned out on
    /// `exec` and traversal counters accumulated into `stats` when given.
    ///
    /// Byte-identical to the serial probe: a multi-shard result is the
    /// ascending sort + dedup of the union of per-shard matches — the
    /// same vector no matter which worker scanned which shard — and a
    /// single-shard probe keeps the unsorted pass-through fast path in
    /// both modes. Parallel workers count into private stats that are
    /// summed afterwards, so totals match the serial scan exactly.
    pub fn candidates_in_exec(
        &self,
        exec: &Executor,
        boxes: &QueryBoxes,
        t0: f64,
        t1: f64,
        mut stats: Option<&mut SearchStats>,
    ) -> Vec<SegmentId> {
        let shards: Vec<&Arc<FovIndex>> = self
            .shards
            .range(self.buckets(t0, t1))
            .map(|(_, shard)| shard)
            .collect();
        let probed = shards.len() as u64;
        let recorder = &self.recorder;
        let out = match shards.as_slice() {
            [] => Vec::new(),
            // A segment appears at most once per shard, so a single-shard
            // probe (the common case for windows under the shard width)
            // needs no dedup pass.
            [only] => {
                let _probe = recorder.as_ref().map(|r| r.span("shard_probe"));
                match stats {
                    Some(stats) => only.candidates_with_stats_in(boxes, stats),
                    None => only.candidates_in(boxes),
                }
            }
            many if exec.is_serial() => with_scratch(|scratch| {
                for shard in many {
                    let _probe = recorder.as_ref().map(|r| r.span("shard_probe"));
                    match stats.as_deref_mut() {
                        Some(stats) => shard.candidates_with_stats_into(boxes, scratch, stats),
                        None => shard.candidates_into(boxes, scratch),
                    }
                }
                sorted_dedup(scratch)
            }),
            many => {
                let counting = stats.is_some();
                let per_shard = exec.par_map(many, |shard| {
                    let _probe = recorder.as_ref().map(|r| r.span("shard_probe"));
                    let mut local = SearchStats::default();
                    let v = if counting {
                        shard.candidates_with_stats_in(boxes, &mut local)
                    } else {
                        shard.candidates_in(boxes)
                    };
                    (v, local)
                });
                if let Some(stats) = stats {
                    for (_, local) in &per_shard {
                        stats.merge(local);
                    }
                }
                with_scratch(|scratch| {
                    for (v, _) in &per_shard {
                        scratch.extend_from_slice(v);
                    }
                    sorted_dedup(scratch)
                })
            }
        };
        if let Some(obs) = &self.obs {
            obs.fanout.record(probed);
            obs.candidates.record(out.len() as u64);
        }
        out
    }

    /// Drops every shard that ends at or before `horizon_s`. Segments
    /// spanning the horizon survive in their later buckets (conservative
    /// retention); segments whose *every* bucket expired are reported in
    /// [`ExpireReport::segments_dropped`] so the caller can retire them
    /// from its store, and no longer count toward [`Self::len`].
    pub fn expire_before(&mut self, horizon_s: f64) -> ExpireReport {
        let cutoff = self.bucket_of(horizon_s);
        let keep = self.shards.split_off(&cutoff);
        let shards_dropped = self.shards.len();
        let dropped_shards = std::mem::replace(&mut self.shards, keep);
        // A segment died with the dropped shards iff its last bucket —
        // read straight off its stored box — is itself below the cutoff.
        // Segments straddling the cutoff keep living in later buckets.
        let mut segments_dropped = Vec::new();
        for shard in dropped_shards.values() {
            shard.for_each_item(|b, id| {
                if self.bucket_of(b.max[2]) < cutoff {
                    segments_dropped.push(id);
                }
            });
        }
        segments_dropped.sort_unstable();
        segments_dropped.dedup();
        self.segments -= segments_dropped.len();
        ExpireReport {
            shards_dropped,
            buckets_dropped: dropped_shards.keys().copied().collect(),
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

    #[test]
    fn matches_flat_index_on_random_workload() {
        let mut sharded = ShardedFovIndex::new(600.0, IndexKind::RTree);
        let mut flat = FovIndex::new(IndexKind::RTree);
        for i in 0..500u32 {
            let t0 = f64::from(i) * 17.3 % 7200.0;
            let r = rep(t0, t0 + f64::from(i % 40), f64::from(i % 23) * 20.0);
            sharded.insert(&r, SegmentId(i));
            flat.insert(&r, SegmentId(i));
        }
        assert_eq!(sharded.len(), 500);
        for (t0, t1) in [
            (0.0, 7200.0),
            (100.0, 700.0),
            (3000.0, 3001.0),
            (6500.0, 7300.0),
        ] {
            let mut a = sharded.candidates(&q(t0, t1));
            let mut b = flat.candidates(&q(t0, t1));
            a.sort();
            b.sort();
            assert_eq!(a, b, "window {t0}..{t1}");
        }
    }

    #[test]
    fn bulk_insert_matches_incremental() {
        let mut incremental = ShardedFovIndex::new(300.0, IndexKind::RTree);
        let mut bulk = ShardedFovIndex::new(300.0, IndexKind::RTree);
        let old: Vec<(RepFov, SegmentId)> = (0..150u32)
            .map(|i| {
                let t0 = f64::from(i) * 13.0;
                (
                    rep(t0, t0 + f64::from(i % 60), f64::from(i % 17) * 25.0),
                    SegmentId(i),
                )
            })
            .collect();
        let new: Vec<(RepFov, SegmentId)> = (150..260u32)
            .map(|i| {
                let t0 = f64::from(i) * 7.0;
                (
                    rep(t0, t0 + f64::from(i % 90), f64::from(i % 13) * 30.0),
                    SegmentId(i),
                )
            })
            .collect();
        for (r, id) in old.iter().chain(&new) {
            incremental.insert(r, *id);
        }
        bulk.bulk_insert(&old);
        let snapshot = bulk.clone();
        bulk.bulk_insert(&new);
        assert_eq!(bulk.len(), 260);
        // The pre-extend clone is unaffected by the second bulk insert.
        assert_eq!(snapshot.len(), 150);
        for (t0, t1) in [(0.0, 3000.0), (500.0, 700.0), (1800.0, 1900.0)] {
            let mut a = bulk.candidates(&q(t0, t1));
            let mut b = incremental.candidates(&q(t0, t1));
            a.sort();
            b.sort();
            assert_eq!(a, b, "window {t0}..{t1}");
        }
    }

    #[test]
    fn spanning_segments_are_deduplicated() {
        let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
        // Spans three buckets.
        idx.insert(&rep(50.0, 250.0, 10.0), SegmentId(1));
        assert_eq!(idx.shard_count(), 3);
        assert_eq!(idx.len(), 1);
        let hits = idx.candidates(&q(0.0, 300.0));
        assert_eq!(hits, vec![SegmentId(1)]);
    }

    #[test]
    fn expiry_drops_old_keeps_recent() {
        let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
        idx.insert(&rep(10.0, 20.0, 0.0), SegmentId(0)); // bucket 0
        idx.insert(&rep(150.0, 160.0, 0.0), SegmentId(1)); // bucket 1
        idx.insert(&rep(950.0, 960.0, 0.0), SegmentId(2)); // bucket 9
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
        idx.insert(&rep(90.0, 110.0, 0.0), SegmentId(7)); // buckets 0 and 1
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
        idx.insert(&spanning, SegmentId(1));
        idx.insert(&rep(10.0, 20.0, 0.0), SegmentId(2));
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
        let spanning = rep(90.0, 110.0, 0.0); // buckets 0 and 1
        idx.insert(&spanning, SegmentId(3));
        idx.expire_before(100.0); // bucket 0 gone
        assert!(idx.remove(&spanning, SegmentId(3)));
        assert!(idx.is_empty());
        assert!(idx.candidates(&q(100.0, 120.0)).is_empty());
    }

    #[test]
    fn negative_times_bucket_correctly() {
        let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
        idx.insert(&rep(0.0, 10.0, 0.0), SegmentId(0));
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
            let r = rep(
                f64::from(i) * 9.0,
                f64::from(i) * 9.0 + 30.0,
                f64::from(i % 11) * 30.0,
            );
            a.insert(&r, SegmentId(i));
            b.insert(&r, SegmentId(i));
        }
        let mut ha = a.candidates(&q(300.0, 900.0));
        let mut hb = b.candidates(&q(300.0, 900.0));
        ha.sort();
        hb.sort();
        assert_eq!(ha, hb);
    }

    #[test]
    #[should_panic(expected = "shard width")]
    fn zero_width_rejected() {
        ShardedFovIndex::new(0.0, IndexKind::RTree);
    }

    #[test]
    fn fanout_metrics_count_probed_shards() {
        let reg = Registry::new();
        let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
        idx.attach_observability(&reg);
        idx.insert(&rep(10.0, 20.0, 0.0), SegmentId(0)); // bucket 0
        idx.insert(&rep(150.0, 160.0, 0.0), SegmentId(1)); // bucket 1
        idx.insert(&rep(950.0, 960.0, 0.0), SegmentId(2)); // bucket 9

        // Window spans buckets 0..=9, but only 3 shards exist.
        assert_eq!(idx.candidates(&q(0.0, 999.0)).len(), 3);
        // Window spans buckets 0..=1: both shards probed, 2 hits.
        assert_eq!(idx.candidates(&q(0.0, 199.0)).len(), 2);

        let fanout = reg.histogram("swag_shard_fanout").snapshot();
        assert_eq!(fanout.count, 2);
        assert_eq!(fanout.sum, 3 + 2);
        let cands = reg.histogram("swag_shard_candidates").snapshot();
        assert_eq!(cands.sum, 3 + 2);
    }
}
