//! The write path: staging, snapshot publishing, retention, compaction,
//! and retraction.
//!
//! Writers append into the delta under a short write lock; every write
//! republishes the epoch (read-your-writes), and once the delta reaches
//! [`crate::server::ServerConfig::publish_threshold`] records the
//! writer folds it into a new snapshot: each time shard the batch
//! touched gains one STR-packed run of the batch's items, merged with
//! the shard's small tail runs geometrically
//! ([`ShardedFovIndex::bulk_insert_exec`]). Retention expires old shards
//! at publish time and retires the dropped segments from the store,
//! which compacts once enough of it is tombstones.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::BytesMut;
use swag_core::{DescriptorCodec, RepFov, UploadBatch};
use swag_store::WalOp;

use crate::index::fov_box;
use crate::shard::ShardedFovIndex;
use crate::store::{SegmentId, SegmentRecord, SegmentRef, SegmentStore};

use super::epoch::{CacheStamp, DeltaRecord, Epoch, SnapshotCore};
use super::ops::cold_zone_of;
use super::Engine;

/// Don't bother compacting stores with fewer tombstones than this.
const COMPACT_DEAD_FLOOR: usize = 32;
/// Fraction of the store that may be tombstones before a publish
/// compacts it (re-assigning ids densely and rebuilding the index).
const COMPACT_DEAD_FRACTION: f64 = 0.25;

/// The rep as a cold run will hand it back: the container stores reps in
/// the descriptor codec's fixed-point form, so a zone map computed over
/// the in-memory floats could miss a decoded record by a rounding step.
/// A rep the codec rejects is returned as is (its demotion fails anyway).
fn as_stored(rep: &RepFov, scratch: &mut BytesMut) -> RepFov {
    scratch.clear();
    match DescriptorCodec::encode_rep(rep, scratch) {
        Ok(()) => DescriptorCodec::decode_rep(&mut &scratch[..]).unwrap_or(*rep),
        Err(_) => *rep,
    }
}

/// Writer-side state, guarded by one mutex. `core` mirrors the epoch's
/// core; store/index clones taken from it are copy-on-write cheap.
pub(crate) struct Writer {
    pub(crate) core: Arc<SnapshotCore>,
    pub(crate) delta: Vec<Arc<[DeltaRecord]>>,
    pub(crate) delta_len: usize,
    /// Latest `t_end` ever ingested — the retention clock.
    pub(crate) max_t_end: f64,
    /// Cache invalidation state published with every epoch (see
    /// [`CacheStamp`] for what each piece invalidates).
    pub(crate) stamp: CacheStamp,
}

impl Writer {
    /// Builds the epoch the current writer state publishes. Every
    /// publish path goes through this so no constructor can forget the
    /// cache stamp.
    pub(crate) fn make_epoch(&self) -> Arc<Epoch> {
        Arc::new(Epoch {
            core: self.core.clone(),
            delta: Arc::from(self.delta.as_slice()),
            delta_len: self.delta_len,
            stamp: self.stamp.clone(),
        })
    }

    /// Bumps the cache version of every time-shard bucket `[t0, t1]`
    /// spans (the same `floor(t / width)` bucketing the sharded index
    /// uses), invalidating cached results that probed those buckets.
    fn bump_span(&mut self, width: f64, t0: f64, t1: f64) {
        let versions = Arc::make_mut(&mut self.stamp.shard_versions);
        for bucket in ((t0 / width).floor() as i64)..=((t1 / width).floor() as i64) {
            *versions.entry(bucket).or_insert(0) += 1;
        }
    }

    /// Bumps explicit bucket ids (the retention-drop path).
    fn bump_buckets(&mut self, buckets: &[i64]) {
        if buckets.is_empty() {
            return;
        }
        let versions = Arc::make_mut(&mut self.stamp.shard_versions);
        for bucket in buckets {
            *versions.entry(*bucket).or_insert(0) += 1;
        }
    }
}

impl Engine {
    /// Builds the next pending record (assigning the next dense id) and
    /// pre-computes its index box. The caller freezes the returned
    /// records into one delta slice.
    fn stage(&self, w: &mut Writer, rep: RepFov, source: SegmentRef) -> DeltaRecord {
        let next = w.core.store.total() + w.delta_len;
        let id = SegmentId(u32::try_from(next).expect("store capacity exceeded"));
        w.delta_len += 1;
        w.max_t_end = w.max_t_end.max(rep.t_end);
        DeltaRecord {
            rec: SegmentRecord { id, rep, source },
            bbox: fov_box(&rep),
        }
    }

    /// Publishes the current writer state: folds the delta into a new
    /// snapshot once it is large enough, otherwise republishes the same
    /// core with the updated delta (read-your-writes).
    fn publish(&self, w: &mut Writer) {
        if w.delta_len >= self.config.publish_threshold {
            self.publish_full(w, None);
        } else {
            // Same core, grown delta, same stamp: cached entries stay
            // valid and lazily test only the appended records.
            *self.epoch.write() = w.make_epoch();
        }
    }

    /// Folds the delta into a fresh snapshot: appends to the (COW) store,
    /// appends a packed run to each touched shard, applies retention and
    /// compaction, and publishes the result. Returns how many segments
    /// retention dropped.
    fn publish_full(&self, w: &mut Writer, extra_horizon: Option<f64>) -> usize {
        let t0 = self.clock.now_micros();
        let delta_len = w.delta_len;
        let prev_published = w.core.published_at_micros;

        let mut store = w.core.store.clone();
        let mut index = w.core.index.clone();
        let mut staged: Vec<(RepFov, SegmentId)> = Vec::with_capacity(delta_len);
        for batch in w.delta.drain(..) {
            for d in batch.iter() {
                let id = store.push(d.rec.rep, d.rec.source);
                debug_assert_eq!(id, d.rec.id, "delta ids must stay dense");
                staged.push((d.rec.rep, id));
            }
        }
        w.delta_len = 0;
        index.bulk_insert_exec(&self.exec, &staged);

        // Cache invalidation: the delta was folded (a fresh generation),
        // and every bucket the folded records landed in changed.
        w.stamp.delta_gen += 1;
        let width = self.config.shard_width_s;
        for (rep, _) in &staged {
            w.bump_span(width, rep.t_start, rep.t_end);
        }

        // Retention: expire shards past the horizon, retire the segments
        // that no longer exist in any shard.
        let mut horizon = extra_horizon;
        if let Some(h) = self.config.retention_horizon_s {
            let auto = w.max_t_end - h;
            if auto.is_finite() {
                horizon = Some(horizon.map_or(auto, |e| e.max(auto)));
            }
        }
        let mut dropped = 0usize;
        if let Some(h) = horizon {
            let report = index.expire_before(h);
            w.bump_buckets(&report.buckets_dropped);
            // Cold-tier demotion: before the expired segments become
            // tombstones, write them (grouped by home bucket) to
            // immutable cold runs so `cold_scan` can still reach them.
            // A failed demotion never fails the publish — retention goes
            // ahead — but it is data loss, so it is logged here and
            // counted by the store, never discarded.
            if let Some(durability) = &self.durability {
                if !report.segments_dropped.is_empty() {
                    let mut by_bucket: BTreeMap<i64, Vec<(RepFov, SegmentRef)>> = BTreeMap::new();
                    let mut scratch = BytesMut::with_capacity(DescriptorCodec::RECORD_SIZE);
                    for id in &report.segments_dropped {
                        let rec = store.get(*id);
                        by_bucket
                            .entry(swag_store::home_bucket(rec.rep.t_start, width))
                            .or_default()
                            .push((as_stored(&rec.rep, &mut scratch), rec.source));
                    }
                    for (bucket, records) in &by_bucket {
                        if let Err(e) = durability.demote(*bucket, records, cold_zone_of(records)) {
                            eprintln!(
                                "swag-server: demoting bucket {bucket} failed, retention \
                                 dropped its {} records: {e}",
                                records.len()
                            );
                        }
                    }
                }
            }
            for id in &report.segments_dropped {
                if store.retire(*id) {
                    dropped += 1;
                }
            }
        }

        // Compaction: once enough of the store is tombstones, re-pack the
        // live records densely and rebuild the index. Ids are
        // server-internal; external references use `SegmentRef`.
        if store.dead() >= COMPACT_DEAD_FLOOR
            && store.dead() as f64 > COMPACT_DEAD_FRACTION * store.total() as f64
        {
            let mut fresh = SegmentStore::new();
            let mut items = Vec::with_capacity(store.len());
            for rec in store.iter() {
                let id = fresh.push(rec.rep, rec.source);
                items.push((rec.rep, id));
            }
            let mut rebuilt = index.fresh_like();
            rebuilt.bulk_insert_exec(&self.exec, &items);
            store = fresh;
            index = rebuilt;
            // Compaction reassigns dense SegmentIds, which appear in
            // every cached SearchHit — nothing cached survives.
            w.stamp.global_gen += 1;
        }

        let now = self.clock.now_micros();
        let core = Arc::new(SnapshotCore {
            store,
            index,
            published_at_micros: now,
        });
        w.core = core;
        *self.epoch.write() = w.make_epoch();
        // Hand the folded store to the background snapshot worker. Every
        // WAL op so far was appended under this writer lock before its
        // effect landed, so the rotated floor covers exactly the ops the
        // store clone reflects.
        if let Some(durability) = &self.durability {
            durability.on_publish(w.core.store.clone(), w.stamp.shard_versions.clone());
        }
        if let Some(obs) = &self.obs {
            obs.publishes.inc();
            obs.rebuild_micros.record(now.saturating_sub(t0));
            obs.snapshot_age.record(now.saturating_sub(prev_published));
            obs.delta_size.record(delta_len as u64);
            obs.retention_dropped.add(dropped as u64);
        }
        dropped
    }

    /// Ingests one upload batch, returning the assigned segment ids.
    pub(crate) fn ingest_batch(&self, batch: &UploadBatch) -> Vec<SegmentId> {
        let t0 = if self.obs.is_some() {
            self.clock.now_micros()
        } else {
            0
        };
        let mut w = self.writer.lock();
        let mut staged = Vec::with_capacity(batch.reps.len());
        let ids = batch
            .reps
            .iter()
            .enumerate()
            .map(|(i, rep)| {
                let source = SegmentRef {
                    provider_id: batch.provider_id,
                    video_id: batch.video_id,
                    segment_idx: i as u32,
                };
                // WAL-append before staging: a record is never visible
                // in memory without a durable (or in-flight) log frame.
                if let Some(durability) = &self.durability {
                    let _ = durability.append(&WalOp::Append { rep: *rep, source });
                }
                let d = self.stage(&mut w, *rep, source);
                let id = d.rec.id;
                staged.push(d);
                id
            })
            .collect();
        if !staged.is_empty() {
            w.delta.push(Arc::from(staged));
        }
        self.publish(&mut w);
        drop(w);
        self.batches.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.segments.add(batch.reps.len() as u64);
            obs.ingest.record(self.clock.now_micros() - t0);
        }
        ids
    }

    /// Ingests a single representative FoV.
    pub(crate) fn ingest_one(&self, rep: RepFov, source: SegmentRef) -> SegmentId {
        let mut w = self.writer.lock();
        if let Some(durability) = &self.durability {
            let _ = durability.append(&WalOp::Append { rep, source });
        }
        let d = self.stage(&mut w, rep, source);
        let id = d.rec.id;
        w.delta.push(Arc::from(vec![d]));
        self.publish(&mut w);
        drop(w);
        if let Some(obs) = &self.obs {
            obs.segments.inc();
        }
        id
    }

    /// Retracts every segment a provider contributed. Returns how many
    /// live segments were removed; on a durable server the provider's
    /// rows in every cold run written so far are hidden too. The
    /// retraction publishes a fresh snapshot immediately.
    pub(crate) fn retract_provider(&self, provider_id: u64) -> usize {
        let mut w = self.writer.lock();
        // Fold pending records into the core first: retraction then only
        // has to retire published records, and delta ids stay dense.
        if w.delta_len > 0 {
            self.publish_full(&mut w, None);
        }
        // Logged after the fold (whose snapshot floor must not cover an
        // op its store clone does not reflect) and before the mutation.
        // Cold rows are hidden by provider, not by bucket, so every
        // cached result may hold one: nothing cached survives.
        let hides_cold = self.has_cold();
        if let Some(durability) = &self.durability {
            let _ = durability.retract(provider_id);
        }

        let victims: Vec<(RepFov, SegmentId)> = w
            .core
            .store
            .iter()
            .filter(|rec| rec.source.provider_id == provider_id)
            .map(|rec| (rec.rep, rec.id))
            .collect();
        let removed = victims.len();
        if !victims.is_empty() {
            let mut store = w.core.store.clone();
            let mut index = w.core.index.clone();
            let width = self.config.shard_width_s;
            for (rep, id) in &victims {
                let unindexed = index.remove(rep, *id);
                debug_assert!(unindexed, "index and store disagreed on {id:?}");
                store.retire(*id);
                // Cached results over these windows held the victim.
                w.bump_span(width, rep.t_start, rep.t_end);
            }
            w.core = Arc::new(SnapshotCore {
                store,
                index,
                published_at_micros: w.core.published_at_micros,
            });
        }
        if hides_cold {
            w.stamp.global_gen += 1;
        } else if removed == 0 {
            return 0;
        }
        *self.epoch.write() = w.make_epoch();
        // Make the retraction snapshot-durable promptly (it is the §I
        // privacy path) instead of waiting for the next fold.
        if let Some(durability) = &self.durability {
            durability.on_publish(w.core.store.clone(), w.stamp.shard_versions.clone());
        }
        if let Some(obs) = &self.obs {
            obs.publishes.inc();
        }
        removed
    }

    /// Expires everything older than `horizon_s`: publishes a shrunken
    /// snapshot immediately and returns how many segments were dropped.
    pub(crate) fn expire_before(&self, horizon_s: f64) -> usize {
        let mut w = self.writer.lock();
        // Logged before the publish so the fold's snapshot floor covers
        // an op whose effect its store clone already reflects. (The
        // automatic config-driven horizon is deliberately NOT logged:
        // replay re-derives it from the same config and ingest order.)
        if let Some(durability) = &self.durability {
            let _ = durability.append(&WalOp::Expire { horizon_s });
        }
        self.publish_full(&mut w, Some(horizon_s))
    }

    /// Replaces the (empty) published snapshot with one STR-bulk-loaded
    /// from `records` (recovery's snapshot load, and
    /// `from_records_with_config_exec`).
    pub(crate) fn bootstrap(&self, records: Vec<(RepFov, SegmentRef)>) {
        let mut w = self.writer.lock();
        let mut store = SegmentStore::new();
        let mut items = Vec::with_capacity(records.len());
        let mut max_t_end = f64::NEG_INFINITY;
        for (rep, source) in records {
            let id = store.push(rep, source);
            items.push((rep, id));
            max_t_end = max_t_end.max(rep.t_end);
        }
        let mut index = ShardedFovIndex::new(self.config.shard_width_s, self.config.index);
        index.bulk_insert_exec(&self.exec, &items);
        let core = Arc::new(SnapshotCore {
            store,
            index,
            published_at_micros: self.clock.now_micros(),
        });
        w.core = core;
        w.max_t_end = max_t_end;
        // The world was replaced wholesale; nothing cached survives.
        w.stamp.global_gen += 1;
        *self.epoch.write() = w.make_epoch();
    }
}
