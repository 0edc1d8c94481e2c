//! The write path: folding ingests into snapshots, retention,
//! compaction, and retraction.
//!
//! Every ingest call logs one WAL frame and then folds its records,
//! under one write lock, straight into a new published epoch
//! (read-your-writes); a call the log refuses folds nothing and returns
//! the error. Each time shard the batch touched gains one
//! STR-packed run of the batch's items, merged with the shard's small
//! tail runs geometrically ([`ShardedFovIndex::bulk_insert_exec`]).
//! Retention expires old shards at publish time and retires the dropped
//! segments from the store, which compacts once enough of it is
//! tombstones.
//!
//! Retraction only retires: it marks the provider's segments in the
//! store and publishes the same index, whose packed runs are never
//! edited. The ranking drops retired ids, and a retired segment leaves
//! the index when its shards expire or when compaction — which counts
//! retired slots like any other tombstone — rebuilds the index from the
//! live records.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::BytesMut;
use swag_core::{DescriptorCodec, RepFov, UploadBatch};
use swag_store::{batch_records, Durability, StoreError, WalOp};

use crate::shard::ShardedFovIndex;
use crate::store::{SegmentId, SegmentRef, SegmentStore};

use super::epoch::Epoch;
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

/// Writer-side state, guarded by one mutex. `epoch` is the last one
/// published; store, index and stamp clones taken from it are
/// copy-on-write cheap.
pub(crate) struct Writer {
    pub(crate) epoch: Arc<Epoch>,
    /// Latest `t_end` ever ingested — the retention clock.
    pub(crate) max_t_end: f64,
}

impl Engine {
    /// Publishes `epoch` to readers and the writer. Every publish path
    /// goes through this.
    pub(crate) fn install(&self, w: &mut Writer, epoch: Epoch) {
        let epoch = Arc::new(epoch);
        *self.epoch.write() = epoch.clone();
        w.epoch = epoch;
    }

    /// Hands the published store to the background snapshot worker
    /// (durable servers). Every WAL op so far was appended under the
    /// writer lock before its effect landed, so the rotated floor covers
    /// exactly the ops the store reflects.
    fn checkpoint(&self, w: &Writer) {
        if let Some(durability) = &self.durability {
            durability.on_publish(|| (w.epoch.store.clone(), w.epoch.stamp.versions_map()));
        }
    }

    /// Folds `records` into a fresh snapshot: appends them to the (COW)
    /// store, appends a packed run to each touched shard, applies
    /// retention (to `extra_horizon` as well, when given) and
    /// compaction, and publishes the result. Returns the ids the records
    /// were assigned (a compaction in this same fold reassigns them, as
    /// any later one does) and how many segments retention dropped.
    fn fold(
        &self,
        w: &mut Writer,
        records: &[(RepFov, SegmentRef)],
        extra_horizon: Option<f64>,
    ) -> (Vec<SegmentId>, usize) {
        let t0 = if self.obs.is_some() {
            self.clock.now_micros()
        } else {
            0
        };
        let prev_published = w.epoch.published_at_micros;

        let mut store = w.epoch.store.clone();
        let mut index = w.epoch.index.clone();
        let mut stamp = w.epoch.stamp.clone();
        let staged: Vec<(RepFov, SegmentId)> = records
            .iter()
            .map(|(rep, source)| (*rep, store.push(*rep, *source)))
            .collect();
        index.bulk_insert_exec(&self.exec, &staged);

        // Cache invalidation: every bucket the records landed in changed.
        let width = self.config.shard_width_s;
        for (rep, _) in &staged {
            w.max_t_end = w.max_t_end.max(rep.t_end);
            stamp.bump_span(width, rep.t_start, rep.t_end);
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
            for bucket in &report.buckets_dropped {
                *stamp.shard_versions.entry_or_default(*bucket) += 1;
            }
            // Only the segments this expiry retires: a retracted one is
            // still indexed, and a cold run written after the retraction
            // would serve it again.
            let expired: Vec<SegmentId> = report
                .segments_dropped
                .into_iter()
                .filter(|id| !store.is_retired(*id))
                .collect();
            // Cold-tier demotion: before the expired segments become
            // tombstones, write them (grouped by home bucket) to
            // immutable cold runs so `cold_scan` can still reach them.
            // A failed demotion never fails the publish — retention goes
            // ahead — but it is data loss, so it is logged here and
            // counted by the store, never discarded.
            if let Some(durability) = &self.durability {
                if !expired.is_empty() {
                    let mut by_bucket: BTreeMap<i64, Vec<(RepFov, SegmentRef)>> = BTreeMap::new();
                    let mut scratch = BytesMut::with_capacity(DescriptorCodec::RECORD_SIZE);
                    for id in &expired {
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
            for id in &expired {
                store.retire(*id);
            }
            dropped = expired.len();
        }

        // Compaction: once enough of the store is tombstones, re-pack the
        // live records densely and rebuild the index. Ids are
        // server-internal; external references use `SegmentRef`.
        let ids: Vec<SegmentId> = staged.iter().map(|(_, id)| *id).collect();
        if store.dead() >= COMPACT_DEAD_FLOOR
            && store.dead() as f64 > COMPACT_DEAD_FRACTION * store.total() as f64
        {
            let mut fresh = SegmentStore::new();
            let mut items = Vec::with_capacity(store.len());
            for rec in store.iter() {
                let id = fresh.push(rec.rep, rec.source);
                items.push((rec.rep, id));
            }
            let mut rebuilt = ShardedFovIndex::new(width, self.config.index);
            rebuilt.bulk_insert_exec(&self.exec, &items);
            store = fresh;
            index = rebuilt;
            // Compaction reassigns dense SegmentIds, which appear in
            // every cached SearchHit — nothing cached survives.
            stamp.global_gen += 1;
        }

        let now = self.clock.now_micros();
        let epoch = Epoch {
            store,
            index,
            published_at_micros: now,
            stamp,
        };
        self.install(w, epoch);
        self.checkpoint(w);
        if let Some(obs) = &self.obs {
            obs.publishes.inc();
            obs.rebuild_micros.record(now.saturating_sub(t0));
            obs.snapshot_age.record(now.saturating_sub(prev_published));
            obs.retention_dropped.add(dropped as u64);
        }
        (ids, dropped)
    }

    /// Folds `records` into a new epoch under the writer lock, after
    /// `log` (durable servers only) accepted the call's WAL frame: a
    /// record is never visible in memory without a log frame, and a
    /// refused frame publishes nothing. Nothing is logged or published
    /// for no records.
    fn ingest_records(
        &self,
        records: &[(RepFov, SegmentRef)],
        log: impl FnOnce(&Durability) -> Result<(), StoreError>,
    ) -> Result<Vec<SegmentId>, StoreError> {
        if records.is_empty() {
            return Ok(Vec::new());
        }
        let mut w = self.writer.lock();
        if let Some(durability) = &self.durability {
            log(durability)?;
        }
        Ok(self.fold(&mut w, records, None).0)
    }

    /// Folds records that are already durable, logging nothing: recovery
    /// replays each run of consecutive WAL appends through this as one
    /// fold.
    pub(crate) fn replay_records(&self, records: &[(RepFov, SegmentRef)]) {
        if !records.is_empty() {
            self.fold(&mut self.writer.lock(), records, None);
        }
    }

    /// Ingests one upload batch, returning the assigned segment ids.
    pub(crate) fn ingest_batch(&self, batch: &UploadBatch) -> Result<Vec<SegmentId>, StoreError> {
        let t0 = if self.obs.is_some() {
            self.clock.now_micros()
        } else {
            0
        };
        let records: Vec<(RepFov, SegmentRef)> = batch_records(0, batch).collect();
        let ids = self.ingest_records(&records, |d| d.append_batch(0, batch))?;
        self.batches.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.segments.add(batch.reps.len() as u64);
            obs.ingest.record(self.clock.now_micros() - t0);
        }
        Ok(ids)
    }

    /// Ingests a single representative FoV.
    pub(crate) fn ingest_one(
        &self,
        rep: RepFov,
        source: SegmentRef,
    ) -> Result<SegmentId, StoreError> {
        let ids = self.ingest_records(&[(rep, source)], |d| {
            let batch = UploadBatch {
                provider_id: source.provider_id,
                video_id: source.video_id,
                reps: vec![rep],
            };
            d.append_batch(source.segment_idx, &batch)
        })?;
        if let Some(obs) = &self.obs {
            obs.segments.inc();
        }
        Ok(ids[0])
    }

    /// Retracts every segment a provider contributed. Returns how many
    /// live segments were retired; on a durable server the provider's
    /// rows in every cold run written so far are hidden too. The
    /// retraction publishes a fresh snapshot immediately, over the same
    /// index. A retraction the log refuses removes nothing.
    pub(crate) fn retract_provider(&self, provider_id: u64) -> Result<usize, StoreError> {
        let mut w = self.writer.lock();
        // Logged before the mutation. Cold rows are hidden by provider,
        // not by bucket, so every cached result may hold one: nothing
        // cached survives.
        let hides_cold = self.has_cold();
        if let Some(durability) = &self.durability {
            durability.retract(provider_id)?;
        }

        let victims: Vec<(RepFov, SegmentId)> = w
            .epoch
            .store
            .iter()
            .filter(|rec| rec.source.provider_id == provider_id)
            .map(|rec| (rec.rep, rec.id))
            .collect();
        let removed = victims.len();
        if removed == 0 && !hides_cold {
            return Ok(0);
        }
        let mut store = w.epoch.store.clone();
        let index = w.epoch.index.clone();
        let mut stamp = w.epoch.stamp.clone();
        let width = self.config.shard_width_s;
        for (rep, id) in &victims {
            store.retire(*id);
            // Cached results over these windows held the victim.
            stamp.bump_span(width, rep.t_start, rep.t_end);
        }
        if hides_cold {
            stamp.global_gen += 1;
        }
        let published_at_micros = w.epoch.published_at_micros;
        self.install(
            &mut w,
            Epoch {
                store,
                index,
                published_at_micros,
                stamp,
            },
        );
        // Make the retraction snapshot-durable promptly (it is the §I
        // privacy path) instead of waiting for the next fold.
        self.checkpoint(&w);
        if let Some(obs) = &self.obs {
            obs.publishes.inc();
        }
        Ok(removed)
    }

    /// Expires everything older than `horizon_s`: publishes a shrunken
    /// snapshot immediately and returns how many segments were dropped.
    /// An expiry the log refuses drops nothing.
    pub(crate) fn expire_before(&self, horizon_s: f64) -> Result<usize, StoreError> {
        let mut w = self.writer.lock();
        // Logged before the publish so the fold's snapshot floor covers
        // an op whose effect its store clone already reflects. (The
        // automatic config-driven horizon is deliberately NOT logged:
        // replay re-derives it from the same config and ingest order.)
        if let Some(durability) = &self.durability {
            durability.append(&WalOp::Expire { horizon_s })?;
        }
        Ok(self.fold(&mut w, &[], Some(horizon_s)).1)
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
        w.max_t_end = max_t_end;
        // The world was replaced wholesale; nothing cached survives.
        let mut stamp = w.epoch.stamp.clone();
        stamp.global_gen += 1;
        let published_at_micros = self.clock.now_micros();
        self.install(
            &mut w,
            Epoch {
                store,
                index,
                published_at_micros,
                stamp,
            },
        );
    }
}
