//! The immutable read-side state: one published snapshot.
//!
//! What queries see is an **epoch**: one `Arc` clone of it answers a
//! whole query without holding a lock. It is the published `(store,
//! index)` snapshot plus the cache stamp it was published with; every
//! ingest folds its records into the next one, so there is no second,
//! pending tier beside it.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::shard::ShardedFovIndex;
use crate::shard_map::ShardMap;
use crate::store::SegmentStore;

/// The result cache's view of "has anything this plan could see
/// changed?" — carried immutably on every epoch, bumped by the writer.
///
/// * `shard_versions` maps a time-shard bucket to a version that the
///   writer bumps whenever a publish folds records into that bucket,
///   retention drops it, or a retraction removes records from it. A
///   cached entry stores the versions of the buckets its window spans
///   and stays valid across publishes that only touch *other* buckets —
///   the issue's "cold shards keep their entries" property. It is a
///   [`ShardMap`], so a publish copies only the bucket groups it bumps.
/// * `global_gen` increments on whole-world changes that per-bucket
///   versions cannot describe: store compaction (dense [`crate::store::SegmentId`]s
///   are reassigned, so every cached hit list is stale) and bootstrap.
#[derive(Debug, Clone, Default)]
pub(crate) struct CacheStamp {
    pub(crate) global_gen: u64,
    pub(crate) shard_versions: ShardMap<u64>,
}

impl CacheStamp {
    /// Bumps the version of every time-shard bucket `[t0, t1]` spans (the
    /// same `floor(t / width)` bucketing the sharded index uses),
    /// invalidating cached results that probed those buckets.
    pub(crate) fn bump_span(&mut self, width: f64, t0: f64, t1: f64) {
        for bucket in ((t0 / width).floor() as i64)..=((t1 / width).floor() as i64) {
            *self.shard_versions.entry_or_default(bucket) += 1;
        }
    }

    /// The versions as a plain map (the snapshot worker's input).
    pub(crate) fn versions_map(&self) -> Arc<BTreeMap<i64, u64>> {
        Arc::new(self.shard_versions.iter().map(|(b, v)| (b, *v)).collect())
    }
}

/// What queries see: one `Arc` clone of this answers a whole query. The
/// store and index share every chunk, shard group and run the publish
/// that made this epoch did not touch with the epoch before it.
pub(crate) struct Epoch {
    pub(crate) store: SegmentStore,
    pub(crate) index: ShardedFovIndex,
    pub(crate) published_at_micros: u64,
    pub(crate) stamp: CacheStamp,
}
