//! The plan-keyed result cache: serving-path scale for hot queries.
//!
//! The paper's motivating scenario — a crowd all asking about the same
//! incident — concentrates query load on a handful of plans. Recomputing
//! each one melts the server; this cache answers repeats in one hash
//! probe. Entries are keyed by the 64-bit
//! [`QueryPlan::fingerprint`](super::plan::QueryPlan::fingerprint) of the
//! canonical plan and validated against the epoch's
//! `CacheStamp` on every lookup:
//!
//! * **global generation** — compaction and bootstrap reassign dense
//!   segment ids, so a mismatch invalidates unconditionally;
//! * **per-bucket shard versions** — the writer bumps a time-shard
//!   bucket's version when a publish folds records into it, retention
//!   drops it, or a retraction retires a record of it. An entry records the
//!   versions of the buckets its window spans, so a publish that folds
//!   into *other* buckets leaves it valid — cold shards keep their
//!   entries across publishes. Every ingest is such a publish, and a
//!   record's index box includes its time span, so it lands in the
//!   entry's buckets iff it could affect the entry.
//!
//! An entry is current iff both match; there is nothing else to check.
//!
//! Invalidation is lazy: stale entries are detected and removed by the
//! next lookup (or evicted by capacity pressure), never swept. A
//! fingerprint collision between two distinct plans degrades to a miss —
//! entries store the full `PlanKey` and compare it on hit — so the
//! cache can serve wrong-age results never, wrong-plan results never,
//! and byte-identical results always (the equivalence proptests pin
//! this).

use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::ranking::SearchHit;

use super::epoch::Epoch;
use super::plan::{PlanKey, QueryPlan};

/// Widest window (in time-shard buckets) a plan may span and still be
/// cached: the per-entry version vector stays small and a single giant
/// scan cannot monopolize the cache.
pub(crate) const CACHE_MAX_BUCKET_SPAN: usize = 64;

/// Lock stripes. Hot fingerprints map to one stripe; 16 keeps writer
/// interference low without wasting memory at small capacities.
const CACHE_STRIPES: usize = 16;

/// Results with more hits than this are served but not stored, so a few
/// `top_n = all` scans cannot crowd out the hot set.
const CACHE_MAX_HITS: usize = 512;

/// Result-cache tuning, part of
/// [`ServerConfig`](crate::server::ServerConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheConfig {
    /// Maximum cached plans. `0` disables the cache entirely (the
    /// default: the cache is opt-in so an uncached server stays
    /// byte-identical to earlier versions).
    pub capacity: usize,
}

impl CacheConfig {
    /// A cache of `capacity` plans (the CLI and benches use this).
    pub fn enabled(capacity: usize) -> Self {
        CacheConfig { capacity }
    }
}

/// Inclusive time-shard bucket range `[t0, t1]` spans — the same
/// `floor(t / width)` bucketing [`crate::shard::ShardedFovIndex`] uses.
pub(crate) fn bucket_range(width: f64, t0: f64, t1: f64) -> RangeInclusive<i64> {
    ((t0 / width).floor() as i64)..=((t1 / width).floor() as i64)
}

/// Number of buckets in [`bucket_range`], saturating.
pub(crate) fn bucket_span_len(width: f64, t0: f64, t1: f64) -> usize {
    let r = bucket_range(width, t0, t1);
    usize::try_from(r.end().saturating_sub(*r.start()))
        .unwrap_or(usize::MAX)
        .saturating_add(1)
}

/// One cached result plus everything needed to prove it still current.
struct CacheEntry {
    /// Full canonical key — compared on every hit so a 64-bit
    /// fingerprint collision is a miss, not a wrong answer.
    key: PlanKey,
    hits: Arc<[SearchHit]>,
    global_gen: u64,
    /// Versions of the buckets the plan's window spans, in bucket order,
    /// as captured from the stamp at insert (missing buckets omitted).
    versions: Box<[(i64, u64)]>,
    /// LRU clock value of the last hit (or the insert).
    last_used: u64,
}

/// Lookup outcome, split so the engine can attribute metrics.
pub(crate) enum Lookup {
    Hit(Vec<SearchHit>),
    Miss,
}

/// Insert outcome.
pub(crate) enum Insert {
    Stored {
        evicted: bool,
    },
    /// Result larger than [`CACHE_MAX_HITS`]; not stored.
    TooLarge,
}

/// The lock-striped cache. One instance per engine, shared by every
/// query thread; each stripe is a small `Mutex<HashMap>` held only for
/// the validity check (result materialization happens outside the
/// lock).
pub(crate) struct ResultCache {
    stripes: Box<[Mutex<HashMap<u64, CacheEntry>>]>,
    stripe_cap: usize,
    shard_width_s: f64,
    /// Monotonic LRU clock; cheap relaxed increments, exact order is
    /// irrelevant.
    clock: AtomicU64,
}

impl ResultCache {
    /// Builds a cache, or `None` when `capacity == 0` (disabled).
    pub(crate) fn new(cfg: CacheConfig, shard_width_s: f64) -> Option<Self> {
        if cfg.capacity == 0 {
            return None;
        }
        let stripes = CACHE_STRIPES.min(cfg.capacity);
        Some(ResultCache {
            stripes: (0..stripes)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            stripe_cap: cfg.capacity.div_ceil(stripes).max(1),
            shard_width_s,
            clock: AtomicU64::new(0),
        })
    }

    /// Whether a plan may be cached at all (window narrow enough for a
    /// small per-entry version vector).
    pub(crate) fn eligible(&self, plan: &QueryPlan) -> bool {
        bucket_span_len(self.shard_width_s, plan.query().t_start, plan.query().t_end)
            <= CACHE_MAX_BUCKET_SPAN
    }

    /// Current entry count across all stripes (gauge refresh only).
    pub(crate) fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }

    fn stripe(&self, fingerprint: u64) -> &Mutex<HashMap<u64, CacheEntry>> {
        &self.stripes[(fingerprint as usize) % self.stripes.len()]
    }

    /// Versions of the entry's buckets as the current stamp records
    /// them, compared pairwise without allocating.
    fn versions_current(entry: &CacheEntry, plan: &QueryPlan, epoch: &Epoch, width: f64) -> bool {
        let range = bucket_range(width, plan.query().t_start, plan.query().t_end);
        let mut current = epoch.stamp.shard_versions.range(range);
        entry
            .versions
            .iter()
            .all(|&(bucket, version)| current.next() == Some((bucket, &version)))
            && current.next().is_none()
    }

    /// Looks up `fingerprint`, proving any entry current against
    /// `epoch` first. Stale entries are removed (lazy invalidation).
    pub(crate) fn lookup(
        &self,
        fingerprint: u64,
        key: &PlanKey,
        plan: &QueryPlan,
        epoch: &Epoch,
    ) -> Lookup {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut stripe = self.stripe(fingerprint).lock();
        let Some(entry) = stripe.get_mut(&fingerprint) else {
            return Lookup::Miss;
        };
        if entry.key != *key {
            // Fingerprint collision with a different live plan: a miss,
            // and the incumbent stays (last-insert-wins on store).
            return Lookup::Miss;
        }
        let current = entry.global_gen == epoch.stamp.global_gen
            && Self::versions_current(entry, plan, epoch, self.shard_width_s);
        if !current {
            stripe.remove(&fingerprint);
            return Lookup::Miss;
        }
        entry.last_used = now;
        let hits = entry.hits.clone();
        drop(stripe);
        Lookup::Hit(hits.to_vec())
    }

    /// Stores a freshly computed result, stamped with the epoch it was
    /// computed against. Evicts the stripe's least-recently-used entry
    /// at capacity.
    pub(crate) fn insert(
        &self,
        fingerprint: u64,
        key: PlanKey,
        plan: &QueryPlan,
        epoch: &Epoch,
        hits: &[SearchHit],
    ) -> Insert {
        if hits.len() > CACHE_MAX_HITS {
            return Insert::TooLarge;
        }
        let range = bucket_range(self.shard_width_s, plan.query().t_start, plan.query().t_end);
        let versions: Box<[(i64, u64)]> = epoch
            .stamp
            .shard_versions
            .range(range)
            .map(|(b, v)| (b, *v))
            .collect();
        let entry = CacheEntry {
            key,
            hits: Arc::from(hits),
            global_gen: epoch.stamp.global_gen,
            versions,
            last_used: self.clock.fetch_add(1, Ordering::Relaxed),
        };
        let mut stripe = self.stripe(fingerprint).lock();
        let mut evicted = false;
        if stripe.len() >= self.stripe_cap && !stripe.contains_key(&fingerprint) {
            if let Some(victim) = stripe
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(fp, _)| *fp)
            {
                stripe.remove(&victim);
                evicted = true;
            }
        }
        stripe.insert(fingerprint, entry);
        Insert::Stored { evicted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_capacity_builds_no_cache() {
        assert!(ResultCache::new(CacheConfig::default(), 100.0).is_none());
        assert!(ResultCache::new(CacheConfig::enabled(8), 100.0).is_some());
    }

    #[test]
    fn bucket_span_matches_shard_bucketing() {
        // Same floor(t / width) rule as ShardedFovIndex::bucket_of.
        assert_eq!(bucket_range(100.0, 0.0, 99.0), 0..=0);
        assert_eq!(bucket_range(100.0, 50.0, 250.0), 0..=2);
        assert_eq!(bucket_range(100.0, -150.0, -1.0), -2..=-1);
        assert_eq!(bucket_span_len(100.0, 0.0, 99.0), 1);
        assert_eq!(bucket_span_len(100.0, 50.0, 250.0), 3);
    }

    #[test]
    fn wide_windows_are_ineligible() {
        let cache = ResultCache::new(CacheConfig::enabled(8), 1.0)
            .expect("nonzero capacity must build an enabled cache");
        let q = crate::query::Query::new(0.0, 10.0, swag_geo::LatLon::new(40.0, 116.32), 50.0);
        let narrow = QueryPlan::compile(&q, &crate::query::QueryOptions::default());
        assert!(cache.eligible(&narrow));
        let wide = QueryPlan::compile(
            &crate::query::Query::new(0.0, CACHE_MAX_BUCKET_SPAN as f64 + 1.0, q.center, 50.0),
            &crate::query::QueryOptions::default(),
        );
        assert!(!cache.eligible(&wide));
    }
}
