//! The operator pipeline: executes [`QueryPlan`]s against an epoch.
//!
//! One plan execution is the paper's retrieval path as a pipeline of
//! operators — **index scan** (sharded snapshot probe) → **cold scan**
//! (demoted runs) → **ranking** (drain the top-k) — run as one pass:
//! every tier offers its box matches to one bounded [`TopN`] collector,
//! which applies the plan's compiled
//! [`FilterChain`](super::plan::FilterChain) as they arrive. Each stage
//! is timed once, by the probe, into the [`StageRecord`] row named after
//! its `OP_*` constant. The pipeline is written once, in
//! [`Engine::execute`], generic over a [`StageProbe`]: the unobserved
//! server runs it with the zero-sized [`NoProbe`], every observed one
//! with [`Measure`], whose [`StageRecord`] metrics, wide events and
//! EXPLAIN ANALYZE are computed from afterwards. Every read entry point drives that one function:
//! `query` runs one plan, `query_nearest` loops over
//! radius-expanded plans, `query_batch` fans plans across the executor
//! against a single pinned epoch, and `query_analyzed` reports the
//! record.

use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use swag_core::RepFov;
use swag_geo::LatLon;
use swag_store::Zone;

use crate::index::fov_box;
use crate::query::{Query, QueryOptions, RankMode};
use crate::ranking::{SearchHit, Tier, TopN};
use crate::server::ServerStats;
use crate::store::{SegmentId, SegmentRecord, SegmentRef};

use super::cache;
use super::epoch::Epoch;
use super::forensics::CacheOutcome;
use super::plan::{PlanKey, QueryPlan};
use super::probe::{Measure, NoProbe, StageProbe, StageRecord};
use super::Engine;

/// The machine's available parallelism, resolved once per process.
fn hw_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Sentinel [`SegmentId`] carried by hits served from cold runs: cold
/// records left the live store when retention demoted them, so they have
/// no dense server id. External callers identify results by
/// [`SearchHit::source`] either way.
pub(crate) const COLD_HIT_ID: SegmentId = SegmentId(u32::MAX);

/// The zone map of a cold run: the union of [`fov_box`] over its
/// records, in `swag-store`'s flat form. Computed here — at demotion and
/// for runs whose header carries none — so the box [`Engine::cold_scan`]
/// prunes with is by construction the box it tests records with.
///
/// # Panics
/// Panics on an empty slice; no cold run is empty.
pub(crate) fn cold_zone_of(records: &[(RepFov, SegmentRef)]) -> Zone {
    let mbr = records
        .iter()
        .map(|(rep, _)| fov_box(rep))
        .reduce(|a, b| a.union(&b))
        .expect("a cold run holds at least one record");
    let (min, max) = (mbr.min, mbr.max);
    [min[0], min[1], min[2], max[0], max[1], max[2]]
}

impl Engine {
    /// The cold-run scan operator: asks the catalog which demoted runs
    /// the plan's boxes can touch — decided from zone maps, in time and
    /// space, before any I/O — and offers every record inside the boxes
    /// to `top` (carrying [`COLD_HIT_ID`]) in `(bucket, seq)` order,
    /// returning the records examined. A record whose provider retracted
    /// after its run was written is skipped. An unreadable run
    /// contributes nothing and is counted and named by the catalog. Only
    /// servers holding cold runs get here ([`Engine::has_cold`]).
    pub(crate) fn cold_scan(&self, plan: &QueryPlan, top: &mut TopN<'_>) -> u64 {
        let Some(durability) = &self.durability else {
            return 0;
        };
        let cold = durability.cold();
        let runs = cold.probe(|zone| plan.reaches_zone(zone));
        // Most queries prune every run; they never read the retractions.
        if runs.is_empty() {
            return 0;
        }
        let retracted = cold.retracted();
        let mut rows_in = 0u64;
        for run in runs {
            let Ok(records) = cold.records(&run) else {
                continue;
            };
            for (rep, source) in records.iter() {
                if plan.boxes().intersects(&fov_box(rep))
                    && !run.hides(&retracted, source.provider_id)
                {
                    top.offer(Tier::Cold, rows_in, COLD_HIT_ID, *rep, *source);
                }
                rows_in += 1;
            }
        }
        rows_in
    }

    /// The operators, once: index scan → cold scan → ranking against an
    /// already-acquired epoch, in one pass. Every
    /// tier offers its box matches straight to one [`TopN`] collector,
    /// which runs the filter chain and keeps the best `k`; the ranking
    /// stage only drains and materialises it. Scanning and ranking are
    /// lock-free: the epoch is immutable, and the caller's thread probes
    /// the shards one after another.
    fn run_operators<P: StageProbe>(
        &self,
        epoch: &Epoch,
        plan: &QueryPlan,
        probe: &mut P,
    ) -> Vec<SearchHit> {
        probe.begin();
        let mut top = TopN::new(plan, &self.cam, &epoch.store);
        let (shards, matched) = epoch.index.scan(
            plan.boxes(),
            plan.query().t_start,
            plan.query().t_end,
            probe.search_stats(),
            &mut top,
        );
        probe.index_scanned(shards, matched);
        if self.has_cold() {
            let rows_in = self.cold_scan(plan, &mut top);
            probe.cold_scanned(rows_in, top.survivors(Tier::Cold));
        }
        let hits_index = top.survivors(Tier::Index);
        let hits = top.finish();
        probe.ranked(hits_index, hits.len());
        hits
    }

    /// Executes one plan: resolves the plan-keyed result cache (a hit
    /// is returned after the entry proves itself current against
    /// `epoch`, see [`cache`]; a miss runs the operators and stores the
    /// result stamped with the epoch it was computed against), and
    /// completes the latency accounting started at `t0` — the caller
    /// read the clock once before acquiring the epoch, this reads it
    /// once more, and only the probe reads it in between. A cached
    /// answer is still a served query: counters and total latency both
    /// record it.
    fn execute<P: StageProbe>(
        &self,
        epoch: &Epoch,
        t0: u64,
        plan: &QueryPlan,
        probe: &mut P,
    ) -> Vec<SearchHit> {
        let mut cached = None;
        let mut store = None;
        if let Some(cache) = &self.cache {
            if cache.eligible(plan) {
                let key = PlanKey::of(plan);
                let fingerprint = key.fingerprint();
                match cache.lookup(fingerprint, &key, plan, epoch) {
                    cache::Lookup::Hit(hits) => {
                        probe.cache(CacheOutcome::Hit, Some(fingerprint));
                        cached = Some(hits);
                    }
                    cache::Lookup::Miss => {
                        probe.cache(CacheOutcome::Miss, Some(fingerprint));
                        store = Some((cache, fingerprint, key));
                    }
                }
            } else {
                probe.cache(CacheOutcome::Ineligible, None);
            }
        }
        let hits = match cached {
            Some(hits) => hits,
            None => self.run_operators(epoch, plan, probe),
        };
        let seq = self.queries.fetch_add(1, Ordering::Relaxed) + 1;
        let t_done = self.clock.now_micros();
        self.query_micros.fetch_add(t_done - t0, Ordering::Relaxed);
        probe.done(t0, t_done, seq);
        if let Some((cache, fingerprint, key)) = store {
            if let cache::Insert::Stored { evicted: true } =
                cache.insert(fingerprint, key, plan, epoch, &hits)
            {
                probe.evicted();
            }
        }
        hits
    }

    /// Whether the wide-event log is recording.
    pub(crate) fn events_on(&self) -> bool {
        self.events.as_ref().is_some_and(|e| e.is_enabled())
    }

    /// [`Self::execute`] under the sink this server is configured for:
    /// [`NoProbe`] when nothing observes queries, otherwise
    /// [`Self::execute_measured`] plus one wide event when the log is on.
    pub(crate) fn execute_plan(&self, epoch: &Epoch, t0: u64, plan: &QueryPlan) -> Vec<SearchHit> {
        let events_on = self.events_on();
        if self.obs.is_none() && !events_on {
            return self.execute(epoch, t0, plan, &mut NoProbe);
        }
        let (hits, rec) = self.execute_measured(epoch, t0, plan);
        if events_on {
            self.emit_event(&rec.event(plan, epoch, &hits));
        }
        hits
    }

    /// [`Self::execute`] under the measuring probe; records the metrics
    /// view of the stage record when a registry is attached. Kept out of
    /// line so the unobserved path never carries this body.
    #[inline(never)]
    pub(crate) fn execute_measured(
        &self,
        epoch: &Epoch,
        t0: u64,
        plan: &QueryPlan,
    ) -> (Vec<SearchHit>, StageRecord) {
        let mut probe = Measure::new(&*self.clock);
        let hits = self.execute(epoch, t0, plan, &mut probe);
        let rec = probe.rec;
        if let Some(obs) = &self.obs {
            obs.record(&rec);
        }
        (hits, rec)
    }

    /// One-plan entry point: compiles the request, clones the epoch
    /// `Arc` in a momentary read-side critical section, and executes.
    pub(crate) fn query(&self, query: &Query, opts: &QueryOptions) -> Vec<SearchHit> {
        let t0 = self.clock.now_micros();
        let epoch = self.epoch.read().clone();
        let plan = QueryPlan::compile(query, opts);
        self.execute_plan(&epoch, t0, &plan)
    }

    /// k-nearest entry point: a radius-expansion loop over successive
    /// plans. Each ring compiles a fresh plan (same filters/rank, wider
    /// boxes, `k = all`) and executes it against a freshly acquired
    /// epoch; the loop stops once the `k`-th hit is settled — inside the
    /// ring's disc under Distance, past the camera's view radius under
    /// Quality — or the budget is covered.
    pub(crate) fn query_nearest(
        &self,
        t_start: f64,
        t_end: f64,
        center: LatLon,
        k: usize,
        opts: &QueryOptions,
        max_radius_m: f64,
    ) -> Vec<SearchHit> {
        if k == 0 {
            return Vec::new();
        }
        let mut radius = 50.0_f64.min(max_radius_m);
        loop {
            if let Some(obs) = &self.obs {
                obs.nearest_rounds.inc();
            }
            let t0 = self.clock.now_micros();
            let epoch = self.epoch.read().clone();
            let q = Query::new(t_start, t_end, center, radius);
            let mut plan = QueryPlan::compile(&q, opts);
            plan.k = usize::MAX;
            let mut hits = self.execute_plan(&epoch, t0, &plan);
            // Under Distance, a ring's boxes are the disc's bounding
            // square: a hit in a corner lies up to √2·r away while a
            // nearer segment just past the square's edge is unexplored, so
            // only a k-th hit inside the disc is final. Under Quality,
            // unexplored segments within the view radius may still
            // outrank found ones.
            let settled = match opts.rank {
                RankMode::Distance => hits.get(k - 1).is_some_and(|h| h.distance_m <= radius),
                RankMode::Quality => hits.len() >= k && radius >= self.cam.view_radius_m,
            };
            if settled || radius >= max_radius_m {
                hits.truncate(k);
                return hits;
            }
            radius = (radius * 2.0).min(max_radius_m);
        }
    }

    /// Batch entry point: compiles one plan per query and fans them
    /// across the executor against **one** pinned epoch, so a publish
    /// landing mid-batch cannot make later queries see different data
    /// than earlier ones. Result order matches input order and is
    /// byte-identical in serial and parallel mode.
    pub(crate) fn query_batch(
        &self,
        queries: &[Query],
        opts: &QueryOptions,
        threads: usize,
    ) -> Vec<Vec<SearchHit>> {
        let epoch = self.epoch.read().clone();
        let one = |q: &Query| {
            let t0 = self.clock.now_micros();
            let plan = QueryPlan::compile(q, opts);
            self.execute_plan(&epoch, t0, &plan)
        };
        // Clamp to the host: a batch "parallelism" request beyond the
        // machine's cores would only add scheduling churn.
        let threads = threads.min(hw_threads());
        if threads <= 1 || self.exec.is_serial() {
            return queries.iter().map(one).collect();
        }
        self.exec.par_map(queries, one)
    }

    /// Exports every live stored record.
    pub(crate) fn export_records(&self) -> Vec<SegmentRecord> {
        let epoch = self.epoch.read().clone();
        epoch.store.iter().copied().collect()
    }

    /// Current statistics snapshot.
    pub(crate) fn stats(&self) -> ServerStats {
        let epoch = self.epoch.read().clone();
        ServerStats {
            segments: epoch.store.len(),
            store_slots: epoch.store.total(),
            shards: epoch.index.shard_count(),
            batches: self.batches.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            query_micros_total: self.query_micros.load(Ordering::Relaxed),
            query_micros: self
                .obs
                .as_ref()
                .map_or_else(swag_obs::HistogramSnapshot::empty, |o| {
                    o.query_total.snapshot()
                }),
        }
    }
}
