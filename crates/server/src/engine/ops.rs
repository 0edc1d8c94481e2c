//! The operator pipeline: executes [`QueryPlan`]s against an epoch.
//!
//! One plan execution is the paper's retrieval path as a pipeline of
//! operators — **index scan** (sharded snapshot probe) → **delta scan**
//! (linear walk of pending records) → **filter** (the plan's compiled
//! [`FilterChain`](super::plan::FilterChain)) → **rank** → **top-k** —
//! each timed by a flight-recorder span named after the `OP_*` constant
//! it executes. All four read entry points are thin drivers over
//! [`Engine::execute_plan`]: `query` runs one plan, `query_nearest`
//! loops over radius-expanded plans, `query_batch` fans plans across
//! the executor against a single pinned epoch, and subscriptions reuse
//! the plan's filter stage at ingest time.

use std::sync::atomic::Ordering;

use swag_core::RepFov;
use swag_exec::Executor;
use swag_geo::LatLon;
use swag_rtree::SearchStats;
use swag_store::Zone;

use crate::index::fov_box;
use crate::query::{Query, QueryOptions, RankMode};
use crate::ranking::{collect_hits, hit_for, rank_hits, SearchHit};
use crate::server::{ServerStats, AUTO_THRESHOLD_INTERVAL};
use crate::store::{SegmentId, SegmentRecord, SegmentRef};

use super::admission::ShedReason;
use super::cache;
use super::epoch::{DeltaRecord, Epoch};
use super::fanout::{self, FanoutDecision};
use super::plan::{
    PlanKey, QueryPlan, OP_COLD_SCAN, OP_DELTA_SCAN, OP_INDEX_SCAN, OP_QUERY, OP_QUERY_NEAREST,
    OP_RANKING,
};
use super::Engine;

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
    /// space, before any I/O — and walks the survivors in `(bucket,
    /// seq)` order with the same box test and filter chain the delta
    /// scan uses. Returns the filtered hits (carrying [`COLD_HIT_ID`])
    /// plus the records examined. A run that fails to read contributes
    /// nothing and is counted and named by the catalog. Callers gate on
    /// [`Engine::has_cold`], so memory-only servers never reach this.
    pub(crate) fn cold_scan(&self, plan: &QueryPlan) -> (Vec<SearchHit>, u64) {
        let mut hits = Vec::new();
        let mut rows_in = 0u64;
        if let Some(durability) = &self.durability {
            let cold = durability.cold();
            for run in cold.probe(|zone| plan.reaches_zone(zone)) {
                let Ok(records) = cold.records(&run) else {
                    continue;
                };
                rows_in += records.len() as u64;
                for (rep, source) in records.iter() {
                    if plan.boxes.intersects(&fov_box(rep))
                        && plan.filters.accepts(rep, &self.cam, &plan.query)
                    {
                        let rec = SegmentRecord {
                            id: COLD_HIT_ID,
                            rep: *rep,
                            source: *source,
                        };
                        hits.push(hit_for(&rec, &self.cam, &plan.query));
                    }
                }
            }
        }
        (hits, rows_in)
    }

    /// Executes one plan against an already-acquired epoch, completing
    /// the latency accounting started at `t0` (the caller reads the
    /// clock once before acquiring the epoch; this method reads it once
    /// more uninstrumented, three more times instrumented). Scanning and
    /// ranking are lock-free: the epoch is immutable, and the shard
    /// fan-out runs on the engine's executor.
    pub(crate) fn execute_plan(&self, epoch: &Epoch, t0: u64, plan: &QueryPlan) -> Vec<SearchHit> {
        // Root of this query's span tree, armed for slow-query capture:
        // if its wall time (on the recorder's clock) crosses the slow
        // threshold, the whole tree is pinned into the retained log.
        // Child spans below — shard probes included, even when stolen by
        // other workers — parent to this context.
        let mut root = self.recorder.guarded_span(OP_QUERY);
        // Price the index scan before running it: narrow probes skip the
        // pool entirely (serial beats per-job overhead below the work
        // threshold), and the worker count is clamped to the host's
        // available parallelism. Both paths produce byte-identical
        // results, so this changes latency, never answers.
        let decision = FanoutDecision::decide(
            &epoch.core.index,
            plan.query.t_start,
            plan.query.t_end,
            &self.exec,
            self.config.fanout,
        );
        let serial = Executor::serial();
        let probe_exec = if decision.parallel {
            &self.exec
        } else {
            &serial
        };
        let hits = match &self.obs {
            None => {
                let candidates = {
                    let _span = self.recorder.span(OP_INDEX_SCAN);
                    epoch.core.index.candidates_in_exec(
                        probe_exec,
                        &plan.boxes,
                        plan.query.t_start,
                        plan.query.t_end,
                    )
                };
                let mut hits = collect_hits(&candidates, &epoch.core.store, &self.cam, plan);
                if epoch.delta_len > 0 {
                    let _span = self.recorder.span(OP_DELTA_SCAN);
                    for d in epoch.delta_records() {
                        if plan.boxes.intersects(&d.bbox)
                            && plan.filters.accepts(&d.rec.rep, &self.cam, &plan.query)
                        {
                            hits.push(hit_for(&d.rec, &self.cam, &plan.query));
                        }
                    }
                }
                if self.has_cold() {
                    let _span = self.recorder.span(OP_COLD_SCAN);
                    let (cold_hits, _) = self.cold_scan(plan);
                    hits.extend(cold_hits);
                }
                {
                    let _span = self.recorder.span(OP_RANKING);
                    rank_hits(&mut hits, plan.rank, plan.k);
                }
                self.queries.fetch_add(1, Ordering::Relaxed);
                self.query_micros
                    .fetch_add(self.clock.now_micros() - t0, Ordering::Relaxed);
                hits
            }
            Some(obs) => {
                let t_locked = self.clock.now_micros();
                let mut search = SearchStats::default();
                let candidates = {
                    let _span = self.recorder.span(OP_INDEX_SCAN);
                    epoch.core.index.candidates_with_stats_in_exec(
                        probe_exec,
                        &plan.boxes,
                        plan.query.t_start,
                        plan.query.t_end,
                        &mut search,
                    )
                };
                let index_rows_in = search.items_tested;
                let t_index = self.clock.now_micros();
                let delta_matches: Vec<&DeltaRecord> = if epoch.delta_len > 0 {
                    let _span = self.recorder.span(OP_DELTA_SCAN);
                    let matches: Vec<&DeltaRecord> = epoch
                        .delta_records()
                        .filter(|d| plan.boxes.intersects(&d.bbox))
                        .collect();
                    // The delta scan is one flat "leaf" over pending records.
                    search.nodes_visited += 1;
                    search.leaves_scanned += 1;
                    search.items_tested += epoch.delta_len as u64;
                    search.items_matched += matches.len() as u64;
                    matches
                } else {
                    Vec::new()
                };
                let n_candidates = candidates.len() + delta_matches.len();
                let n_delta_matches = delta_matches.len();
                let t_scanned = self.clock.now_micros();
                // Cold tier: same operator order as the uninstrumented
                // arm. `t_cold` collapses onto `t_scanned` when no cold
                // runs exist, so memory-only metrics are unchanged.
                let (cold_hits, cold_rows_in, t_cold) = if self.has_cold() {
                    let (hits, rows_in) = {
                        let _span = self.recorder.span(OP_COLD_SCAN);
                        self.cold_scan(plan)
                    };
                    (hits, rows_in, self.clock.now_micros())
                } else {
                    (Vec::new(), 0, t_scanned)
                };
                let n_cold_hits = cold_hits.len();
                let (hits, n_index_hits, n_delta_hits) = {
                    let _span = self.recorder.span(OP_RANKING);
                    let mut hits = collect_hits(&candidates, &epoch.core.store, &self.cam, plan);
                    let n_index_hits = hits.len();
                    hits.extend(
                        delta_matches
                            .into_iter()
                            .filter(|d| plan.filters.accepts(&d.rec.rep, &self.cam, &plan.query))
                            .map(|d| hit_for(&d.rec, &self.cam, &plan.query)),
                    );
                    let n_delta_hits = hits.len() - n_index_hits;
                    hits.extend(cold_hits);
                    rank_hits(&mut hits, plan.rank, plan.k);
                    (hits, n_index_hits, n_delta_hits)
                };
                let t_done = self.clock.now_micros();

                let n_queries = self.queries.fetch_add(1, Ordering::Relaxed) + 1;
                self.query_micros.fetch_add(t_done - t0, Ordering::Relaxed);
                obs.lock_wait.record(t_locked - t0);
                obs.index_scan.record(t_scanned - t_locked);
                obs.ranking.record(t_done - t_cold);
                obs.query_total.record(t_done - t0);
                obs.candidates.record(n_candidates as u64);
                obs.index_nodes.record(search.nodes_visited);
                obs.index_leaves.record(search.leaves_scanned);
                // Per-operator telemetry, keyed by the same OP_* names the
                // trace spans and `swag explain` use.
                obs.op_index_scan.micros.record(t_index - t_locked);
                obs.op_index_scan.rows_in.record(index_rows_in);
                obs.op_index_scan.rows_out.record(candidates.len() as u64);
                obs.op_delta_scan.micros.record(t_scanned - t_index);
                obs.op_delta_scan.rows_in.record(epoch.delta_len as u64);
                obs.op_delta_scan.rows_out.record(n_delta_matches as u64);
                if t_cold > t_scanned || cold_rows_in > 0 {
                    obs.op_cold_scan.micros.record(t_cold - t_scanned);
                    obs.op_cold_scan.rows_in.record(cold_rows_in);
                    obs.op_cold_scan.rows_out.record(n_cold_hits as u64);
                }
                obs.op_ranking.micros.record(t_done - t_cold);
                obs.op_ranking.rows_in.record(n_candidates as u64);
                obs.op_ranking.rows_out.record(hits.len() as u64);
                obs.hits_index.add(n_index_hits as u64);
                obs.hits_delta.add(n_delta_hits as u64);
                obs.hits_cold.add(n_cold_hits as u64);
                obs.shards_probed.record(decision.shards as u64);
                if decision.parallel {
                    obs.fanout_parallel.inc();
                } else {
                    obs.fanout_serial.inc();
                }
                if obs.trace.try_sample() {
                    obs.trace.record(OP_QUERY, t_done - t0, n_candidates as u64);
                }
                // Auto-derive the slow-query threshold from the live p99
                // unless the config pinned a fixed value.
                if self.config.slow_query_micros.is_none()
                    && self.recorder.is_enabled()
                    && n_queries.is_multiple_of(AUTO_THRESHOLD_INTERVAL)
                {
                    let p99 = obs.query_total.snapshot().p99();
                    if p99 > 0 {
                        self.recorder.set_slow_threshold_micros(p99);
                    }
                }
                hits
            }
        };
        root.set_detail(hits.len() as u64);
        hits
    }

    /// [`Self::execute_plan`] behind the plan-keyed result cache. On a
    /// hit the stored result is returned after the entry proves itself
    /// current against `epoch` (see [`cache`]); on a miss the plan
    /// executes normally and the result is stored, stamped with the
    /// epoch it was computed against. With the cache disabled (the
    /// default) this is a plain `execute_plan` call — kept
    /// `inline(always)` with the cache machinery split into
    /// [`Self::execute_plan_via_cache`] so the uncached hot path pays
    /// exactly one load-and-branch and stays byte-and-metric-identical
    /// to the pre-cache engine (the `obs_overhead` guard times this
    /// path against an uninstrumented replica carrying the same
    /// branch).
    #[inline(always)]
    pub(crate) fn execute_plan_cached(
        &self,
        epoch: &Epoch,
        t0: u64,
        plan: &QueryPlan,
    ) -> Vec<SearchHit> {
        match &self.cache {
            None => self.execute_plan(epoch, t0, plan),
            Some(cache) => self.execute_plan_via_cache(cache, epoch, t0, plan),
        }
    }

    /// The cache-enabled arm of [`Self::execute_plan_cached`] —
    /// `inline(never)` so its body (key derivation, striped lookup,
    /// insert) never bloats the cache-off callsites.
    #[inline(never)]
    fn execute_plan_via_cache(
        &self,
        cache: &cache::ResultCache,
        epoch: &Epoch,
        t0: u64,
        plan: &QueryPlan,
    ) -> Vec<SearchHit> {
        if !cache.eligible(plan) {
            return self.execute_plan(epoch, t0, plan);
        }
        let key = PlanKey::of(plan);
        let fingerprint = key.fingerprint();
        match cache.lookup(fingerprint, &key, plan, epoch) {
            cache::Lookup::Hit(hits) => {
                // A cached answer is still a served query: the root span,
                // the query counters, and the total-latency histogram all
                // record it (per-operator telemetry stays miss-only — no
                // operators ran).
                let mut root = self.recorder.guarded_span(OP_QUERY);
                root.set_detail(hits.len() as u64);
                self.queries.fetch_add(1, Ordering::Relaxed);
                let dt = self.clock.now_micros() - t0;
                self.query_micros.fetch_add(dt, Ordering::Relaxed);
                if let Some(obs) = &self.obs {
                    obs.query_total.record(dt);
                    obs.cache_hits.inc();
                }
                hits
            }
            cache::Lookup::Miss => {
                if let Some(obs) = &self.obs {
                    obs.cache_misses.inc();
                }
                let hits = self.execute_plan(epoch, t0, plan);
                if let cache::Insert::Stored { evicted: true } =
                    cache.insert(fingerprint, key, plan, epoch, &hits)
                {
                    if let Some(obs) = &self.obs {
                        obs.cache_evictions.inc();
                    }
                }
                hits
            }
        }
    }

    /// One-plan entry point: compiles the request, clones the epoch
    /// `Arc` in a momentary read-side critical section, and executes
    /// (through the result cache when enabled).
    pub(crate) fn query(&self, query: &Query, opts: &QueryOptions) -> Vec<SearchHit> {
        // With the wide-event log enabled, queries route through the
        // instrumented executor so each one emits a forensic event. The
        // events-off path (the default) pays exactly this one
        // load-and-branch — no clock reads, mirrored by the obs_overhead
        // baseline replica.
        if self.events.as_ref().is_some_and(|e| e.is_enabled()) {
            return self.query_evented(query, opts, None);
        }
        let t0 = self.clock.now_micros();
        let epoch = self.epoch.read().clone();
        let plan = QueryPlan::compile(query, opts);
        self.execute_plan_cached(&epoch, t0, &plan)
    }

    /// [`Self::query`] behind admission control: sheds instead of
    /// serving when `client_id` is over its token-bucket budget or the
    /// server's in-flight cap is reached. With admission disabled every
    /// request is admitted.
    pub(crate) fn query_admitted(
        &self,
        client_id: u64,
        query: &Query,
        opts: &QueryOptions,
    ) -> Result<Vec<SearchHit>, ShedReason> {
        let Some(admission) = &self.admission else {
            return Ok(self.query(query, opts));
        };
        match admission.admit(client_id) {
            Ok(_permit) => {
                if let Some(obs) = &self.obs {
                    obs.admitted.inc();
                }
                if self.events.as_ref().is_some_and(|e| e.is_enabled()) {
                    // The permit stays held across execution; the event
                    // records the post-decision token balance.
                    let tokens = admission.tokens_remaining(client_id);
                    return Ok(self.query_evented(query, opts, Some(tokens)));
                }
                Ok(self.query(query, opts))
            }
            Err(reason) => {
                if let Some(obs) = &self.obs {
                    match reason {
                        ShedReason::RateLimited => obs.shed_rate_limited.inc(),
                        ShedReason::Overloaded => obs.shed_overloaded.inc(),
                    }
                }
                if self.events.as_ref().is_some_and(|e| e.is_enabled()) {
                    self.emit_shed_event(client_id, query, opts, reason);
                }
                Err(reason)
            }
        }
    }

    /// k-nearest entry point: a radius-expansion loop over successive
    /// plans. Each ring compiles a fresh plan (same filters/rank, wider
    /// boxes, `k = all`) and executes it against a freshly acquired
    /// epoch; the loop stops once `k` hits are found past the settle
    /// radius or the budget is covered.
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
        // Each expansion round's query span becomes a child of this one.
        let _span = self.recorder.span(OP_QUERY_NEAREST);
        // Below this radius, unexplored segments may still outrank found
        // ones, so k hits are not enough to stop.
        let settle_radius_m = match opts.rank {
            RankMode::Distance => 0.0,
            RankMode::Quality => self.cam.view_radius_m.min(max_radius_m),
        };
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
            let hits = self.execute_plan_cached(&epoch, t0, &plan);
            if (hits.len() >= k && radius >= settle_radius_m) || radius >= max_radius_m {
                let mut hits = hits;
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
            self.execute_plan_cached(&epoch, t0, &plan)
        };
        // Clamp to the host: a batch "parallelism" request beyond the
        // machine's cores would only add scheduling churn.
        let threads = threads.min(fanout::hw_threads());
        if threads <= 1 || self.exec.is_serial() {
            return queries.iter().map(one).collect();
        }
        self.exec.par_map(queries, one)
    }

    /// Exports every stored record, pending delta included.
    pub(crate) fn export_records(&self) -> Vec<SegmentRecord> {
        let epoch = self.epoch.read().clone();
        let mut out: Vec<SegmentRecord> = epoch.core.store.iter().copied().collect();
        out.extend(epoch.delta_records().map(|d| d.rec));
        out
    }

    /// Current statistics snapshot.
    pub(crate) fn stats(&self) -> ServerStats {
        let (lock_wait, index_scan, ranking, query) = match &self.obs {
            Some(o) => (
                o.lock_wait.snapshot(),
                o.index_scan.snapshot(),
                o.ranking.snapshot(),
                o.query_total.snapshot(),
            ),
            None => (
                swag_obs::HistogramSnapshot::empty(),
                swag_obs::HistogramSnapshot::empty(),
                swag_obs::HistogramSnapshot::empty(),
                swag_obs::HistogramSnapshot::empty(),
            ),
        };
        let epoch = self.epoch.read().clone();
        ServerStats {
            segments: epoch.core.store.len() + epoch.delta_len,
            store_slots: epoch.core.store.total() + epoch.delta_len,
            shards: epoch.core.index.shard_count(),
            pending_delta: epoch.delta_len,
            batches: self.batches.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            query_micros_total: self.query_micros.load(Ordering::Relaxed),
            lock_wait_micros: lock_wait,
            index_scan_micros: index_scan,
            ranking_micros: ranking,
            query_micros: query,
        }
    }
}
