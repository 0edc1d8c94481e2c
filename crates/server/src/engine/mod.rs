//! The layered query engine behind [`crate::server::CloudServer`].
//!
//! The engine is split by responsibility:
//!
//! * [`plan`] — the **planner**: lowers `(Query, QueryOptions)` into a
//!   typed [`plan::QueryPlan`] (query boxes, filter chain, rank mode,
//!   top-k) and renders `explain()` listings;
//! * `ops` — the **operator pipeline**: executes plans against an
//!   epoch snapshot (index scan → cold scan → ranking),
//!   written once and generic over a stage `probe`, and drives the
//!   read entry points (`query`, `query_nearest`, `query_batch`,
//!   `query_analyzed`);
//! * [`write`] — the **write path**: folding each ingest into a new
//!   snapshot, retention, compaction, and retraction (which only retires
//!   records: it never edits the index);
//! * `epoch` — the immutable read-side state both halves exchange.
//!
//! The facade in `server.rs` owns construction, configuration, and the
//! public API surface; every method there is a thin delegation into
//! this module.

pub(crate) mod analyze;
pub mod cache;
pub(crate) mod epoch;
pub mod forensics;
mod ops;
pub mod plan;
mod probe;
mod write;

pub(crate) use ops::cold_zone_of;

#[cfg(test)]
mod cold_tests;

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use swag_core::CameraProfile;
use swag_exec::Executor;
use swag_obs::{labeled_name, Counter, Histogram, MonotonicClock, Registry};

use crate::query::{Query, QueryOptions};
use crate::server::ServerConfig;
use crate::shard::ShardedFovIndex;
use crate::store::SegmentStore;

use cache::ResultCache;
use epoch::{CacheStamp, Epoch};
use forensics::{CacheOutcome, QueryEventLog};
use plan::QueryPlan;
use probe::{OpMeasure, StageRecord};
use write::Writer;

/// Per-operator metric handles: one stage of the operator pipeline,
/// keyed by the same `OP_*` name EXPLAIN ANALYZE and `explain` listings
/// use, so a hot operator in `swag stats` can be cross-referenced
/// against a captured slow query's replayed report by name.
pub(crate) struct OpStageObs {
    /// Stage wall time per execution.
    pub(crate) micros: Arc<Histogram>,
    /// Rows the stage examined (index items tested, cold records read,
    /// candidates ranked).
    pub(crate) rows_in: Arc<Histogram>,
    /// Rows the stage produced.
    pub(crate) rows_out: Arc<Histogram>,
}

impl OpStageObs {
    fn from_registry(registry: &Registry, op: &str) -> Self {
        OpStageObs {
            micros: registry.histogram(&labeled_name("swag_server_op_micros", &[("op", op)])),
            rows_in: registry.histogram(&labeled_name("swag_server_op_rows_in", &[("op", op)])),
            rows_out: registry.histogram(&labeled_name("swag_server_op_rows_out", &[("op", op)])),
        }
    }

    fn record(&self, op: &OpMeasure) {
        self.micros.record(op.micros);
        self.rows_in.record(op.rows_in);
        self.rows_out.record(op.rows_out);
    }
}

/// Metric handles for an instrumented engine. Handles are resolved once
/// at attach time; recording never touches the registry again.
pub(crate) struct ServerObs {
    pub(crate) query_total: Arc<Histogram>,
    pub(crate) index_nodes: Arc<Histogram>,
    pub(crate) index_leaves: Arc<Histogram>,
    pub(crate) ingest: Arc<Histogram>,
    pub(crate) segments: Arc<Counter>,
    pub(crate) nearest_rounds: Arc<Counter>,
    pub(crate) publishes: Arc<Counter>,
    pub(crate) snapshot_age: Arc<Histogram>,
    pub(crate) rebuild_micros: Arc<Histogram>,
    pub(crate) retention_dropped: Arc<Counter>,
    pub(crate) op_index_scan: OpStageObs,
    pub(crate) op_cold_scan: OpStageObs,
    pub(crate) op_ranking: OpStageObs,
    /// Final-result split: hits served from the published snapshot's
    /// index vs. from on-disk cold runs.
    pub(crate) hits_index: Arc<Counter>,
    pub(crate) hits_cold: Arc<Counter>,
    /// Live time shards the index scan probed, per query.
    pub(crate) shards_probed: Arc<Histogram>,
    /// Result-cache traffic: repeats answered from the cache vs.
    /// recomputed (misses include lazily invalidated entries), plus
    /// capacity evictions.
    pub(crate) cache_hits: Arc<Counter>,
    pub(crate) cache_misses: Arc<Counter>,
    pub(crate) cache_evictions: Arc<Counter>,
    /// Wide-event query log traffic: events recorded into the rings vs.
    /// retained by the tail sampler.
    pub(crate) events_pushed: Arc<Counter>,
    pub(crate) events_kept: Arc<Counter>,
}

impl ServerObs {
    fn from_registry(registry: &Registry) -> Self {
        registry.set_help(
            "swag_server_op_micros",
            "Operator-pipeline stage wall time per query, microseconds.",
        );
        registry.set_help(
            "swag_server_op_rows_in",
            "Rows examined per stage execution.",
        );
        registry.set_help(
            "swag_server_op_rows_out",
            "Rows produced per stage execution.",
        );
        registry.set_help(
            "swag_server_hits_total",
            "Filtered hits by origin (src): published snapshot index or on-disk cold runs.",
        );
        registry.set_help(
            "swag_server_shards_probed",
            "Live time shards the index scan probed, per query.",
        );
        registry.set_help(
            "swag_server_cache_hits_total",
            "Queries answered from the plan-keyed result cache.",
        );
        registry.set_help(
            "swag_server_cache_misses_total",
            "Cacheable queries recomputed (cold, invalidated, or collided).",
        );
        registry.set_help(
            "swag_server_cache_evictions_total",
            "Result-cache entries evicted by capacity pressure.",
        );
        registry.set_help(
            "swag_server_events_total",
            "Wide query events recorded into the forensic rings (stage=pushed) and retained by the tail sampler (stage=kept).",
        );
        ServerObs {
            query_total: registry.histogram("swag_server_query_micros"),
            index_nodes: registry.histogram("swag_server_index_nodes_visited"),
            index_leaves: registry.histogram("swag_server_index_leaves_scanned"),
            ingest: registry.histogram("swag_server_ingest_micros"),
            segments: registry.counter("swag_server_segments_ingested_total"),
            nearest_rounds: registry.counter("swag_server_nearest_rounds_total"),
            publishes: registry.counter("swag_server_publishes_total"),
            snapshot_age: registry.histogram("swag_server_snapshot_age_micros"),
            rebuild_micros: registry.histogram("swag_server_snapshot_rebuild_micros"),
            retention_dropped: registry.counter("swag_server_retention_dropped_total"),
            op_index_scan: OpStageObs::from_registry(registry, plan::OP_INDEX_SCAN),
            op_cold_scan: OpStageObs::from_registry(registry, plan::OP_COLD_SCAN),
            op_ranking: OpStageObs::from_registry(registry, plan::OP_RANKING),
            hits_index: registry
                .counter(&labeled_name("swag_server_hits_total", &[("src", "index")])),
            hits_cold: registry
                .counter(&labeled_name("swag_server_hits_total", &[("src", "cold")])),
            shards_probed: registry.histogram("swag_server_shards_probed"),
            cache_hits: registry.counter("swag_server_cache_hits_total"),
            cache_misses: registry.counter("swag_server_cache_misses_total"),
            cache_evictions: registry.counter("swag_server_cache_evictions_total"),
            events_pushed: registry.counter(&labeled_name(
                "swag_server_events_total",
                &[("stage", "pushed")],
            )),
            events_kept: registry.counter(&labeled_name(
                "swag_server_events_total",
                &[("stage", "kept")],
            )),
        }
    }

    /// The metrics view of one measured execution. Per-operator
    /// telemetry is keyed by the same `OP_*` names EXPLAIN ANALYZE and
    /// `swag explain` use, and stays miss-only: on a cache hit no
    /// operator ran.
    pub(crate) fn record(&self, rec: &StageRecord) {
        self.query_total.record(rec.total_micros);
        match rec.cache {
            CacheOutcome::Hit => self.cache_hits.inc(),
            CacheOutcome::Miss => self.cache_misses.inc(),
            CacheOutcome::Off | CacheOutcome::Ineligible => {}
        }
        if rec.evicted {
            self.cache_evictions.inc();
        }
        let Some(shards) = rec.shards else {
            return;
        };
        self.index_nodes.record(rec.search.nodes_visited);
        self.index_leaves.record(rec.search.leaves_scanned);
        self.op_index_scan.record(&rec.index);
        if let Some(cold) = &rec.cold {
            self.op_cold_scan.record(&OpMeasure {
                micros: cold.micros,
                rows_in: cold.rows_in,
                rows_out: cold.hits,
            });
            self.hits_cold.add(cold.hits);
        }
        self.op_ranking.record(&rec.rank);
        self.hits_index.add(rec.hits_index);
        self.shards_probed.record(shards as u64);
    }
}

/// The layered engine: all server state, shared by the read pipeline
/// ([`ops`]) and the write path ([`write`]). The `CloudServer` facade
/// owns exactly one of these.
pub(crate) struct Engine {
    /// Readers clone the `Arc` under a momentary read lock; the lock is
    /// never held while scanning or ranking.
    pub(crate) epoch: RwLock<Arc<Epoch>>,
    pub(crate) writer: Mutex<Writer>,
    pub(crate) config: ServerConfig,
    pub(crate) cam: CameraProfile,
    pub(crate) clock: Arc<dyn MonotonicClock>,
    /// Thread budget for bootstrap-sized run packs and query batches.
    pub(crate) exec: Executor,
    pub(crate) obs: Option<ServerObs>,
    /// Plan-keyed result cache; `None` when disabled (capacity 0, the
    /// default) so the uncached hot path pays nothing.
    pub(crate) cache: Option<ResultCache>,
    /// Wide-event query log; `None` when disabled (the default), so the
    /// query path pays one branch and reads no clock for forensics.
    pub(crate) events: Option<Arc<QueryEventLog>>,
    /// Durable storage (segment WAL + incremental snapshots + cold
    /// tier); `None` for memory-only servers (the default) so the hot
    /// paths pay one branch each. Set by `CloudServer::open` after
    /// recovery replays through the normal ingest path.
    pub(crate) durability: Option<Arc<swag_store::Durability>>,
    pub(crate) batches: AtomicU64,
    pub(crate) queries: AtomicU64,
    pub(crate) query_micros: AtomicU64,
}

impl Engine {
    /// Builds an engine with the given tuning and clock.
    pub(crate) fn new(
        cam: CameraProfile,
        config: ServerConfig,
        clock: Arc<dyn MonotonicClock>,
    ) -> Self {
        let epoch = Arc::new(Epoch {
            store: SegmentStore::new(),
            index: ShardedFovIndex::new(config.shard_width_s, config.index),
            published_at_micros: clock.now_micros(),
            stamp: CacheStamp::default(),
        });
        let writer = Writer {
            epoch: epoch.clone(),
            max_t_end: f64::NEG_INFINITY,
        };
        Engine {
            epoch: RwLock::new(epoch),
            writer: Mutex::new(writer),
            config,
            cam,
            clock,
            exec: Executor::global().clone(),
            obs: None,
            cache: ResultCache::new(config.cache, config.shard_width_s),
            events: config
                .events
                .enabled
                .then(|| Arc::new(QueryEventLog::new(config.events))),
            durability: None,
            batches: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            query_micros: AtomicU64::new(0),
        }
    }

    /// Wires the ingest, query, and publish paths to `registry`.
    pub(crate) fn attach_observability(&mut self, registry: &Registry) {
        self.obs = Some(ServerObs::from_registry(registry));
        if let Some(durability) = &self.durability {
            durability.attach_observability(registry);
        }
    }

    /// Compiles the plan for a request and renders it against the
    /// current snapshot: boxes, shards probed, filter chain, rank mode,
    /// and the operator pipeline.
    pub(crate) fn explain(&self, query: &Query, opts: &QueryOptions) -> String {
        let plan = QueryPlan::compile(query, opts);
        let epoch = self.epoch.read().clone();
        self.explain_plan(&plan, &epoch, None)
    }

    /// Renders `plan` resolved against `epoch`, with the cold-tier line
    /// when cold runs exist. The cache line reports `executed` — what an
    /// execution concretely decided — or, for a plan that has not run,
    /// its eligibility.
    pub(crate) fn explain_plan(
        &self,
        plan: &QueryPlan,
        epoch: &Epoch,
        executed: Option<CacheOutcome>,
    ) -> String {
        let span = cache::bucket_span_len(
            self.config.shard_width_s,
            plan.query().t_start,
            plan.query().t_end,
        );
        let cap = cache::CACHE_MAX_BUCKET_SPAN;
        let cache = match executed {
            None if span <= cap => format!("eligible (spans {span} shard buckets)"),
            None | Some(CacheOutcome::Ineligible) => {
                format!("ineligible (spans {span} shard buckets > cap {cap})")
            }
            Some(CacheOutcome::Off) => "cache off".to_string(),
            Some(CacheOutcome::Miss) => "miss (executed and stored)".to_string(),
            Some(CacheOutcome::Hit) => "hit (served from cache)".to_string(),
        };
        let off = if executed.is_none() && self.cache.is_none() {
            ", cache off"
        } else {
            ""
        };
        plan.explain_against(
            &epoch.index,
            &format!("fingerprint {:#018x}, {cache}{off}", plan.fingerprint()),
            self.cold_line(plan).as_deref(),
        )
    }

    /// Whether queries can reach the cold tier: a durable server with at
    /// least one demoted run on disk. Memory-only servers (the default)
    /// answer `false` from one branch.
    pub(crate) fn has_cold(&self) -> bool {
        self.durability
            .as_ref()
            .is_some_and(|d| !d.cold().is_empty())
    }

    /// Renders the explain cold-tier line for `plan`: how many of the
    /// on-disk cold runs survive time and space pruning against their
    /// zone maps, how many of those are resident (the rest cost a file
    /// read), and any run that cannot be read, by name. `None` when the
    /// server has no cold runs (then explain output is byte-identical to
    /// a memory-only server's).
    pub(crate) fn cold_line(&self, plan: &QueryPlan) -> Option<String> {
        use std::fmt::Write as _;
        let cold = self.durability.as_ref()?.cold();
        let total = cold.runs();
        if total == 0 {
            return None;
        }
        let touched = cold.probe(|zone| plan.reaches_zone(zone));
        let mut line = format!(
            "{} of {total} cold runs overlap the window and area, {} resident ({})",
            touched.len(),
            cold.resident_among(&touched),
            plan::OP_COLD_SCAN
        );
        for run in cold.unreadable() {
            let file = run.path().file_name().unwrap_or(run.path().as_os_str());
            let _ = write!(line, "; unreadable {}", file.to_string_lossy());
            if let Some(e) = run.error() {
                let _ = write!(line, " ({e})");
            }
        }
        Some(line)
    }

    /// Computes point-in-time gauges into `registry`: epoch snapshot age,
    /// result-cache entries, and per-time-shard entry
    /// counts. These cannot be recorded from the hot path (age is a
    /// property of *now*, not of any event), so a reader calls this
    /// right before rendering the registry.
    pub(crate) fn refresh_gauges(&self, registry: &Registry) {
        registry.set_help(
            "swag_server_epoch_age_micros",
            "Age of the published snapshot at scrape time.",
        );
        registry.set_help(
            "swag_server_shard_entries",
            "Indexed entries per live time shard (0 after the shard expires).",
        );
        registry.set_help(
            "swag_server_cache_entries",
            "Live entries in the plan-keyed result cache.",
        );
        registry
            .gauge("swag_server_cache_entries")
            .set(self.cache.as_ref().map_or(0, |c| c.len()) as i64);
        let epoch = self.epoch.read().clone();
        let now = self.clock.now_micros();
        registry.gauge("swag_server_epoch_age_micros").set(
            now.saturating_sub(epoch.published_at_micros)
                .min(i64::MAX as u64) as i64,
        );
        // Zero every previously exported shard gauge first so expired
        // shards read 0 instead of their last live count forever.
        for name in registry.names() {
            if name.starts_with("swag_server_shard_entries{") {
                registry.gauge(&name).set(0);
            }
        }
        for (bucket, entries) in epoch.index.shard_sizes() {
            registry
                .gauge(&labeled_name(
                    "swag_server_shard_entries",
                    &[("shard", &bucket.to_string())],
                ))
                .set(entries as i64);
        }
        if let Some(durability) = &self.durability {
            registry.set_help(
                "swag_store_wal_lag_bytes",
                "WAL bytes written but not yet fsynced (durability lag).",
            );
            registry.set_help(
                "swag_store_snapshot_age_micros",
                "Age of the last completed incremental snapshot (-1 = never).",
            );
            registry.set_help("swag_store_cold_runs", "Demoted cold runs on disk.");
            registry.set_help(
                "swag_store_cold_records",
                "Records reachable through the cold tier.",
            );
            registry.set_help(
                "swag_store_cold_resident_bytes",
                "Decoded cold run bodies held in memory (bounded LRU).",
            );
            let stats = durability.stats();
            // The store counts these itself (runs can fail before any
            // registry exists); mirror the totals into counters.
            for (name, help, total) in [
                (
                    "swag_store_cold_runs_pruned_total",
                    "Cold runs skipped by zone map, before any I/O.",
                    stats.cold_runs_pruned,
                ),
                (
                    "swag_store_cold_runs_opened_total",
                    "Cold run bodies read and decoded by queries.",
                    stats.cold_runs_opened,
                ),
                (
                    "swag_store_cold_run_errors_total",
                    "Cold runs found unreadable (named by swag explain).",
                    stats.cold_run_errors,
                ),
                (
                    "swag_store_cold_demote_errors_total",
                    "Demotions that failed to reach disk (records lost to retention).",
                    stats.cold_demote_errors,
                ),
                (
                    "swag_store_wal_append_errors_total",
                    "WAL frames refused; the mutation they carried did not happen.",
                    stats.wal_append_errors,
                ),
                (
                    "swag_store_wal_records_total",
                    "Frames appended to the WAL.",
                    stats.wal_records,
                ),
                (
                    "swag_store_wal_bytes_total",
                    "Frame bytes appended to the WAL.",
                    stats.wal_appended_bytes,
                ),
                (
                    "swag_store_snapshots_total",
                    "Incremental snapshots completed by the background worker.",
                    stats.snapshots_written,
                ),
                (
                    "swag_store_snapshot_buckets_total",
                    "Time-shard bucket files rewritten by snapshots.",
                    stats.snapshot_buckets_written,
                ),
            ] {
                registry.set_help(name, help);
                let counter = registry.counter(name);
                counter.add(total.saturating_sub(counter.get()));
            }
            registry
                .gauge("swag_store_cold_resident_bytes")
                .set(stats.cold_resident_bytes.min(i64::MAX as u64) as i64);
            registry
                .gauge("swag_store_wal_lag_bytes")
                .set(stats.wal_lag_bytes.min(i64::MAX as u64) as i64);
            registry.gauge("swag_store_snapshot_age_micros").set(
                stats
                    .last_snapshot_age_micros
                    .map_or(-1, |age| age.min(i64::MAX as u64) as i64),
            );
            registry
                .gauge("swag_store_cold_runs")
                .set(stats.cold_runs as i64);
            registry
                .gauge("swag_store_cold_records")
                .set(stats.cold_segments.min(i64::MAX as u64) as i64);
        }
    }
}
