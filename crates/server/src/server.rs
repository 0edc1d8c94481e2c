//! The concurrent cloud server: construction, configuration, and the
//! public facade over the layered [`crate::engine`].
//!
//! Queries never hold a lock while they work: the engine publishes an
//! immutable **epoch** — an `Arc` to a `(store, index)` snapshot — and a
//! query clones that `Arc` in a tiny read-side critical section, then
//! scans and ranks entirely lock-free. Every write folds its records into
//! a new snapshot under a short write lock (so reads are read-your-writes
//! fresh), appending one packed run of the batch to each time shard it
//! touched; store chunks, shard groups and runs it does not touch are
//! shared with the previous snapshot, not copied. Retention
//! ([`ServerConfig::retention_horizon_s`]) expires old shards at publish
//! time and retires the dropped segments from the store, which compacts
//! once enough of it is tombstones.
//!
//! The read path is plan-driven: every entry point lowers its request
//! through the planner ([`crate::engine::plan::QueryPlan`]) and executes
//! the resulting plan on the operator pipeline, so `query`,
//! `query_nearest`, `query_batch` and `query_analyzed` share one filter
//! and one ranking definition. [`CloudServer::explain`] renders the plan
//! a request would run.
//!
//! Observability is opt-in: [`CloudServer::attach_observability`] wires
//! the query path to `swag-obs` histograms (total latency, per-operator
//! time and rows, shards probed, R-tree traversal work) and the
//! publish path to snapshot age / rebuild cost metrics.
//! Without it the query path runs the same pipeline under a probe that
//! records nothing and reads no clock. Time comes from an injectable
//! [`MonotonicClock`] so latency accounting is exactly testable.

use std::sync::Arc;

use swag_core::{CameraProfile, RepFov, UploadBatch};
use swag_exec::Executor;
use swag_obs::{HistogramSnapshot, MonotonicClock, Registry, WallClock};

use crate::engine::cache::CacheConfig;
use crate::engine::forensics::{AnalyzedQuery, EventLogConfig, QueryEventLog};
use crate::engine::Engine;
use crate::index::IndexKind;
use crate::query::{Query, QueryOptions};
use crate::ranking::SearchHit;
use crate::store::{SegmentId, SegmentRecord, SegmentRef};

/// Tuning knobs for the snapshot-publishing server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Index backend used inside each time shard.
    pub index: IndexKind,
    /// Width of each time shard, seconds.
    pub shard_width_s: f64,
    /// Retention horizon: at every snapshot publish, shards older than
    /// `latest t_end − horizon` are expired and fully-expired segments
    /// retired from the store. `None` keeps everything forever.
    pub retention_horizon_s: Option<f64>,
    /// Plan-keyed result cache (disabled by default, `capacity: 0`):
    /// repeated queries are answered from cache until a publish touches
    /// one of the time shards their window spans. Results are
    /// byte-identical to the uncached path — the epoch stamp proves
    /// every served entry current (see `DESIGN.md` §13).
    pub cache: CacheConfig,
    /// Wide-event query log with tail sampling (disabled by default):
    /// every query records one forensic [`crate::QueryEvent`];
    /// over-threshold-slow queries are always retained, ordinary traffic
    /// probabilistically. Applies to every read entry point, one event
    /// per executed plan.
    pub events: EventLogConfig,
    /// Durable-storage tuning, read only by a server opened on a data
    /// directory through [`CloudServer::open`] (segment WAL on the ingest
    /// path, incremental snapshots at publish time, cold-tier demotion of
    /// aged-out shards); every other server is memory-only. The data
    /// directory is the argument to `open`, not part of this config. See
    /// `DESIGN.md` §15.
    pub durability: swag_store::DurabilityConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            index: IndexKind::RTree,
            shard_width_s: 600.0,
            retention_horizon_s: None,
            cache: CacheConfig::default(),
            events: EventLogConfig::default(),
            durability: swag_store::DurabilityConfig::default(),
        }
    }
}

/// Aggregated server statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Live stored segments.
    pub segments: usize,
    /// Store slots allocated, tombstones included (shrinks on compaction).
    pub store_slots: usize,
    /// Live time shards in the published snapshot.
    pub shards: usize,
    /// Upload batches ingested.
    pub batches: u64,
    /// Queries answered.
    pub queries: u64,
    /// Total time spent answering queries, microseconds.
    pub query_micros_total: u64,
    /// End-to-end query latency distribution (empty unless
    /// observability is attached; the per-operator split is
    /// `swag_server_op_micros{op=…}` in the registry).
    pub query_micros: HistogramSnapshot,
}

impl ServerStats {
    /// Mean query latency in microseconds (0 when no queries ran).
    pub fn mean_query_micros(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.query_micros_total as f64 / self.queries as f64
        }
    }
}

/// The crowd-sourced retrieval server (paper §II).
///
/// ```
/// use swag_core::{CameraProfile, Fov, RepFov};
/// use swag_geo::LatLon;
/// use swag_server::{CloudServer, Query, QueryOptions, SegmentRef};
///
/// let server = CloudServer::new(CameraProfile::smartphone());
/// let scene = LatLon::new(40.0, 116.32);
/// // One segment filmed 20 m south of the scene, looking north at it.
/// server.ingest_one(
///     RepFov::new(10.0, 18.0, Fov::new(scene.offset(180.0, 20.0), 0.0)),
///     SegmentRef { provider_id: 7, video_id: 0, segment_idx: 0 },
/// );
/// let hits = server.query(
///     &Query::new(0.0, 60.0, scene, 50.0),
///     &QueryOptions::default(),
/// );
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].source.provider_id, 7);
/// ```
pub struct CloudServer {
    engine: Engine,
}

impl std::fmt::Debug for CloudServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("CloudServer")
            .field("segments", &stats.segments)
            .field("batches", &stats.batches)
            .field("queries", &stats.queries)
            .field("camera", &self.engine.cam)
            .finish_non_exhaustive()
    }
}

impl CloudServer {
    /// Creates a server using an R-tree index and the given camera profile
    /// for ranking geometry.
    pub fn new(cam: CameraProfile) -> Self {
        Self::with_config(cam, ServerConfig::default())
    }

    /// Creates a server with a chosen index backend.
    pub fn with_index(cam: CameraProfile, kind: IndexKind) -> Self {
        Self::with_config(
            cam,
            ServerConfig {
                index: kind,
                ..ServerConfig::default()
            },
        )
    }

    /// Creates a server with explicit snapshot/retention tuning.
    pub fn with_config(cam: CameraProfile, config: ServerConfig) -> Self {
        Self::with_config_and_clock(cam, config, Arc::new(WallClock))
    }

    /// Creates a server reading time from an injected clock. Tests pass a
    /// deterministic clock and assert exact latency accounting.
    pub fn with_clock(cam: CameraProfile, kind: IndexKind, clock: Arc<dyn MonotonicClock>) -> Self {
        Self::with_config_and_clock(
            cam,
            ServerConfig {
                index: kind,
                ..ServerConfig::default()
            },
            clock,
        )
    }

    /// [`Self::with_config`] with an injected clock.
    pub fn with_config_and_clock(
        cam: CameraProfile,
        config: ServerConfig,
        clock: Arc<dyn MonotonicClock>,
    ) -> Self {
        CloudServer {
            engine: Engine::new(cam, config, clock),
        }
    }

    /// Opens a durable server on a data directory (created if empty),
    /// recovering whatever state is on disk: the latest incremental
    /// snapshot is bulk-loaded, then durable WAL ops past the snapshot's
    /// floor are replayed through the normal ingest path, so a recovered
    /// server is bit-for-bit the server that crashed (minus any
    /// un-fsynced WAL tail, which recovery truncates). The returned
    /// server appends every subsequent ingest/retract/expire to the WAL,
    /// snapshots incrementally at publish time, and demotes aged-out
    /// shards to cold runs instead of dropping them.
    ///
    /// This is the one way server state persists: passing a data
    /// directory *is* the opt-in. For a memory-only server use
    /// [`Self::new`] / [`Self::with_config`].
    pub fn open(
        dir: impl AsRef<std::path::Path>,
        cam: CameraProfile,
        config: ServerConfig,
    ) -> Result<Self, swag_store::StoreError> {
        Self::open_with_clock(dir, cam, config, Arc::new(WallClock))
    }

    /// [`Self::open`] with an injected clock (drives WAL group-commit
    /// windows and snapshot-age accounting).
    pub fn open_with_clock(
        dir: impl AsRef<std::path::Path>,
        cam: CameraProfile,
        config: ServerConfig,
        clock: Arc<dyn MonotonicClock>,
    ) -> Result<Self, swag_store::StoreError> {
        let (durability, recovery) = swag_store::Durability::open(
            dir.as_ref(),
            config.shard_width_s,
            config.durability,
            clock.clone(),
            crate::engine::cold_zone_of,
        )?;
        let mut server = Self::with_config_and_clock(cam, config, clock);
        // Replay happens with durability detached: recovered state is
        // already durable, so re-appending it to the WAL (or re-demoting
        // shards an already-recovered cold run holds) would duplicate it.
        // `Durability::open` already hid retracted providers' cold rows.
        if !recovery.records.is_empty() {
            server.engine.bootstrap(recovery.records);
        }
        // Each run of consecutive appends is one fold, flushed before
        // every retraction or expiry and at the end.
        let mut appends = Vec::new();
        for op in recovery.ops {
            match op {
                swag_store::WalOp::Append { rep, source } => appends.push((rep, source)),
                swag_store::WalOp::Retract { provider_id, .. } => {
                    server.engine.ingest_records(&std::mem::take(&mut appends));
                    server.engine.retract_provider(provider_id);
                }
                swag_store::WalOp::Expire { horizon_s } => {
                    server.engine.ingest_records(&std::mem::take(&mut appends));
                    server.engine.expire_before(horizon_s);
                }
            }
        }
        server.engine.ingest_records(&appends);
        server.engine.durability = Some(durability);
        Ok(server)
    }

    /// Durability counters (WAL lag, snapshot age, cold-tier size), when
    /// this server was opened on a data directory.
    pub fn durability_stats(&self) -> Option<swag_store::DurabilityStats> {
        self.engine.durability.as_ref().map(|d| d.stats())
    }

    /// Forces everything durable *now*: fsyncs the WAL tail regardless
    /// of the group-commit window and blocks until the background
    /// snapshot worker has drained. A no-op on memory-only servers.
    /// Call before a planned shutdown to make recovery replay-free.
    pub fn quiesce(&self) {
        if let Some(durability) = &self.engine.durability {
            durability.quiesce();
        }
    }

    /// Replaces the executor used for bootstrap-sized run packs and
    /// [`Self::query_batch`]. Pass [`Executor::serial`] to force
    /// deterministic single-threaded execution regardless of
    /// `SWAG_EXEC_THREADS`.
    pub fn set_executor(&mut self, exec: Executor) {
        self.engine.exec = exec;
    }

    /// The executor this server schedules parallel work on.
    pub fn executor(&self) -> &Executor {
        &self.engine.exec
    }

    /// Wires this server's ingest, query, and publish paths to `registry`
    /// (metric names `swag_server_*`).
    /// Call before sharing the server across threads; until called,
    /// queries run unobserved.
    pub fn attach_observability(&mut self, registry: &Registry) {
        self.engine.attach_observability(registry);
    }

    /// Computes point-in-time gauges into `registry`: epoch snapshot age
    /// (`swag_server_epoch_age_micros`), result-cache entries, and per-time-shard entry counts
    /// (`swag_server_shard_entries{shard=...}`, zeroed when a shard
    /// expires). Call right before rendering the registry; cheap enough
    /// to call on every render.
    pub fn refresh_gauges(&self, registry: &Registry) {
        self.engine.refresh_gauges(registry);
    }

    /// The camera profile used for ranking geometry.
    pub fn camera(&self) -> &CameraProfile {
        &self.engine.cam
    }

    /// The active snapshot/retention configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.engine.config
    }

    /// Ingests one upload batch, returning the assigned segment ids.
    pub fn ingest_batch(&self, batch: &UploadBatch) -> Vec<SegmentId> {
        self.engine.ingest_batch(batch)
    }

    /// Ingests a single representative FoV.
    pub fn ingest_one(&self, rep: RepFov, source: SegmentRef) -> SegmentId {
        self.engine.ingest_one(rep, source)
    }

    /// Answers a query with the paper's rank-based retrieval: compiles
    /// one [`crate::engine::plan::QueryPlan`] and executes it on the
    /// operator pipeline. Lock-free after the initial epoch acquisition.
    pub fn query(&self, query: &Query, opts: &QueryOptions) -> Vec<SearchHit> {
        self.engine.query(query, opts)
    }

    /// Answers a *k-nearest* request: the `k` segments closest to `center`
    /// whose intervals overlap `[t_start, t_end]`, subject to the same
    /// direction/coverage filters as [`Self::query`].
    ///
    /// Useful when the querier has no natural radius ("show me whatever
    /// was filmed closest to this spot"). Implemented as a
    /// radius-expansion loop over successive plans: the radius doubles
    /// until `k` filtered hits are found or the search has covered
    /// `max_radius_m`.
    ///
    /// Early exit at `k` hits is only sound when the ranking key grows
    /// with distance. Under [`crate::query::RankMode::Distance`] it does;
    /// under [`crate::query::RankMode::Quality`] a higher-quality segment
    /// can sit outside the current ring, so the search keeps expanding
    /// until the radius covers the camera's viewing range (beyond which
    /// the quality proximity term is zero, so nothing unexplored can
    /// outrank a found hit) or `max_radius_m`, whichever is smaller.
    pub fn query_nearest(
        &self,
        t_start: f64,
        t_end: f64,
        center: swag_geo::LatLon,
        k: usize,
        opts: &QueryOptions,
        max_radius_m: f64,
    ) -> Vec<SearchHit> {
        self.engine
            .query_nearest(t_start, t_end, center, k, opts, max_radius_m)
    }

    /// Answers many queries against **one** epoch: the snapshot `Arc` is
    /// cloned once for the whole batch, so a publish landing mid-batch
    /// cannot make later queries see different data than earlier ones.
    /// Plans are fanned across the server's executor (`threads <= 1`
    /// forces an in-order serial loop); result order matches input order
    /// and is byte-identical in serial and parallel mode.
    pub fn query_batch(
        &self,
        queries: &[Query],
        opts: &QueryOptions,
        threads: usize,
    ) -> Vec<Vec<SearchHit>> {
        self.engine.query_batch(queries, opts, threads)
    }

    /// Renders the [`crate::engine::plan::QueryPlan`] this request would
    /// execute, resolved against the current snapshot: query boxes,
    /// shards probed, cache eligibility, filter chain, rank mode, and the
    /// operator pipeline (named with the same labels EXPLAIN ANALYZE and
    /// the per-operator metrics use).
    pub fn explain(&self, query: &Query, opts: &QueryOptions) -> String {
        self.engine.explain(query, opts)
    }

    /// EXPLAIN ANALYZE: executes the request for real — the same
    /// pipeline [`Self::query`] runs, under the measuring probe — and
    /// returns the hits plus a report annotating every operator with
    /// measured wall time and rows in/out, the shards probed, and the
    /// concrete cache decision this execution took. When the wide-event log is
    /// enabled the analyzed run emits an event like any other query.
    ///
    /// `_client_id` is ignored. It named the caller for the admission
    /// control older builds had, and stays so existing callers compile.
    pub fn query_analyzed(
        &self,
        _client_id: u64,
        query: &Query,
        opts: &QueryOptions,
    ) -> AnalyzedQuery {
        self.engine.query_analyzed(query, opts)
    }

    /// The wide-event query log, present when
    /// [`ServerConfig::events`] enabled it.
    pub fn event_log(&self) -> Option<&Arc<QueryEventLog>> {
        self.engine.events.as_ref()
    }

    /// Retracts every segment a provider contributed (the §I privacy
    /// concern: contributors stay in control of their descriptors).
    /// Returns how many live segments were removed; on a durable server
    /// the provider's demoted rows are hidden from every cold run written
    /// so far as well (rows uploaded afterwards stay servable). The
    /// retraction publishes a fresh snapshot immediately.
    pub fn retract_provider(&self, provider_id: u64) -> usize {
        self.engine.retract_provider(provider_id)
    }

    /// Expires everything older than `horizon_s` (paper-time seconds):
    /// drops index shards ending at or before the horizon and retires
    /// fully-expired segments from the store (pruning it once compaction
    /// kicks in). Publishes the shrunken snapshot immediately and returns
    /// how many segments were dropped.
    pub fn expire_before(&self, horizon_s: f64) -> usize {
        self.engine.expire_before(horizon_s)
    }

    /// Exports every live record (demoted cold rows are not live).
    pub fn export_records(&self) -> Vec<SegmentRecord> {
        self.engine.export_records()
    }

    /// Builds a memory-only server holding `records`, STR-bulk-loading
    /// the sharded index on `exec` (parallel slab packing when it has
    /// threads); the server keeps `exec` for `query_batch` afterwards.
    pub fn from_records_with_config_exec(
        cam: CameraProfile,
        config: ServerConfig,
        exec: Executor,
        records: Vec<(RepFov, SegmentRef)>,
    ) -> Self {
        let mut server = Self::with_config(cam, config);
        server.set_executor(exec);
        server.engine.bootstrap(records);
        server
    }

    /// Current statistics snapshot. The latency histogram is empty
    /// unless observability is attached.
    pub fn stats(&self) -> ServerStats {
        self.engine.stats()
    }
}
