//! The concurrent cloud server: construction, configuration, and the
//! public facade over the layered [`crate::engine`].
//!
//! Queries never hold a lock while they work: the engine publishes an
//! immutable **epoch** — an `Arc` to a `(store, index)` snapshot plus a
//! small delta of records ingested since that snapshot — and a query
//! clones that `Arc` in a tiny read-side critical section, then scans and
//! ranks entirely lock-free. Writers append into the delta under a short
//! write lock; every write republishes the epoch (so reads are
//! read-your-writes fresh), and once the delta reaches
//! [`ServerConfig::publish_threshold`] records the writer folds it into a
//! new snapshot, STR-bulk-rebuilding only the time shards the batch
//! touched. Retention ([`ServerConfig::retention_horizon_s`]) expires old
//! shards at publish time and retires the dropped segments from the
//! store, which compacts once enough of it is tombstones.
//!
//! The read path is plan-driven: every entry point lowers its request
//! through the planner ([`crate::engine::plan::QueryPlan`]) and executes
//! the resulting plan on the operator pipeline, so `query`,
//! `query_nearest`, `query_batch`, and standing-query subscriptions
//! share one filter and one ranking definition. [`CloudServer::explain`]
//! renders the plan a request would run.
//!
//! Observability is opt-in: [`CloudServer::attach_observability`] wires
//! the query path to `swag-obs` histograms (total latency, per-operator
//! time and rows, candidate counts, R-tree traversal work) and the
//! publish path to snapshot age / rebuild cost / delta size metrics.
//! Without it the query path runs the same pipeline under a probe that
//! records nothing and reads no clock. Time comes from an injectable
//! [`MonotonicClock`] so latency accounting is exactly testable.

use std::sync::Arc;

use swag_core::{CameraProfile, RepFov, UploadBatch};
use swag_exec::Executor;
use swag_obs::{HistogramSnapshot, MonotonicClock, Registry, WallClock};

use crate::engine::admission::{AdmissionConfig, ShedReason};
use crate::engine::cache::CacheConfig;
use crate::engine::fanout::FanoutMode;
use crate::engine::forensics::{AnalyzedQuery, EventLogConfig, QueryEventLog};
use crate::engine::Engine;
use crate::index::IndexKind;
use crate::query::{Query, QueryOptions};
use crate::ranking::SearchHit;
use crate::store::{SegmentId, SegmentRecord, SegmentRef};
use crate::subscribe::SubscriptionId;

/// Tuning knobs for the snapshot-publishing server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Index backend used inside each time shard.
    pub index: IndexKind,
    /// Width of each time shard, seconds.
    pub shard_width_s: f64,
    /// Delta size that triggers folding the delta into a new snapshot.
    pub publish_threshold: usize,
    /// Retention horizon: at every snapshot publish, shards older than
    /// `latest t_end − horizon` are expired and fully-expired segments
    /// retired from the store. `None` keeps everything forever.
    pub retention_horizon_s: Option<f64>,
    /// Fraction of the store that may be tombstones before a publish
    /// compacts it (re-assigning ids densely and rebuilding the index).
    pub compact_dead_fraction: f64,
    /// How the engine chooses between the serial and parallel shard
    /// probe per query. [`FanoutMode::Adaptive`] (the default) prices
    /// each plan with the fan-out cost model; `Serial` / `Parallel`
    /// force one path (both produce byte-identical results).
    pub fanout: FanoutMode,
    /// Plan-keyed result cache (disabled by default, `capacity: 0`):
    /// repeated queries are answered from cache until a publish touches
    /// one of the time shards their window spans. Results are
    /// byte-identical to the uncached path — the epoch stamp proves
    /// every served entry current (see `DESIGN.md` §13).
    pub cache: CacheConfig,
    /// Per-client token-bucket admission control with a bounded
    /// in-flight budget (disabled by default). Only
    /// [`CloudServer::query_admitted`] consults it; the plain query
    /// entry points are for trusted internal callers.
    pub admission: AdmissionConfig,
    /// Wide-event query log with tail sampling (disabled by default):
    /// every query records one forensic [`crate::QueryEvent`]; sheds and
    /// over-threshold-slow queries are always retained, ordinary traffic
    /// probabilistically. Applies to every read entry point, one event
    /// per executed plan.
    pub events: EventLogConfig,
    /// Durable storage (disabled by default — the server is memory-only
    /// unless opened through [`CloudServer::open`], which switches the
    /// master switch on): segment WAL on the ingest path, incremental
    /// snapshots at publish time, and cold-tier demotion of aged-out
    /// shards. The data directory is the argument to `open`, not part
    /// of this config. See `DESIGN.md` §15.
    pub durability: swag_store::DurabilityConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            index: IndexKind::RTree,
            shard_width_s: 600.0,
            publish_threshold: 256,
            retention_horizon_s: None,
            compact_dead_fraction: 0.25,
            fanout: FanoutMode::Adaptive,
            cache: CacheConfig::default(),
            admission: AdmissionConfig::default(),
            events: EventLogConfig::default(),
            durability: swag_store::DurabilityConfig::default(),
        }
    }
}

/// Aggregated server statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Stored segments (live snapshot records plus the pending delta).
    pub segments: usize,
    /// Store slots allocated, tombstones included (shrinks on compaction).
    pub store_slots: usize,
    /// Live time shards in the published snapshot.
    pub shards: usize,
    /// Records waiting in the delta for the next snapshot publish.
    pub pending_delta: usize,
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
    /// snapshots incrementally at publish time, and (with
    /// [`swag_store::DurabilityConfig::cold_tier`]) demotes aged-out
    /// shards to cold runs instead of dropping them.
    ///
    /// `config.durability.enabled` is forced on — passing a data
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
        mut config: ServerConfig,
        clock: Arc<dyn MonotonicClock>,
    ) -> Result<Self, swag_store::StoreError> {
        config.durability.enabled = true;
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
        if !recovery.records.is_empty() {
            server.engine.bootstrap(recovery.records);
        }
        for op in recovery.ops {
            match op {
                swag_store::WalOp::Append { rep, source } => {
                    server.engine.ingest_one(rep, source);
                }
                swag_store::WalOp::Retract { provider_id } => {
                    server.engine.retract_provider(provider_id);
                }
                swag_store::WalOp::Expire { horizon_s } => {
                    server.engine.expire_before(horizon_s);
                }
            }
        }
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

    /// Replaces the executor used for shard fan-out, publish rebuilds,
    /// and [`Self::query_batch`]. Pass [`Executor::serial`] to force
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
    /// (metric names `swag_server_*`, shard fan-out under `swag_shard_*`).
    /// Call before sharing the server across threads; until called,
    /// queries run unobserved.
    pub fn attach_observability(&mut self, registry: &Registry) {
        self.engine.attach_observability(registry);
    }

    /// Computes point-in-time gauges into `registry`: epoch snapshot age
    /// (`swag_server_epoch_age_micros`), staged-delta size, compiled
    /// standing-query plan count, and per-time-shard entry counts
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

    /// Registers a standing query: every matching segment ingested from
    /// now on is queued until [`Self::poll_subscription`]. The query's
    /// plan is compiled once at registration; ingest-time matching runs
    /// the same filter stage as pull queries.
    pub fn subscribe(&self, query: Query, opts: QueryOptions) -> SubscriptionId {
        self.engine.subscribe(query, opts)
    }

    /// Cancels a standing query.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        self.engine.unsubscribe(id)
    }

    /// Drains a standing query's accumulated matches (arrival order).
    pub fn poll_subscription(&self, id: SubscriptionId) -> Vec<SearchHit> {
        self.engine.poll_subscription(id)
    }

    /// Answers a query with the paper's rank-based retrieval: compiles
    /// one [`crate::engine::plan::QueryPlan`] and executes it on the
    /// operator pipeline. Lock-free after the initial epoch acquisition.
    pub fn query(&self, query: &Query, opts: &QueryOptions) -> Vec<SearchHit> {
        self.engine.query(query, opts)
    }

    /// [`Self::query`] behind admission control — the entry point for
    /// untrusted callers. With [`AdmissionConfig::enabled`] the request
    /// is first charged against `client_id`'s token bucket and the
    /// server's bounded in-flight budget; over-budget requests are shed
    /// with a [`ShedReason`] instead of queueing, which keeps admitted
    /// requests' tail latency bounded under overload. With admission
    /// disabled (the default) every request is admitted.
    pub fn query_admitted(
        &self,
        client_id: u64,
        query: &Query,
        opts: &QueryOptions,
    ) -> Result<Vec<SearchHit>, ShedReason> {
        self.engine.query_admitted(client_id, query, opts)
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
    /// shards probed, pending delta, filter chain, rank mode, and the
    /// operator pipeline (named with the same labels EXPLAIN ANALYZE and
    /// the per-operator metrics use).
    pub fn explain(&self, query: &Query, opts: &QueryOptions) -> String {
        self.engine.explain(query, opts)
    }

    /// EXPLAIN ANALYZE: executes the request for real — the same
    /// pipeline [`Self::query_admitted`] runs, under the measuring probe
    /// — and returns the hits plus a report annotating every operator
    /// with measured wall time and rows in/out, and the concrete cache,
    /// admission, and fan-out decisions this execution took. Admission is consulted exactly like
    /// `query_admitted`; a shed request returns no hits and a report
    /// saying why. When the wide-event log is enabled the analyzed run
    /// emits an event like any other query.
    pub fn query_analyzed(
        &self,
        client_id: u64,
        query: &Query,
        opts: &QueryOptions,
    ) -> AnalyzedQuery {
        self.engine.query_analyzed(client_id, query, opts)
    }

    /// The wide-event query log, present when
    /// [`ServerConfig::events`] enabled it.
    pub fn event_log(&self) -> Option<&Arc<QueryEventLog>> {
        self.engine.events.as_ref()
    }

    /// Retracts every segment a provider contributed (the §I privacy
    /// concern: contributors stay in control of their descriptors).
    /// Returns how many segments were removed. The retraction publishes a
    /// fresh snapshot immediately — it does not wait for the next
    /// threshold-driven publish.
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

    /// Exports every stored record, pending delta included (for
    /// snapshotting; see [`crate::persistence`]).
    pub fn export_records(&self) -> Vec<SegmentRecord> {
        self.engine.export_records()
    }

    /// Rebuilds a server from records, STR-bulk-loading the sharded index.
    pub fn from_records(cam: CameraProfile, records: Vec<(RepFov, SegmentRef)>) -> Self {
        Self::from_records_with_config(cam, ServerConfig::default(), records)
    }

    /// [`Self::from_records`] with explicit snapshot/retention tuning.
    pub fn from_records_with_config(
        cam: CameraProfile,
        config: ServerConfig,
        records: Vec<(RepFov, SegmentRef)>,
    ) -> Self {
        Self::from_records_with_config_exec(cam, config, Executor::global().clone(), records)
    }

    /// [`Self::from_records_with_config`] on an explicit executor: the
    /// STR bulk load runs on `exec` (parallel slab packing when it has
    /// threads), and the server keeps `exec` for query fan-out afterwards.
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
