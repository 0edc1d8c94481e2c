//! SWAG cloud server: spatio-temporal FoV indexing and rank-based
//! retrieval (paper §II, §V).
//!
//! The server ingests [`swag_core::UploadBatch`]es of representative FoVs
//! from providers, stores them in a [`store::SegmentStore`], and indexes
//! each as a 3-D line segment `[lng, lat, t_s] .. [lng, lat, t_e]` in an
//! R-tree ([`index::FovIndex`]). A querier's request
//! `Q = (t_s, t_e, p̂, r̂)` is converted to a query box (the radius is
//! rescaled to degrees at the query latitude, §V-B) and answered with the
//! paper's four-step filtering mechanism ([`ranking`]):
//!
//! 1. build the query rectangle from an empirical radius of view,
//! 2. retrieve all FoV segments intersecting it,
//! 3. drop FoVs pointing away from the query centre, and
//! 4. rank the rest by distance to the centre, returning the top N.
//!
//! [`server::CloudServer`] serves queries from immutable published
//! snapshots (epochs): a query clones one `Arc` in a momentary critical
//! section and then scans and ranks lock-free, while every write folds
//! its records into a fresh snapshot whose time-sharded index
//! ([`shard::ShardedFovIndex`]) also drives retention — old shards are
//! dropped wholesale and their segments retired from the store.

pub mod engine;
pub mod index;
pub mod query;
pub mod ranking;
pub mod server;
pub mod shard;
mod shard_map;
pub mod store;

pub use engine::cache::CacheConfig;
pub use engine::forensics::{
    result_digest, AnalyzeReport, AnalyzedQuery, CacheOutcome, ColdScanMeasure, EventDecodeError,
    EventLogConfig, QueryEvent, QueryEventLog, QUERY_EVENT_WORDS,
};
pub use engine::plan::{FilterChain, QueryPlan};
pub use index::{FovIndex, IndexKind};
pub use query::{Query, QueryError, QueryOptions, RankMode};
pub use ranking::{quality_score, SearchHit};
pub use server::{CloudServer, ServerConfig, ServerStats};
pub use shard::{ExpireReport, ShardedFovIndex};
pub use store::{SegmentId, SegmentRecord, SegmentRef, SegmentStore};
pub use swag_store::{DurabilityConfig, DurabilityStats, StoreError, WalOp};
