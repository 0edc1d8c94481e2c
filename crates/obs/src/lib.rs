//! # swag-obs — observability substrate for the SWAG retrieval pipeline
//!
//! Dependency-free metrics for every layer of the stack: lock-free
//! [`Counter`]/[`Gauge`]/[`Histogram`] primitives, RAII [`SpanTimer`]s,
//! an injectable [`MonotonicClock`] for deterministic timing tests, and a
//! named-metric [`Registry`] with Prometheus-text and JSON-lines
//! exporters.
//!
//! Design constraints, in order:
//!
//! 1. **Never on the hot path unless asked.** Instrumented components
//!    hold an `Option` of their metric handles; the disabled path costs
//!    one branch.
//! 2. **Lock-free recording.** `Histogram::record` is a handful of
//!    relaxed atomic RMWs on fixed log₂ buckets — no allocation, no lock,
//!    safe from any thread.
//! 3. **Mergeable snapshots.** [`HistogramSnapshot`]s add bucket-wise, so
//!    per-shard or per-thread histograms can be combined after the fact;
//!    quantiles (p50/p90/p99/max) come from the buckets.
//!
//! On top of the metric substrate sits **causal tracing**: a
//! [`TraceCtx`] propagated through thread-locals (and across the
//! `swag-exec` pool into stolen jobs), a lock-free [`FlightRecorder`]
//! of per-thread span rings with slow-query capture, span-tree
//! reassembly ([`assemble`]) with ASCII waterfalls, and a Chrome
//! trace-event exporter ([`chrome_trace_json`]).

mod chrome;
mod clock;
mod ctx;
mod events;
mod http;
mod metrics;
mod percentiles;
mod recorder;
mod registry;
mod slo;
mod span;
mod surface;
mod tree;
mod window;

pub use chrome::chrome_trace_json;
pub use clock::{ManualClock, MonotonicClock, WallClock};
pub use ctx::TraceCtx;
pub use events::{EventClass, EventLog, EventLogStats, TailSampler};
pub use http::{Handler, HttpServer, Response};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use percentiles::Percentiles;
pub use recorder::{
    FlightRecorder, SlowQuery, SpanEvent, SpanEventKind, SpanGuard, DEFAULT_RING_CAPACITY,
    DEFAULT_SLOW_CAPACITY,
};
pub use registry::{escape_help, escape_label_value, labeled_name, Metric, Registry};
pub use slo::{SloBurn, SloSet, SloSpec, SloState, SloStatus};
pub use span::SpanTimer;
pub use surface::OpsSurface;
pub use tree::{assemble, render_waterfall, SpanNode, SpanTree};
pub use window::{MetricWindows, Sample, Window, WindowRing, WindowSpec, WindowView};
