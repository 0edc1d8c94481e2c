//! # swag-obs — observability substrate for the SWAG retrieval pipeline
//!
//! Dependency-free metrics for every layer of the stack: lock-free
//! [`Counter`]/[`Gauge`]/[`Histogram`] primitives, an injectable
//! [`MonotonicClock`] for deterministic timing tests, and a named-metric
//! [`Registry`] with Prometheus-text and JSON-lines exporters.
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
//! On top of the metric substrate sit the per-query [`EventLog`] (a
//! lock-free ring of wide events with tail sampling), windowed views
//! ([`MetricWindows`]), SLO burn tracking ([`SloSet`]) and the HTTP
//! [`OpsSurface`]. A query's stage timings are measured once by the
//! server and fed to the registry and the event log from that one
//! record; this crate only stores and exports them.

#![forbid(unsafe_code)]

mod clock;
mod events;
mod http;
mod metrics;
mod percentiles;
mod registry;
mod slo;
mod surface;
mod window;

pub use clock::{ManualClock, MonotonicClock, WallClock};
pub use events::{EventClass, EventLog, EventLogStats, TailSampler};
pub use http::{Handler, HttpServer, Response};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use percentiles::Percentiles;
pub use registry::{escape_help, escape_label_value, labeled_name, Metric, Registry};
pub use slo::{SloBurn, SloSet, SloSpec, SloState, SloStatus};
pub use surface::OpsSurface;
pub use window::{MetricWindows, Sample, Window, WindowRing, WindowSpec, WindowView};
