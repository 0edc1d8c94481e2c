//! Shared live-workload harness for `swag serve` and `swag top`.
//!
//! Both commands need the same thing the `stats`/`trace` probes build
//! once: a fully instrumented stack (client segmentation → descriptor
//! upload → observable server) — but running *continuously*, so the
//! windowed metrics, SLO burn rates, and the `/metrics` endpoint have a
//! moving workload to describe. [`LiveStack::build`] wires the stack and
//! its [`OpsSurface`]; [`LiveStack::drive`] advances the workload one
//! tick (shifted ingest + a probe query batch, so publishes, retention,
//! and shard churn all happen over time); [`render_dashboard`] formats
//! the windowed views as the `swag top` screen.

use std::sync::Arc;

use swag_client::{ClientPipeline, Uploader};
use swag_core::{CameraProfile, RepFov, UploadBatch};
use swag_exec::{ExecConfig, Executor};
use swag_net::{observe_plan, plan_uploads, Connectivity, DataPlan, NetworkLink, UploadPolicy};
use swag_obs::{
    labeled_name, Metric, OpsSurface, Registry, SloSpec, SloStatus, WallClock, WindowSpec,
    WindowView,
};
use swag_sensors::{scenarios, SensorNoise};
use swag_server::{
    AdmissionConfig, CacheConfig, CloudServer, EventLogConfig, Query, QueryOptions, ServerConfig,
};

use crate::args::{ArgParser, Spec};

/// Knobs shared by `swag serve`, `swag top`, `swag events`, and
/// `swag replay`.
pub struct LiveConfig {
    pub seed: u64,
    pub threads: usize,
    /// Window width for the metric rings, milliseconds.
    pub window_millis: u64,
    /// Query-latency SLO threshold, milliseconds. Doubles as the
    /// wide-event log's always-keep slow threshold.
    pub slo_millis: u64,
    /// Tail-sampling keep rate for ordinary (served, under-SLO) events,
    /// out of 1000. Sheds and slow queries are always kept.
    pub keep_per_mille: u64,
    /// Data directory for durable serving (`None` = memory-only). With
    /// a directory, ingests are WAL-logged, publishes snapshot
    /// incrementally, and retention demotes expired shards to the cold
    /// tier instead of dropping them.
    pub data_dir: Option<String>,
}

/// What [`LiveConfig::from_args`] reads.
pub const LIVE_ARGS: Spec = Spec {
    options: &[
        "seed",
        "threads",
        "window-millis",
        "slo-millis",
        "keep-per-mille",
        "data-dir",
    ],
    flags: &[],
};

impl LiveConfig {
    /// Parses the shared `--seed/--threads/--window-millis/--slo-millis/
    /// --keep-per-mille` arguments.
    pub fn from_args(args: &ArgParser) -> Result<LiveConfig, String> {
        let cfg = LiveConfig {
            seed: args.get_u64("seed", 42)?,
            threads: args.get_u64("threads", 2)? as usize,
            window_millis: args.get_u64("window-millis", 2_000)?,
            slo_millis: args.get_u64("slo-millis", 5)?,
            keep_per_mille: args.get_u64("keep-per-mille", 1_000)?,
            data_dir: args.get("data-dir").map(str::to_string),
        };
        if cfg.window_millis == 0 {
            return Err("--window-millis must be positive".into());
        }
        if cfg.slo_millis == 0 {
            return Err("--slo-millis must be positive".into());
        }
        if cfg.keep_per_mille > 1_000 {
            return Err("--keep-per-mille is out of 1000".into());
        }
        Ok(cfg)
    }
}

/// The instrumented stack both live commands drive.
pub struct LiveStack {
    pub registry: Arc<Registry>,
    pub surface: Arc<OpsSurface>,
    pub server: Arc<CloudServer>,
    /// Representative FoVs of the base recording; re-ingested
    /// time-shifted every few ticks to keep publishes/retention moving.
    reps: Vec<RepFov>,
    probes: Vec<Query>,
    threads: usize,
}

/// Seconds of paper time each drive tick advances the workload.
const TICK_SHIFT_S: f64 = 60.0;

impl LiveStack {
    /// Builds the instrumented probe stack and its ops surface.
    pub fn build(cfg: &LiveConfig) -> Result<LiveStack, String> {
        let cam = CameraProfile::smartphone();
        let registry = Arc::new(Registry::new());

        // Client layer: segment a simulated city recording.
        let trace = scenarios::city_walk(cfg.seed, 3, &SensorNoise::smartphone());
        let mut pipeline = ClientPipeline::new(cam, 0.5)
            .with_smoothing(0.15)
            .with_observability(&registry);
        for &frame in &trace {
            pipeline.push(frame);
        }
        let recording = pipeline.finish();
        if recording.reps.is_empty() {
            return Err("probe workload produced no segments".into());
        }

        // Upload layer: encode descriptors and plan their transmission.
        let mut uploader = Uploader::new(0);
        uploader.attach_observability(&registry);
        let (wire, batch) = uploader
            .upload(recording.reps.clone())
            .map_err(|e| e.to_string())?;
        let uploads = [(30.0, wire.len()), (400.0, wire.len())];
        let plan = plan_uploads(
            UploadPolicy::WifiPreferred { max_delay_s: 300.0 },
            &Connectivity::new(vec![(0.0, 60.0), (900.0, 1800.0)]),
            &uploads,
            &NetworkLink::cellular_4g(),
            &NetworkLink::wifi(),
            &DataPlan::metered(),
        );
        observe_plan(&plan, &uploads, &registry);

        // Server layer: small publish threshold and a retention horizon,
        // so the shifted re-ingest keeps the snapshot lifecycle active.
        // The result cache and admission control run here with generous
        // budgets: the dashboard's hit-rate and shed-rate rows describe a
        // live mix rather than zeros.
        let server_config = ServerConfig {
            publish_threshold: 64,
            retention_horizon_s: Some(1_800.0),
            cache: CacheConfig::enabled(2_048),
            admission: AdmissionConfig {
                enabled: true,
                rate_per_s: 500.0,
                burst: 250.0,
                ..AdmissionConfig::default()
            },
            // The forensic wide-event log rides along on every live
            // command: `swag events`/`swag replay` read it, and the
            // dashboard's events row stays non-zero on `swag top`.
            events: EventLogConfig {
                enabled: true,
                kept_capacity: 512,
                keep_per_mille: cfg.keep_per_mille as u32,
                slow_micros: cfg.slo_millis * 1_000,
                seed: cfg.seed,
                ..EventLogConfig::default()
            },
            ..ServerConfig::default()
        };
        // With `--data-dir` the live server is durable: it recovers
        // whatever a previous run left behind, WAL-logs every ingest,
        // and retention demotes expired shards to the cold tier.
        let mut server = match &cfg.data_dir {
            Some(dir) => CloudServer::open(dir, cam, server_config)
                .map_err(|e| format!("cannot open data dir '{dir}': {e}"))?,
            None => CloudServer::with_config(cam, server_config),
        };
        server.set_executor(if cfg.threads <= 1 {
            Executor::serial()
        } else {
            Executor::new(ExecConfig::with_threads(cfg.threads))
        });
        server.attach_observability(&registry);
        server.ingest_batch(&batch);
        let server = Arc::new(server);

        let probes: Vec<Query> = recording
            .reps
            .iter()
            .map(|rep| Query::new(rep.t_start - 5.0, rep.t_end + 5.0, rep.fov.p, 150.0))
            .collect();

        let surface = Arc::new(OpsSurface::new(
            registry.clone(),
            Arc::new(WallClock),
            WindowSpec::new(cfg.window_millis * 1_000, 30),
        ));
        surface.add_slo(SloSpec::latency(
            "query_latency",
            "swag_server_query_micros",
            cfg.slo_millis * 1_000,
            0.99,
        ));
        surface.add_slo(SloSpec::latency(
            "exec_queue_wait",
            "swag_exec_queue_wait_micros",
            1_000,
            0.95,
        ));
        let gauges_server = server.clone();
        surface.add_refresher(move |reg| gauges_server.refresh_gauges(reg));

        Ok(LiveStack {
            registry,
            surface,
            server,
            reps: recording.reps,
            probes,
            threads: cfg.threads,
        })
    }

    /// Advances the workload one tick: every few ticks a time-shifted
    /// copy of the recording is ingested as a new provider (advancing
    /// paper time so publishes fire and retention eventually expires old
    /// shards), then the probe queries run as one batch, time-shifted
    /// the same way so they chase the freshest shards.
    pub fn drive(&self, tick: u64) {
        let shift = (tick / 4) as f64 * TICK_SHIFT_S;
        if tick.is_multiple_of(4) {
            let reps: Vec<RepFov> = self
                .reps
                .iter()
                .map(|r| RepFov::new(r.t_start + shift, r.t_end + shift, r.fov))
                .collect();
            self.server.ingest_batch(&UploadBatch {
                provider_id: 1_000 + tick / 4,
                video_id: 0,
                reps,
            });
        }
        let probes: Vec<Query> = self
            .probes
            .iter()
            .map(|q| Query::new(q.t_start + shift, q.t_end + shift, q.center, q.radius_m))
            .collect();
        self.server
            .query_batch(&probes, &QueryOptions::default(), self.threads);
        // One admitted probe per tick drives the admission counters (and,
        // between ingests, reads a warm result-cache entry).
        let _ = self.server.query_admitted(
            1 + tick % 8,
            &probes[tick as usize % probes.len()],
            &QueryOptions::default(),
        );
    }

    /// The query-only half of [`Self::drive`]: runs every probe once
    /// through admission at `tick`'s time shift, ingesting nothing. A
    /// capture pass over a warmed stack is exactly this, so `swag
    /// replay` can rebuild the same store state by re-driving the warm
    /// ticks and skipping the probes.
    pub fn probe(&self, tick: u64) {
        let shift = (tick / 4) as f64 * TICK_SHIFT_S;
        for (i, q) in self.probes.iter().enumerate() {
            let probe = Query::new(q.t_start + shift, q.t_end + shift, q.center, q.radius_m);
            let _ = self.server.query_admitted(
                1 + (tick + i as u64) % 8,
                &probe,
                &QueryOptions::default(),
            );
        }
    }

    /// Fires a burst of requests from one client well past its
    /// token-bucket burst (250), guaranteeing rate-limited sheds — each
    /// one an always-kept wide event. Returns how many were shed.
    pub fn shed_burst(&self) -> usize {
        let q = &self.probes[0];
        (0..300)
            .filter(|_| {
                self.server
                    .query_admitted(999, q, &QueryOptions::default())
                    .is_err()
            })
            .count()
    }
}

/// Events per second of a windowed view, `None`-safe.
fn rate(view: &Option<WindowView>) -> f64 {
    view.as_ref().map_or(0.0, WindowView::rate_per_s)
}

/// Windowed p50/p99 of a histogram view, as `(p50, p99)`.
fn quantiles(view: &Option<WindowView>) -> (u64, u64) {
    view.as_ref()
        .and_then(|v| v.sample.histogram())
        .map_or((0, 0), |h| (h.p50(), h.p99()))
}

/// Sum per second carried by a windowed histogram view (e.g. rows/s).
fn sum_rate(view: &Option<WindowView>) -> f64 {
    match view {
        Some(v) if v.span_micros > 0 => {
            let sum = v.sample.histogram().map_or(0, |h| h.sum);
            sum as f64 / (v.span_micros as f64 / 1e6)
        }
        _ => 0.0,
    }
}

fn gauge(registry: &Registry, name: &str) -> i64 {
    match registry.get(name) {
        Some(Metric::Gauge(g)) => g.get(),
        _ => 0,
    }
}

/// Renders the `swag top` screen from the surface's windowed views and
/// the latest SLO evaluations.
pub fn render_dashboard(stack: &LiveStack, statuses: &[SloStatus]) -> String {
    let windows = stack.surface.windows();
    let view = |name: &str| windows.view(name, usize::MAX);
    let spec = windows.spec();
    let mut out = String::new();

    let q = view("swag_server_query_micros");
    let (q50, q99) = quantiles(&q);
    out.push_str(&format!(
        "swag top — live ops surface   window {:.1}s x {}   rotations {}\n",
        spec.width_micros as f64 / 1e6,
        spec.capacity,
        windows.rotations(),
    ));
    out.push_str(&format!(
        "queries {:>8.1}/s   p50 {q50} us   p99 {q99} us   hits index {:.1}/s delta {:.1}/s\n",
        rate(&q),
        rate(&view(&labeled_name(
            "swag_server_hits_total",
            &[("src", "index")]
        ))),
        rate(&view(&labeled_name(
            "swag_server_hits_total",
            &[("src", "delta")]
        ))),
    ));
    out.push_str(&format!(
        "epoch age {} us   staged delta {}   compiled plans {}   shards {}\n\n",
        gauge(&stack.registry, "swag_server_epoch_age_micros"),
        gauge(&stack.registry, "swag_server_staged_delta"),
        gauge(&stack.registry, "swag_server_compiled_plans"),
        stack.server.stats().shards,
    ));

    out.push_str(&format!(
        "{:<12} {:>10} {:>9} {:>9} {:>12} {:>12}\n",
        "operator", "rate/s", "p50 us", "p99 us", "rows_in/s", "rows_out/s"
    ));
    for op in ["index_scan", "delta_scan", "ranking"] {
        let micros = view(&labeled_name("swag_server_op_micros", &[("op", op)]));
        let (p50, p99) = quantiles(&micros);
        out.push_str(&format!(
            "{op:<12} {:>10.1} {p50:>9} {p99:>9} {:>12.0} {:>12.0}\n",
            rate(&micros),
            sum_rate(&view(&labeled_name(
                "swag_server_op_rows_in",
                &[("op", op)]
            ))),
            sum_rate(&view(&labeled_name(
                "swag_server_op_rows_out",
                &[("op", op)]
            ))),
        ));
    }
    let (shards50, shards99) = quantiles(&view("swag_server_shards_probed"));
    out.push_str(&format!(
        "shards probed per query: p50 {shards50} p99 {shards99}\n\n"
    ));

    let (qw50, qw99) = quantiles(&view("swag_exec_queue_wait_micros"));
    let (sw50, sw99) = quantiles(&view("swag_exec_steal_wait_micros"));
    out.push_str(&format!(
        "executor  tasks {:>8.1}/s  steals {:>6.1}/s  queue_wait p50/p99 {qw50}/{qw99} us  steal_wait {sw50}/{sw99} us\n",
        rate(&view("swag_exec_tasks_total")),
        rate(&view("swag_exec_steals_total")),
    ));
    let (rb50, rb99) = quantiles(&view("swag_server_snapshot_rebuild_micros"));
    out.push_str(&format!(
        "publish   {:>8.2}/s  rebuild p50/p99 {rb50}/{rb99} us  retention dropped {:.1}/s  ingested {:.1}/s\n",
        rate(&view("swag_server_publishes_total")),
        rate(&view("swag_server_retention_dropped_total")),
        rate(&view("swag_server_segments_ingested_total")),
    ));
    let cache_hits = rate(&view("swag_server_cache_hits_total"));
    let cache_lookups = cache_hits + rate(&view("swag_server_cache_misses_total"));
    let shed_rate_limited = rate(&view(&labeled_name(
        "swag_server_shed_total",
        &[("reason", "rate_limited")],
    )));
    let shed_overloaded = rate(&view(&labeled_name(
        "swag_server_shed_total",
        &[("reason", "overloaded")],
    )));
    let shed_rate = shed_rate_limited + shed_overloaded;
    out.push_str(&format!(
        "cache     {:>8.1}/s lookups  hit rate {:>5.1}%  entries {}  evictions {:.1}/s\n",
        cache_lookups,
        if cache_lookups > 0.0 {
            100.0 * cache_hits / cache_lookups
        } else {
            0.0
        },
        gauge(&stack.registry, "swag_server_cache_entries"),
        rate(&view("swag_server_cache_evictions_total")),
    ));
    out.push_str(&format!(
        "admission {:>8.1}/s admitted  shed {shed_rate:.2}/s (rate_limited {shed_rate_limited:.2}/s, overloaded {shed_overloaded:.2}/s)  queue depth {}\n",
        rate(&view("swag_server_admitted_total")),
        gauge(&stack.registry, "swag_server_queue_depth"),
    ));
    out.push_str(&format!(
        "events    {:>8.1}/s recorded  kept {:.1}/s (tail-sampled; sheds and slow always kept)\n",
        rate(&view(&labeled_name(
            "swag_server_events_total",
            &[("stage", "pushed")]
        ))),
        rate(&view(&labeled_name(
            "swag_server_events_total",
            &[("stage", "kept")]
        ))),
    ));
    match stack.server.durability_stats() {
        Some(d) => out.push_str(&format!(
            "durable   wal lag {} B (seq {})  snapshots {} (age {})  cold {} runs / {} segs\n\
             cold      pruned {} / opened {} runs  resident {} B  errors {} run / {} demote\n\n",
            d.wal_lag_bytes,
            d.wal_seq,
            d.snapshots_written,
            d.last_snapshot_age_micros
                .map_or("never".to_string(), |us| format!("{us} us")),
            d.cold_runs,
            d.cold_segments,
            d.cold_runs_pruned,
            d.cold_runs_opened,
            d.cold_resident_bytes,
            d.cold_run_errors,
            d.cold_demote_errors,
        )),
        None => out.push_str("durable   off (memory-only; pass --data-dir DIR)\n\n"),
    }

    for s in statuses {
        out.push_str(&format!(
            "slo {:<16} {:<8} burn short {:>7.2}x long {:>7.2}x  ({}/{} good, objective {:.0}% <= {} us)\n",
            s.spec.name,
            s.state.as_str(),
            s.short.burn,
            s.long.burn,
            s.long.good,
            s.long.total,
            s.spec.objective * 100.0,
            s.spec.threshold_micros,
        ));
    }
    out
}
