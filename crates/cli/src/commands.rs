//! The `swag` subcommands.

use std::io::Write as _;

use swag_client::{ClientPipeline, Uploader};
use swag_core::{read_trace_csv, write_reps_csv, write_trace_csv, CameraProfile, RepFov, TimedFov};
use swag_exec::{ExecConfig, Executor};
use swag_geo::{LatLon, Trajectory};
use swag_net::{observe_plan, plan_uploads, Connectivity, DataPlan, NetworkLink, UploadPolicy};
use swag_obs::{Metric, Registry};
use swag_sensors::{scenarios, SensorNoise};
use swag_server::{
    CacheConfig, CloudServer, Query, QueryOptions, RankMode, SegmentRef, ServerConfig,
};

use crate::args::{ArgParser, Spec};
use crate::{open_reader, open_writer};

/// Default camera for CLI operations.
pub(crate) fn camera() -> CameraProfile {
    CameraProfile::smartphone()
}

/// Arguments of `swag simulate`.
pub const SIMULATE_ARGS: &[&Spec] = &[&Spec {
    options: &["scenario", "seed", "duration", "out"],
    flags: &["noise"],
}];

/// `swag simulate` — generate a synthetic trace CSV.
pub fn simulate(args: ArgParser) -> Result<(), String> {
    let scenario = args.require("scenario")?.to_string();
    let seed = args.get_u64("seed", 42)?;
    let duration = args.get_f64("duration", 60.0)?;
    let noise = if args.has_flag("noise") {
        SensorNoise::smartphone()
    } else {
        SensorNoise::NONE
    };
    let trace: Vec<TimedFov> = match scenario.as_str() {
        "walk" => scenarios::walk_parallel(duration, &noise, seed),
        "strafe" => scenarios::walk_perpendicular(duration, &noise, seed),
        "rotate" => scenarios::rotate_in_place(duration, 10.0, &noise, seed),
        "drive" => scenarios::drive_straight(duration, 14.0, &noise, seed),
        "bike" => scenarios::bike_ride_with_turn(duration.max(20.0) * 2.0, 4.0, &noise, seed),
        "city" => scenarios::city_walk(seed, (duration / 60.0).ceil().max(1.0) as usize, &noise),
        other => {
            return Err(format!(
                "unknown scenario '{other}' (walk|strafe|rotate|drive|bike|city)"
            ))
        }
    };
    match args.get("out") {
        Some(path) => {
            let mut w = open_writer(path)?;
            write_trace_csv(&mut w, &trace).map_err(|e| e.to_string())?;
            w.flush().map_err(|e| e.to_string())?;
            eprintln!("wrote {} frame records to {path}", trace.len());
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            write_trace_csv(&mut stdout, &trace).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Arguments of `swag segment`.
pub const SEGMENT_ARGS: &[&Spec] = &[
    &Spec {
        options: &["in", "thresh", "out"],
        flags: &[],
    },
    &PIPELINE_ARGS,
];

/// `swag segment` — run the client pipeline over a trace CSV.
pub fn segment(args: ArgParser) -> Result<(), String> {
    let input = args.require("in")?;
    let thresh = args.get_f64("thresh", 0.5)?;
    let trace = read_trace_csv(open_reader(input)?).map_err(|e| e.to_string())?;
    if trace.is_empty() {
        return Err("trace is empty".into());
    }
    let result = run_pipeline(&args, thresh, &trace)?;
    eprintln!(
        "{} frames -> {} segments (thresh {thresh})",
        result.frames,
        result.segment_count()
    );
    for (i, rep) in result.reps.iter().enumerate() {
        eprintln!(
            "  seg {i:>3}: t [{:>8.2}, {:>8.2}] s  @ ({:.6}, {:.6}) theta {:>6.1} deg",
            rep.t_start, rep.t_end, rep.fov.p.lat, rep.fov.p.lng, rep.fov.theta
        );
    }
    if let Some(path) = args.get("out") {
        let mut w = open_writer(path)?;
        write_reps_csv(&mut w, &result.reps).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
        eprintln!("wrote representative FoVs to {path}");
    }
    Ok(())
}

/// What [`run_pipeline`] reads.
const PIPELINE_ARGS: Spec = Spec {
    options: &["smooth"],
    flags: &[],
};

fn run_pipeline(
    args: &ArgParser,
    thresh: f64,
    trace: &[TimedFov],
) -> Result<swag_client::RecordingResult, String> {
    let alpha = args.get_f64("smooth", 0.0)?;
    Ok(if alpha > 0.0 {
        ClientPipeline::process_trace_smoothed(camera(), thresh, alpha, trace)
    } else {
        ClientPipeline::process_trace(camera(), thresh, trace)
    })
}

/// Arguments of `swag ingest`.
pub const INGEST_ARGS: &[&Spec] = &[
    &Spec {
        options: &["data-dir", "thresh"],
        flags: &[],
    },
    &PIPELINE_ARGS,
];

/// `swag ingest` — segment traces into a durable data directory, created
/// if it does not exist yet.
pub fn ingest(args: ArgParser) -> Result<(), String> {
    let dir = args.require("data-dir")?;
    let thresh = args.get_f64("thresh", 0.5)?;
    if args.positionals().is_empty() {
        return Err("no trace files given".into());
    }
    let server = CloudServer::open(dir, camera(), ServerConfig::default())
        .map_err(|e| format!("cannot open data dir '{dir}': {e}"))?;

    // Continue provider numbering after existing records.
    let mut next_provider = server
        .export_records()
        .iter()
        .map(|r| r.source.provider_id + 1)
        .max()
        .unwrap_or(0);

    #[allow(clippy::explicit_counter_loop)] // starts from the directory's max id
    for path in args.positionals() {
        let trace = read_trace_csv(open_reader(path)?).map_err(|e| format!("{path}: {e}"))?;
        if trace.is_empty() {
            return Err(format!("{path}: trace is empty"));
        }
        let result = run_pipeline(&args, thresh, &trace)?;
        let reps: Vec<RepFov> = result.reps;
        for (i, rep) in reps.iter().enumerate() {
            server.ingest_one(
                *rep,
                SegmentRef {
                    provider_id: next_provider,
                    video_id: 0,
                    segment_idx: i as u32,
                },
            );
        }
        eprintln!(
            "{path}: {} frames -> {} segments as provider {next_provider}",
            result.frames,
            reps.len()
        );
        next_provider += 1;
    }

    server.quiesce();
    eprintln!("data dir {dir}: {} live segments", server.stats().segments);
    Ok(())
}

/// What [`parse_query_args`] reads.
const QUERY_SHAPE_ARGS: Spec = Spec {
    options: &["lat", "lng", "radius", "t0", "t1", "top", "tolerance"],
    flags: &["no-direction-filter", "coverage", "quality"],
};

/// Parses and validates the shared query arguments (`--lat`, `--lng`,
/// `--radius`, `--t0`, `--t1`, plus option flags) through the fallible
/// ingress path: hostile values surface as [`swag_server::QueryError`]
/// messages instead of panicking the server.
fn parse_query_args(args: &ArgParser) -> Result<(Query, QueryOptions), String> {
    let lat = args.require_f64("lat")?;
    let lng = args.require_f64("lng")?;
    let radius = args.require_f64("radius")?;
    let t0 = args.require_f64("t0")?;
    let t1 = args.require_f64("t1")?;
    let q = Query::try_new(t0, t1, LatLon::new(lat, lng), radius).map_err(|e| e.to_string())?;
    let opts = QueryOptions {
        top_n: args.get_u64("top", 10)? as usize,
        direction_filter: !args.has_flag("no-direction-filter"),
        direction_tolerance_deg: args.get_f64("tolerance", 10.0)?,
        require_coverage: args.has_flag("coverage"),
        rank: if args.has_flag("quality") {
            RankMode::Quality
        } else {
            RankMode::Distance
        },
    }
    .validated()
    .map_err(|e| e.to_string())?;
    Ok((q, opts))
}

/// What [`open_data_dir`] reads.
pub(crate) const SOURCE_ARGS: Spec = Spec {
    options: &["data-dir"],
    flags: &[],
};

/// Opens the durable data directory `dir` a query-style command operates
/// on, recovering WAL + incremental snapshot + cold tier. Unlike `swag
/// ingest`, these commands never create one: a mistyped path is an
/// error, not an empty server.
pub(crate) fn open_data_dir(dir: &str) -> Result<CloudServer, String> {
    if !std::path::Path::new(dir).is_dir() {
        return Err(format!(
            "no data dir '{dir}' (create one with 'swag ingest')"
        ));
    }
    CloudServer::open(dir, camera(), ServerConfig::default()).map_err(|e| e.to_string())
}

/// Arguments of `swag explain`.
pub const EXPLAIN_ARGS: &[&Spec] = &[
    &SOURCE_ARGS,
    &QUERY_SHAPE_ARGS,
    &Spec {
        options: &[],
        flags: &["analyze"],
    },
];

/// `swag explain` — print the typed plan a query would execute against a
/// data directory, without running it (the plan includes cold-run
/// reachability). `--analyze` instead executes the query for real and
/// annotates every operator with measured time and rows.
pub fn explain(args: ArgParser) -> Result<(), String> {
    let dir = args.require("data-dir")?;
    let (q, opts) = parse_query_args(&args)?;
    let server = open_data_dir(dir)?;
    if args.has_flag("analyze") {
        print!("{}", server.query_analyzed(0, &q, &opts).report.render());
    } else {
        print!("{}", server.explain(&q, &opts));
    }
    Ok(())
}

/// Arguments of `swag query`.
pub const QUERY_ARGS: &[&Spec] = &[
    &SOURCE_ARGS,
    &QUERY_SHAPE_ARGS,
    &Spec {
        options: &[],
        flags: &["explain", "analyze"],
    },
];

/// `swag query` — answer a spatio-temporal query from a durable data
/// directory.
pub fn query(args: ArgParser) -> Result<(), String> {
    // The directory is required before the query parses, so "which
    // directory?" errors come first (the CLI tests pin this order).
    let dir = args.require("data-dir")?;
    let (q, opts) = parse_query_args(&args)?;
    let server = open_data_dir(dir)?;

    if args.has_flag("explain") {
        print!("{}", server.explain(&q, &opts));
    }
    let hits = if args.has_flag("analyze") {
        // EXPLAIN ANALYZE: the same execution, instrumented — the report
        // is printed and the (byte-identical) hits listed below as usual.
        let analyzed = server.query_analyzed(0, &q, &opts);
        print!("{}", analyzed.report.render());
        analyzed.hits
    } else {
        server.query(&q, &opts)
    };
    println!(
        "{} hits over {} indexed segments ({} us)",
        hits.len(),
        server.stats().segments,
        server.stats().query_micros_total
    );
    for (rank, hit) in hits.iter().enumerate() {
        println!(
            "#{rank:<3} provider {:>4} video {:>3} seg {:>3}  {:>6.0} m  q={:.3}  t [{:>9.2}, {:>9.2}] s",
            hit.source.provider_id,
            hit.source.video_id,
            hit.source.segment_idx,
            hit.distance_m,
            hit.quality,
            hit.rep.t_start,
            hit.rep.t_end,
        );
    }
    Ok(())
}

/// Arguments of `swag stats`.
pub const STATS_ARGS: &[&Spec] = &[&Spec {
    options: &[
        "format",
        "seed",
        "queries",
        "threads",
        "cache",
        "shard-width",
        "retain",
        "data-dir",
    ],
    flags: &[],
}];

/// `swag stats` — run a probe workload through the instrumented pipeline
/// and render the resulting metrics.
///
/// The workload exercises every instrumented layer: a synthetic recording
/// is segmented on the client, its descriptors encoded and upload-planned
/// over a WiFi/cellular timeline, ingested by an observable server, and
/// queried around each recorded segment.
pub fn stats(args: ArgParser) -> Result<(), String> {
    let format = args.get("format").unwrap_or("pretty");
    let seed = args.get_u64("seed", 42)?;
    let n_queries = args.get_u64("queries", 32)?;
    let threads = args.get_u64("threads", 1)? as usize;
    let cache_cap = args.get_u64("cache", 0)? as usize;
    let shard_width_s = args.get_f64("shard-width", 600.0)?;
    if !(shard_width_s.is_finite() && shard_width_s > 0.0) {
        return Err("--shard-width must be positive".into());
    }
    let retain_s = match args.get("retain") {
        None => None,
        Some(raw) => {
            let h: f64 = raw.parse().map_err(|e| format!("--retain: {e}"))?;
            if !(h.is_finite() && h > 0.0) {
                return Err("--retain must be positive".into());
            }
            Some(h)
        }
    };
    let registry = Registry::new();

    // Client layer: segment a simulated city recording.
    let trace = scenarios::city_walk(seed, 3, &SensorNoise::smartphone());
    let mut pipeline = ClientPipeline::new(camera(), 0.5)
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

    // Server layer: ingest and query around every recorded segment.
    // With `--data-dir` the probe server is durable: ingests hit the
    // WAL and the durability row below reports real counters.
    let probe_config = ServerConfig {
        shard_width_s,
        retention_horizon_s: retain_s,
        cache: CacheConfig::enabled(cache_cap),
        ..ServerConfig::default()
    };
    let mut server = match args.get("data-dir") {
        Some(dir) => CloudServer::open(dir, camera(), probe_config).map_err(|e| e.to_string())?,
        None => CloudServer::with_config(camera(), probe_config),
    };
    server.set_executor(Executor::new(ExecConfig::with_threads(threads)));
    server.attach_observability(&registry);
    server.ingest_batch(&batch);
    let probes: Vec<Query> = (0..n_queries)
        .map(|i| {
            let rep = &recording.reps[i as usize % recording.reps.len()];
            Query::new(rep.t_start - 5.0, rep.t_end + 5.0, rep.fov.p, 150.0)
        })
        .collect();
    server.query_batch(&probes, &QueryOptions::default(), threads);
    if cache_cap > 0 {
        // Second pass reads warm result-cache entries, so the hit/miss
        // split in the rendered metrics reflects a steady-state mix.
        server.query_batch(&probes, &QueryOptions::default(), threads);
    }
    server.query_nearest(
        0.0,
        trace.last().map_or(60.0, |f| f.t),
        recording.reps[0].fov.p,
        3,
        &QueryOptions::default(),
        5_000.0,
    );
    // Durable probes leave a replay-free directory behind (no-op when
    // memory-only).
    server.quiesce();

    match format {
        "prometheus" => print!("{}", registry.render_prometheus()),
        "json" => print!("{}", registry.render_json()),
        "pretty" => {
            print_metrics_table(&registry);
            let s = server.stats();
            println!(
                "\nsnapshot: {} segments, {} shards ({shard_width_s} s wide), \
                 {} pending in delta, retention {}",
                s.segments,
                s.shards,
                s.pending_delta,
                retain_s.map_or("off".to_string(), |h| format!("{h} s")),
            );
            let e = server.executor().stats();
            println!(
                "executor: {} thread{} ({}), {} scoped threads spawned",
                e.threads,
                if e.threads == 1 { "" } else { "s" },
                if server.executor().is_serial() {
                    "serial"
                } else {
                    "scoped"
                },
                e.tasks,
            );
            let ch = registry.counter("swag_server_cache_hits_total").get();
            let cm = registry.counter("swag_server_cache_misses_total").get();
            println!(
                "cache: {}, {ch} hits / {cm} misses ({:.0}% hit rate)",
                if cache_cap > 0 {
                    format!("on (cap {cache_cap})")
                } else {
                    "off".to_string()
                },
                if ch + cm > 0 {
                    100.0 * ch as f64 / (ch + cm) as f64
                } else {
                    0.0
                },
            );
            match server.durability_stats() {
                Some(d) => {
                    println!(
                        "durability: on — wal {} records / {} B appended ({} B unsynced), \
                         {} snapshots ({} buckets), cold {} runs / {} segments",
                        d.wal_records,
                        d.wal_appended_bytes,
                        d.wal_lag_bytes,
                        d.snapshots_written,
                        d.snapshot_buckets_written,
                        d.cold_runs,
                        d.cold_segments,
                    );
                    println!(
                        "cold tier: {} runs pruned by zone map / {} opened, {} B resident; \
                         {} unreadable runs, {} failed demotions",
                        d.cold_runs_pruned,
                        d.cold_runs_opened,
                        d.cold_resident_bytes,
                        d.cold_run_errors,
                        d.cold_demote_errors,
                    );
                }
                None => println!("durability: off (memory-only; pass --data-dir DIR)"),
            }
        }
        other => return Err(format!("unknown format '{other}' (pretty|prometheus|json)")),
    }
    Ok(())
}

fn print_metrics_table(registry: &Registry) {
    println!(
        "{:<44} {:>10} {:>10} {:>8} {:>8} {:>8} {:>10}",
        "metric", "count", "mean", "p50", "p90", "p99", "max"
    );
    for name in registry.names() {
        match registry.get(&name) {
            Some(Metric::Counter(c)) => println!("{name:<44} {:>10}", c.get()),
            Some(Metric::Gauge(g)) => println!("{name:<44} {:>10}", g.get()),
            Some(Metric::Histogram(h)) => {
                let s = h.snapshot();
                println!(
                    "{name:<44} {:>10} {:>10.1} {:>8} {:>8} {:>8} {:>10}",
                    s.count,
                    s.mean(),
                    s.p50(),
                    s.p90(),
                    s.p99(),
                    s.max
                );
            }
            None => {}
        }
    }
}

/// Arguments of `swag export`.
pub const EXPORT_ARGS: &[&Spec] = &[&Spec {
    options: &["in", "geojson"],
    flags: &[],
}];

/// `swag export` — convert a trace CSV to GeoJSON for map viewers.
pub fn export(args: ArgParser) -> Result<(), String> {
    let input = args.require("in")?;
    let output = args.require("geojson")?;
    let trace = read_trace_csv(open_reader(input)?).map_err(|e| e.to_string())?;
    let json = swag::geojson::trace_to_geojson(&trace);
    std::fs::write(output, json).map_err(|e| format!("cannot write '{output}': {e}"))?;
    eprintln!("wrote {} frame records as GeoJSON to {output}", trace.len());
    Ok(())
}

/// Arguments of `swag simplify`.
pub const SIMPLIFY_ARGS: &[&Spec] = &[&Spec {
    options: &["in", "out", "tolerance"],
    flags: &[],
}];

/// `swag simplify` — Douglas-Peucker-simplify a trace's path (positions
/// only; timestamps/azimuths of the kept vertices are preserved).
pub fn simplify(args: ArgParser) -> Result<(), String> {
    let input = args.require("in")?;
    let output = args.require("out")?;
    let tolerance = args.get_f64("tolerance", 5.0)?;
    if tolerance < 0.0 {
        return Err("--tolerance must be non-negative".into());
    }
    let trace = read_trace_csv(open_reader(input)?).map_err(|e| e.to_string())?;
    let path = Trajectory::new(trace.iter().map(|f| f.fov.p).collect());
    let kept = path.simplify_m(tolerance);

    // Map kept vertices back to their original frame records, in order.
    let mut kept_iter = kept.points().iter().peekable();
    let simplified: Vec<TimedFov> = trace
        .iter()
        .filter(|f| {
            if kept_iter
                .peek()
                .is_some_and(|&&k| k.distance_m(f.fov.p) < 1e-6)
            {
                kept_iter.next();
                true
            } else {
                false
            }
        })
        .copied()
        .collect();

    let mut w = open_writer(output)?;
    write_trace_csv(&mut w, &simplified).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "{} -> {} vertices at {tolerance} m tolerance ({:.1}x smaller)",
        trace.len(),
        simplified.len(),
        trace.len() as f64 / simplified.len().max(1) as f64
    );
    Ok(())
}
