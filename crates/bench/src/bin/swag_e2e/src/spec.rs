//! The benchmark's frozen definition: the four workloads (sizes, rates
//! and server configuration are constants here, never derived from the
//! clock) and the two metric tables. `BENCHMARK.json` at the repo root is
//! the driver-facing copy of the names, units and bounds; a unit test
//! pins the two together.

/// One query class of a workload's pool.
#[derive(Debug, Clone, Copy)]
pub struct QueryClass {
    /// Human name of the class in this workload (README table).
    pub name: &'static str,
    pub radius_m: f64,
    pub window_s: f64,
    pub top_n: usize,
}

/// Where a query class anchors its window in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Era {
    /// Anywhere data exists.
    Any,
    /// Inside the live retention horizon (the newest `x` seconds).
    Recent(f64),
    /// Uniform over everything older than the newest `x` seconds.
    Older(f64),
    /// Around the preloaded horizon: `back_s` behind it and `ahead_s`
    /// past it, where the live writer lands while the run goes on.
    Live { back_s: f64, ahead_s: f64 },
}

/// A workload: one operating point of the same end-to-end path.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One-sentence reason (also the `why` in `BENCHMARK.json`).
    pub why: &'static str,
    /// Provider traces in the fleet (each 60–180 s at 25 fps).
    pub fleet_traces: usize,
    /// Times the fleet is replayed per record stage (one pass = one
    /// virtual hour, positions and `t` shifted per pass).
    pub fleet_passes: usize,
    /// Synthetic citywide segments preloaded before the fleet arrives.
    pub background: usize,
    /// Virtual time the background spans, seconds.
    pub background_span_s: f64,
    /// `CloudServer::open` on a scratch dir (true) or memory-only.
    pub durable: bool,
    pub shard_width_s: f64,
    pub retention_horizon_s: Option<f64>,
    /// Result-cache capacity (0 = off).
    pub cache_capacity: usize,
    /// Registry attached + wide-event log on (the `swag serve` setup).
    pub observability: bool,
    /// A run is this many cycles of (write path on a fresh server, then
    /// queries on it for the rest of the cycle's equal share of
    /// `--seconds`), so every figure is a median over samples spread
    /// across the whole run and several instances of the same state.
    pub cycles: usize,
    /// Times the data dir is reopened (and verified) per repetition;
    /// the median open time is the recovery figure.
    pub reopens: usize,
    /// Distinct queries in the pool.
    pub pool: usize,
    pub light: QueryClass,
    pub light_era: Era,
    pub heavy: QueryClass,
    pub heavy_era: Era,
    /// One heavy query per this many queries.
    pub heavy_every: usize,
    /// `Some(s)`: draw pool entries zipfian with exponent `s`;
    /// `None`: walk a seeded permutation.
    pub zipf_s: Option<f64>,
    /// Open-loop writer beside the reader: 20-segment batches per second.
    pub writer_batches_per_s: Option<f64>,
}

/// Segments per synthetic (background / live-writer) upload batch.
pub const SYNTH_BATCH: usize = 20;
/// Virtual seconds one fleet pass occupies.
pub const PASS_SPAN_S: f64 = 3600.0;
/// Sensor rate of every fleet trace.
pub const FPS: f64 = 25.0;
/// Alg. 1 similarity threshold used by every client.
pub const SEGMENT_THRESH: f64 = 0.5;
/// Half-extent of the city square, metres.
pub const CITY_EXTENT_M: f64 = 5_000.0;
/// Longest a provider waits for WiFi before falling back to cellular.
pub const WIFI_MAX_DELAY_S: f64 = 1_800.0;
/// Worker threads of the server's executor (also exported as
/// `SWAG_EXEC_THREADS`, which sizes the process-wide pool recovery runs
/// on before a server can be handed its own executor).
///
/// Pinned to 1 — the serial executor — although the reference host has
/// 2 cores: with 2 workers `mixed_live` died with SIGSEGV in 4 of 37
/// full runs while this benchmark was written. `swag_exec`'s
/// `Pool::wait` returns as soon as the latch count reads zero, while the
/// worker that brought it to zero is still inside `CountLatch::set_one`
/// (lock + notify) on a latch that lives in the returning coordinator's
/// stack frame. The benchmark may not fix the program and needs
/// workloads on which nothing fails; `exec.tasks` / `exec.steals` stay 0
/// until a later change fixes the latch and raises this constant.
pub const SERVER_THREADS: usize = 1;
/// Queries per throughput block (a whole number of class patterns).
pub const QUERY_BLOCK: usize = 200;
/// One in this many queries is decomposed (trace runs) / oracle-checked.
pub const SAMPLE_EVERY: usize = 16;

const NARROW: QueryClass = QueryClass {
    name: "narrow",
    radius_m: 50.0,
    window_s: 300.0,
    top_n: 10,
};

const WIDE: QueryClass = QueryClass {
    name: "wide",
    radius_m: 1_000.0,
    window_s: 7_200.0,
    top_n: 50,
};

pub const FLEET_INGEST: Spec = Spec {
    name: "fleet_ingest",
    why: "Write path: 240 sensor traces x 8 passes through Alg.1, codec, WiFi-deferred (out-of-order) arrival into a fresh durable server, reopened; repeated. Closed loop, 1 thread. Queries: a short tail.",
    fleet_traces: 240,
    fleet_passes: 8,
    background: 0,
    background_span_s: 0.0,
    durable: true,
    shard_width_s: 600.0,
    retention_horizon_s: None,
    cache_capacity: 0,
    observability: false,
    cycles: 10,
    reopens: 1,
    pool: 20_000,
    light: NARROW,
    light_era: Era::Any,
    // The fleet films in clumps (one 3 km cell per pass); a disc much
    // smaller than a clump sees a steadier candidate count than the
    // citywide 1 km class would.
    heavy: QueryClass {
        name: "wide",
        radius_m: 500.0,
        window_s: 3_600.0,
        top_n: 50,
    },
    heavy_era: Era::Any,
    heavy_every: 10,
    zipf_s: None,
    writer_batches_per_s: None,
};

pub const QUERY_CITY: Spec = Spec {
    name: "query_city",
    why: "Read path, disabled path: 400k citywide segments bulk-loaded memory-only, cache/events/registry off; 1 closed-loop client, 9 narrow (50 m, 5 min) : 1 wide (1 km, 2 h) over 20k distinct queries.",
    fleet_traces: 240,
    fleet_passes: 2,
    background: 400_000,
    background_span_s: 86_400.0,
    durable: false,
    shard_width_s: 600.0,
    retention_horizon_s: None,
    cache_capacity: 0,
    observability: false,
    cycles: 4,
    reopens: 0,
    pool: 20_000,
    light: NARROW,
    light_era: Era::Any,
    heavy: WIDE,
    heavy_era: Era::Any,
    heavy_every: 10,
    zipf_s: None,
    writer_batches_per_s: None,
};

pub const HISTORY_COLD: Spec = Spec {
    name: "history_cold",
    why: "Cold tier: 100k segments over 30 virtual days, 3-day retention demotes ~90% into ~370 cold runs; 1 closed-loop client, 4 recent (live horizon) : 1 historical (demoted past) queries, 200 m, 30 min.",
    fleet_traces: 240,
    fleet_passes: 2,
    background: 100_000,
    background_span_s: 30.0 * 86_400.0,
    durable: true,
    shard_width_s: 3.0 * 3_600.0,
    retention_horizon_s: Some(3.0 * 86_400.0),
    cache_capacity: 0,
    observability: false,
    cycles: 4,
    reopens: 5,
    pool: 10_000,
    light: QueryClass {
        name: "recent",
        radius_m: 200.0,
        window_s: 1_800.0,
        top_n: 10,
    },
    light_era: Era::Recent(2.0 * 86_400.0),
    heavy: QueryClass {
        name: "historical",
        radius_m: 200.0,
        window_s: 1_800.0,
        top_n: 10,
    },
    heavy_era: Era::Older(4.0 * 86_400.0),
    heavy_every: 5,
    zipf_s: None,
    writer_batches_per_s: None,
};

/// One virtual hour of preloaded data plus the 75 minutes the writer
/// covers in a cycle's ~2.5 s at its frozen rate (5 000 segments/s at
/// 2.8 segments per virtual second).
const LIVE_ERA: Era = Era::Live {
    back_s: 3_600.0,
    ahead_s: 4_500.0,
};

pub const MIXED_LIVE: Spec = Spec {
    name: "mixed_live",
    why: "Reads beside writes, enabled path: durable, 60k preloaded, cache 512 < pool 2048, registry+events on; open-loop writer 250 x 20-seg batches/s; closed-loop zipf(1.1) reader, 9 narrow : 1 uncached wide.",
    fleet_traces: 240,
    fleet_passes: 2,
    background: 60_000,
    background_span_s: 6.0 * 3_600.0,
    durable: true,
    shard_width_s: 600.0,
    retention_horizon_s: None,
    cache_capacity: 512,
    observability: true,
    cycles: 4,
    reopens: 1,
    pool: 2_048,
    light: NARROW,
    light_era: LIVE_ERA,
    // "Everything filmed here so far": a day-long window spans 144 shard
    // buckets, past the cache's 64-bucket cap, so this class is never
    // cached and its median is an executed query beside the writer
    // whatever the hit share of the other class; and every such query
    // covers all the data, so under zipf the few hot ones cost alike.
    heavy: QueryClass {
        name: "wide-uncached",
        radius_m: 500.0,
        window_s: 86_400.0,
        top_n: 50,
    },
    heavy_era: LIVE_ERA,
    heavy_every: 10,
    zipf_s: Some(1.1),
    writer_batches_per_s: Some(250.0),
};

pub const WORKLOADS: [&Spec; 4] = [&FLEET_INGEST, &QUERY_CITY, &HISTORY_COLD, &MIXED_LIVE];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// A copy with every size divided by 20 (the `--smoke` scale: seconds,
    /// for CI and tests; results are flagged and written elsewhere).
    pub fn smoke(&self) -> Spec {
        let mut s = *self;
        s.fleet_traces = (s.fleet_traces / 8).max(8);
        s.fleet_passes = s.fleet_passes.min(2);
        s.background /= 20;
        s.pool = (s.pool / 8).max(64);
        s.cache_capacity /= 8;
        s
    }

    /// Virtual time at which the fleet's first pass starts: the fleet is
    /// contemporaneous with the newest end of the background.
    pub fn fleet_t0(&self) -> f64 {
        (self.background_span_s - self.fleet_passes as f64 * PASS_SPAN_S).max(0.0)
    }

    /// Newest virtual time any preloaded data reaches.
    pub fn horizon_s(&self) -> f64 {
        self.fleet_t0() + self.fleet_passes as f64 * PASS_SPAN_S
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric definition; `bound` is `Some` for end-to-end metrics only.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    /// Counts that must repeat exactly on the same seed in
    /// single-client workloads (`--check-repeat`).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: measured with tracing off, printed by every
/// workload (the driver's contract), each with its regression bound.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("client_frames_per_s", "frames/s", Higher, 0.2),
    MetricDef {
        exact: true,
        ..e2e("upload_bytes_per_video_s", "B/s", Lower, 0.1)
    },
    e2e("ingest_segments_per_s", "segments/s", Higher, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("query_light_p50_us", "us", Lower, 0.25),
    e2e("query_heavy_p50_us", "us", Lower, 0.25),
    e2e("query_p99_us", "us", Lower, 0.25),
    e2e("rss_peak_mb", "MB", Lower, 0.15),
];

/// Per-layer metrics: from the `--trace 1` run, no bound. Layer =
/// crate.module; every workload prints all of them, zero where the layer
/// is idle (which is itself the prediction for that workload).
pub const PER_LAYER: &[MetricDef] = &[
    layer("client.pipeline.busy_ns_per_frame", "ns", Lower),
    exact("client.pipeline.frames", "count", Higher),
    exact("client.pipeline.segments_out", "count", Higher),
    layer("client.pipeline.frames_per_segment", "frames", Higher),
    layer("client.upload.busy_ns_per_segment", "ns", Lower),
    exact("client.upload.wire_bytes", "B", Lower),
    exact("client.upload.codec_errors", "count", Lower),
    layer("net.scheduler.busy_ns_per_upload", "ns", Lower),
    exact("net.scheduler.deferred_share", "%", Lower),
    layer("core.descriptor.decode_ns_per_segment", "ns", Lower),
    exact("core.descriptor.decode_errors", "count", Lower),
    layer("server.write.busy_ns_per_segment", "ns", Lower),
    exact("server.write.batches", "count", Higher),
    layer("server.write.publishes", "count", Lower),
    layer("server.write.publish_p99_us", "us", Lower),
    layer("server.write.wall_segments_per_s", "segments/s", Higher),
    layer("server.write.ingest_p99_us", "us", Lower),
    layer("store.wal.busy_ns_per_segment", "ns", Lower),
    exact("store.wal.records", "count", Lower),
    exact("store.wal.bytes_per_segment", "B", Lower),
    layer("store.wal.lag_bytes_max", "B", Lower),
    layer("store.snapshot.quiesce_ms", "ms", Lower),
    layer("store.snapshot.snapshots_written", "count", Lower),
    layer("store.snapshot.buckets_rewritten", "count", Lower),
    layer("store.snapshot.bytes_on_disk", "B", Lower),
    layer("store.snapshot.disk_bytes_per_segment", "B", Lower),
    layer("store.recovery.open_ms", "ms", Lower),
    exact("store.recovery.segments_recovered", "count", Higher),
    layer("store.recovery.ns_per_segment", "ns", Lower),
    exact("store.cold.runs", "count", Lower),
    exact("store.cold.segments", "count", Higher),
    layer("store.cold.bytes_on_disk", "B", Lower),
    layer("store.cold.rows_scanned_per_query_recent", "rows", Lower),
    layer(
        "store.cold.rows_scanned_per_query_historical",
        "rows",
        Lower,
    ),
    layer("store.cold.rows_scanned_per_hit", "rows", Lower),
    layer("store.cold.scan_us_per_query", "us", Lower),
    layer("server.plan.compile_ns", "ns", Lower),
    layer("server.shard.scan_ns_light", "ns", Lower),
    layer("server.shard.scan_ns_heavy", "ns", Lower),
    layer("server.shard.shards_probed_per_query", "count", Lower),
    layer("server.shard.candidates_per_query", "count", Lower),
    layer("rtree.search.nodes_visited_per_query", "count", Lower),
    layer("rtree.search.items_tested_per_match", "count", Lower),
    layer("server.ranking.rank_ns_light", "ns", Lower),
    layer("server.ranking.rank_ns_heavy", "ns", Lower),
    layer("server.ranking.ns_per_candidate", "ns", Lower),
    layer("server.ranking.hits_per_candidate", "%", Higher),
    layer("server.engine.whole_ns_light", "ns", Lower),
    layer("server.engine.whole_ns_heavy", "ns", Lower),
    layer("server.engine.residual_ns", "ns", Lower),
    layer("server.engine.delta_rows_per_query", "rows", Lower),
    layer("server.cache.hit_share", "%", Higher),
    layer("server.cache.evictions", "count", Lower),
    layer("server.cache.entries", "count", Higher),
    layer("exec.tasks", "count", Lower),
    layer("exec.steals", "count", Lower),
    layer("obs.events_recorded", "count", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
    layer("bench.generator_late_p99_us", "us", Lower),
    layer("bench.spans_recorded", "count", Lower),
];

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 12;

/// `BENCHMARK.json`, generated from the tables above so the driver's
/// copy cannot drift from what the program prints
/// (`swag_e2e --benchmark-json > BENCHMARK.json`).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|s| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why))
        .collect();
    let metric = |m: &MetricDef| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    let end_to_end: Vec<String> = END_TO_END.iter().map(metric).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"crates/bench/src/bin/swag_e2e/Cargo.toml\", \"--\"],\n  \"paths\": [\"crates/bench/src/bin/swag_e2e\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_generated_one() {
        let committed = include_str!("../../../../../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `swag_e2e --benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_tables_fit_the_drivers_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(benchmark_json().len() <= 64 * 1024);
        for s in WORKLOADS {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
            assert_eq!(QUERY_BLOCK % s.heavy_every, 0, "{}", s.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
