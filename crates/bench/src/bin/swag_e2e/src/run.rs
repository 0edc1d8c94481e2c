//! One run of one workload: set-up, the write half, the read half, the
//! oracle, and the metrics computed from what they recorded.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use swag_core::CameraProfile;
use swag_exec::{ExecConfig, Executor};
use swag_obs::{Metric, Registry};

use crate::read_path::{closed_loop, live_writer, oracle_check, Probe, ReadAcc};
use crate::spec::{Spec, END_TO_END, PER_LAYER, QUERY_BLOCK, SERVER_THREADS};
use crate::stats::{counter, median, nproc, percentile_sorted, rss_peak_mb, Latencies};
use crate::tracer::{LayerTime, Tracer};
use crate::workload::Inputs;
use crate::write_path::{decode_all, records_of, write_rep, Acc, Ctx, Rep};

/// Set-up is run this many times; the median is `setup_s`.
const SETUP_REPS: usize = 5;

pub struct RunArgs {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// One reported number and how many samples stand behind it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: u64,
}

pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub input_digest: u64,
    pub write_reps: usize,
    /// Traced runs: per-span-name totals, and where the spans went.
    pub layers: Vec<LayerTime>,
    pub trace_file: Option<PathBuf>,
}

/// Removes the run's data dirs however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn run(args: &RunArgs, out_dir: &std::path::Path) -> Result<Outcome, String> {
    let spec = &args.spec;
    let live_batches = spec.writer_batches_per_s.map_or(0, |rate| {
        (rate * (args.seconds / spec.cycles as f64 + 1.0)).ceil() as usize
    });

    // Set-up: everything derived from the seed, before any server exists.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(Inputs::generate(spec, args.seed, live_batches));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("SETUP_REPS > 0");
    let input_digest = inputs.digest();

    let scratch = Scratch(out_dir.join(format!("scratch-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("create {:?}: {e}", scratch.0))?;

    let origin = Instant::now();
    let mut tr = Tracer::new(args.trace, 1 << 20, origin);
    let mut acc = Acc::new();
    let registry = Registry::new();
    let ctx = Ctx {
        spec,
        seed: args.seed,
        cam: CameraProfile::smartphone(),
        inputs: &inputs,
        scratch: &scratch.0,
        exec: Executor::new(ExecConfig::with_threads(SERVER_THREADS.min(nproc()))),
        registry: &registry,
        trace: args.trace,
    };
    let background = decode_all(inputs.background.iter().map(|a| &a.wire), &mut acc);

    // `cycles` times: the write half on a fresh server, then the read
    // half on that server for the rest of the cycle's share of
    // `--seconds`. Interleaving spreads every metric's samples over the
    // whole run (a noisy second on a shared host then moves no median)
    // and over several heap layouts of the same index.
    let cycle_budget = Duration::from_secs_f64(args.seconds / spec.cycles as f64);
    let mut r = ReadAcc::new(spec.pool);
    let mut ingest_late = Latencies::with_capacity(1 << 17);
    let mut generator_late = Latencies::with_capacity(1 << 17);
    let mut last: Option<(Rep, usize)> = None;
    for cycle in 0..spec.cycles {
        if let Some((rep, _)) = last.take() {
            rep.discard();
        }
        let measured_before = acc.measured_ns;
        let rep = write_rep(&ctx, cycle, &background, &mut tr, &mut acc)
            .map_err(|e| format!("store error in write path: {e}"))?;
        let probe = args.trace.then(|| Probe::of(&rep.server));
        let slice =
            cycle_budget.saturating_sub(Duration::from_nanos(acc.measured_ns - measured_before));
        // Only the last cycle's server outlives the loop to face the oracle.
        r.kept.clear();
        let mut sent = 0;
        match spec.writer_batches_per_s {
            None => closed_loop(
                &ctx,
                &rep.server,
                probe.as_ref(),
                false,
                |elapsed| elapsed >= slice,
                &mut tr,
                &mut acc,
                &mut r,
            ),
            Some(rate) => {
                let deadline = Instant::now() + slice;
                let mut writer_tr = Tracer::new(args.trace, 1 << 15, origin);
                let errors;
                (sent, errors) = std::thread::scope(|s| {
                    let writer = s.spawn(|| {
                        live_writer(
                            &ctx,
                            &rep.server,
                            rate,
                            deadline,
                            &mut ingest_late,
                            &mut generator_late,
                            &mut writer_tr,
                        )
                    });
                    closed_loop(
                        &ctx,
                        &rep.server,
                        probe.as_ref(),
                        true,
                        |_| Instant::now() >= deadline,
                        &mut tr,
                        &mut acc,
                        &mut r,
                    );
                    writer.join().expect("writer thread panicked")
                });
                tr.absorb(writer_tr);
                acc.attempted += sent as u64;
                acc.decode_errors += errors;
                for _ in 0..errors {
                    acc.fail("live batch does not decode".into());
                }
            }
        }
        last = Some((rep, sent));
    }
    drop(background);
    let (mut rep, sent) = last.expect("every workload runs at least one cycle");

    let mut expected = std::mem::take(&mut rep.expected);
    expected.extend(records_of(&decode_all(
        inputs.live[..sent].iter(),
        &mut acc,
    )));
    rep.server.quiesce();
    oracle_check(
        &ctx,
        &rep.server,
        expected,
        &r.kept,
        spec.writer_batches_per_s.is_some(),
        &mut acc,
    );

    // Counters the server keeps about itself, read before it goes away.
    if spec.observability {
        rep.server.refresh_gauges(&registry);
    }
    let exec_stats = ctx.exec.stats();
    let events = rep.server.event_log().map_or(0, |log| log.stats().pushed);
    let cache_entries = match registry.get("swag_server_cache_entries") {
        Some(Metric::Gauge(g)) => g.get().max(0) as f64,
        _ => 0.0,
    };
    rep.discard();

    let layers = tr.layer_times();
    let mut trace_file = None;
    if args.trace {
        let path = out_dir.join(format!(
            "{}{}.trace.json",
            spec.name,
            if args.smoke { ".smoke" } else { "" }
        ));
        let file = std::fs::File::create(&path).map_err(|e| format!("create {path:?}: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        tr.write_json(&mut w)
            .and_then(|()| std::io::Write::flush(&mut w))
            .map_err(|e| format!("write {path:?}: {e}"))?;
        trace_file = Some(path);
    }

    let light = r.lat[0].sorted();
    let heavy = r.lat[1].sorted();
    let mut all = [light.as_slice(), heavy.as_slice()].concat();
    all.sort_unstable();
    let block_median_s = median(&r.block_s);

    let mut m: Vec<(&'static str, f64, u64)> = Vec::new();
    if !args.trace {
        let p = |sorted: &[u32], q: f64| (percentile_sorted(sorted, q) / 1e3, sorted.len() as u64);
        let passes = &acc.pass_frames_per_s;
        let (all_p50, all_p99) = (p(&all, 50.0), p(&all, 99.0));
        let (light_p50, heavy_p50) = (p(&light, 50.0), p(&heavy, 50.0));
        m.extend([
            ("setup_s", median(&setup_s), setup_s.len() as u64),
            ("client_frames_per_s", median(passes), passes.len() as u64),
            (
                "upload_bytes_per_video_s",
                ratio(acc.wire_bytes as f64, acc.video_s),
                acc.uploads,
            ),
            (
                "ingest_segments_per_s",
                median(&acc.ingest_rates),
                acc.ingest_rates.len() as u64,
            ),
            (
                "queries_per_s",
                ratio(QUERY_BLOCK as f64, block_median_s),
                r.block_s.len() as u64,
            ),
            ("query_p50_us", all_p50.0, all_p50.1),
            ("query_light_p50_us", light_p50.0, light_p50.1),
            ("query_heavy_p50_us", heavy_p50.0, heavy_p50.1),
            ("query_p99_us", all_p99.0, all_p99.1),
            ("rss_peak_mb", rss_peak_mb(), 1),
        ]);
    } else {
        let d = &r.decomp;
        let n_dec = (d.n[0] + d.n[1]) as f64;
        let segs = acc.ingested_segments as f64;
        let batch_sorted = if ingest_late.len() > 0 {
            ingest_late.sorted()
        } else {
            acc.batch_lat.sorted()
        };
        let cache_hits = counter(&registry, "swag_server_cache_hits_total") as f64;
        let cache_misses = counter(&registry, "swag_server_cache_misses_total") as f64;
        let write_ns = (if acc.twin_ns > 0 {
            acc.twin_ns
        } else {
            acc.ingest_ns
        }) as f64;
        m.extend([
            (
                "client.pipeline.busy_ns_per_frame",
                ratio(acc.pipeline_ns as f64, acc.frames as f64),
                acc.frames,
            ),
            ("client.pipeline.frames", acc.last_rep.frames as f64, 1),
            (
                "client.pipeline.segments_out",
                acc.last_rep.segments as f64,
                1,
            ),
            (
                "client.pipeline.frames_per_segment",
                ratio(acc.frames as f64, acc.segments as f64),
                acc.segments,
            ),
            (
                "client.upload.busy_ns_per_segment",
                ratio(acc.upload_ns as f64, acc.segments as f64),
                acc.uploads,
            ),
            (
                "client.upload.wire_bytes",
                acc.last_rep.wire_bytes as f64,
                1,
            ),
            ("client.upload.codec_errors", acc.codec_errors as f64, 1),
            (
                "net.scheduler.busy_ns_per_upload",
                ratio(acc.plan_ns as f64, acc.uploads as f64),
                acc.uploads,
            ),
            (
                "net.scheduler.deferred_share",
                100.0 * ratio(acc.deferred as f64, acc.uploads as f64),
                acc.uploads,
            ),
            (
                "core.descriptor.decode_ns_per_segment",
                ratio(acc.decode_ns as f64, segs),
                acc.batches,
            ),
            ("core.descriptor.decode_errors", acc.decode_errors as f64, 1),
            (
                "server.write.busy_ns_per_segment",
                ratio(write_ns, segs),
                acc.batches,
            ),
            ("server.write.batches", acc.last_rep.batches as f64, 1),
            ("server.write.publishes", acc.publishes as f64, 1),
            (
                "server.write.publish_p99_us",
                acc.publish_p99_us,
                acc.publishes,
            ),
            (
                "server.write.wall_segments_per_s",
                median(&acc.ingest_rates),
                acc.ingest_rates.len() as u64,
            ),
            (
                "server.write.ingest_p99_us",
                percentile_sorted(&batch_sorted, 99.0) / 1e3,
                batch_sorted.len() as u64,
            ),
            (
                "store.wal.busy_ns_per_segment",
                if spec.durable {
                    ratio((acc.ingest_ns as f64 - acc.twin_ns as f64).max(0.0), segs)
                } else {
                    0.0
                },
                acc.batches,
            ),
            ("store.wal.records", acc.last_rep.wal_records as f64, 1),
            (
                "store.wal.bytes_per_segment",
                ratio(acc.wal_bytes as f64, acc.wal_records as f64),
                acc.wal_records,
            ),
            (
                "store.wal.lag_bytes_max",
                acc.wal_lag_max as f64,
                acc.batches / 32,
            ),
            (
                "store.snapshot.quiesce_ms",
                median(&acc.quiesce_ms),
                acc.quiesce_ms.len() as u64,
            ),
            (
                "store.snapshot.snapshots_written",
                acc.snapshots_written as f64,
                1,
            ),
            (
                "store.snapshot.buckets_rewritten",
                acc.buckets_rewritten as f64,
                1,
            ),
            ("store.snapshot.bytes_on_disk", acc.snapshot_bytes as f64, 1),
            (
                "store.snapshot.disk_bytes_per_segment",
                ratio(acc.disk_bytes as f64, acc.live_segments as f64),
                1,
            ),
            (
                "store.recovery.open_ms",
                median(&acc.open_ms),
                acc.open_ms.len() as u64,
            ),
            ("store.recovery.segments_recovered", acc.recovered as f64, 1),
            (
                "store.recovery.ns_per_segment",
                ratio(median(&acc.open_ms) * 1e6, acc.recovered as f64),
                acc.open_ms.len() as u64,
            ),
            ("store.cold.runs", acc.cold_runs as f64, 1),
            ("store.cold.segments", acc.cold_segments as f64, 1),
            ("store.cold.bytes_on_disk", acc.cold_bytes as f64, 1),
            (
                "store.cold.rows_scanned_per_query_recent",
                ratio(d.cold_rows[0] as f64, d.cold_n[0] as f64),
                d.cold_n[0],
            ),
            (
                "store.cold.rows_scanned_per_query_historical",
                ratio(d.cold_rows[1] as f64, d.cold_n[1] as f64),
                d.cold_n[1],
            ),
            (
                "store.cold.rows_scanned_per_hit",
                ratio((d.cold_rows[0] + d.cold_rows[1]) as f64, d.cold_hits as f64),
                d.cold_hits,
            ),
            (
                "store.cold.scan_us_per_query",
                ratio(d.cold_us as f64, (d.cold_n[0] + d.cold_n[1]) as f64),
                d.cold_n[0] + d.cold_n[1],
            ),
            (
                "server.plan.compile_ns",
                ratio(d.plan_ns as f64, n_dec),
                n_dec as u64,
            ),
            (
                "server.shard.scan_ns_light",
                ratio(d.scan_ns[0] as f64, d.n[0] as f64),
                d.n[0],
            ),
            (
                "server.shard.scan_ns_heavy",
                ratio(d.scan_ns[1] as f64, d.n[1] as f64),
                d.n[1],
            ),
            (
                "server.shard.shards_probed_per_query",
                ratio(d.shards_probed as f64, n_dec),
                n_dec as u64,
            ),
            (
                "server.shard.candidates_per_query",
                ratio(d.candidates as f64, n_dec),
                n_dec as u64,
            ),
            (
                "rtree.search.nodes_visited_per_query",
                ratio(d.search.nodes_visited as f64, n_dec),
                n_dec as u64,
            ),
            (
                "rtree.search.items_tested_per_match",
                ratio(d.search.items_tested as f64, d.search.items_matched as f64),
                d.search.items_matched,
            ),
            (
                "server.ranking.rank_ns_light",
                ratio(d.rank_ns[0] as f64, d.n[0] as f64),
                d.n[0],
            ),
            (
                "server.ranking.rank_ns_heavy",
                ratio(d.rank_ns[1] as f64, d.n[1] as f64),
                d.n[1],
            ),
            (
                "server.ranking.ns_per_candidate",
                ratio((d.rank_ns[0] + d.rank_ns[1]) as f64, d.candidates as f64),
                d.candidates,
            ),
            (
                "server.ranking.hits_per_candidate",
                100.0 * ratio(d.hits as f64, d.candidates as f64),
                d.candidates,
            ),
            (
                "server.engine.whole_ns_light",
                ratio(d.whole_ns[0] as f64, d.n[0] as f64),
                d.n[0],
            ),
            (
                "server.engine.whole_ns_heavy",
                ratio(d.whole_ns[1] as f64, d.n[1] as f64),
                d.n[1],
            ),
            (
                "server.engine.residual_ns",
                ratio(d.residual_ns as f64, n_dec),
                n_dec as u64,
            ),
            (
                "server.engine.delta_rows_per_query",
                ratio(d.delta_rows as f64, d.analyzed as f64),
                d.analyzed,
            ),
            (
                "server.cache.hit_share",
                100.0 * ratio(cache_hits, cache_hits + cache_misses),
                (cache_hits + cache_misses) as u64,
            ),
            (
                "server.cache.evictions",
                counter(&registry, "swag_server_cache_evictions_total") as f64,
                1,
            ),
            ("server.cache.entries", cache_entries, 1),
            ("exec.tasks", exec_stats.tasks as f64, 1),
            ("exec.steals", exec_stats.steals as f64, 1),
            ("obs.events_recorded", events as f64, 1),
            (
                "obs.trace_overhead_pct",
                100.0 * (ratio(median(&r.traced_block_s), median(&r.plain_block_s)) - 1.0),
                r.traced_block_s.len().min(r.plain_block_s.len()) as u64,
            ),
            (
                "bench.generator_late_p99_us",
                percentile_sorted(&generator_late.sorted(), 99.0) / 1e3,
                generator_late.len() as u64,
            ),
            ("bench.spans_recorded", tr.len() as f64, 1),
        ]);
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for def in table {
        let Some(&(_, value, n)) = m.iter().find(|(name, ..)| *name == def.name) else {
            return Err(format!("metric {} was not computed", def.name));
        };
        if !value.is_finite() {
            acc.fail(format!("metric {} is not finite", def.name));
        }
        metrics.push(Sample {
            name: def.name,
            unit: def.unit,
            value,
            n,
        });
    }
    if tr.dropped > 0 {
        acc.fail(format!("{} spans did not fit the trace buffer", tr.dropped));
    }
    Ok(Outcome {
        metrics,
        attempted: acc.attempted.max(1),
        failed: acc.failed,
        failures: acc.failures,
        input_digest,
        write_reps: spec.cycles,
        layers,
        trace_file,
    })
}
