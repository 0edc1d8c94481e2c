//! The write half of a run: sensor frames → `ClientPipeline` /
//! `Uploader` → `plan_uploads` arrival order → `decode_batch` →
//! `ingest_batch` (WAL, delta, publish, snapshot, cold demotion) →
//! `quiesce` → reopen and verify.

use std::path::{Path, PathBuf};
use std::time::Instant;

use bytes::Bytes;
use swag_client::{ClientPipeline, Uploader};
use swag_core::{CameraProfile, DescriptorCodec, Fov, RepFov, TimedFov, UploadBatch};
use swag_exec::Executor;
use swag_geo::LatLon;
use swag_net::{plan_uploads, DataPlan, NetworkLink, UploadPolicy};
use swag_obs::{Metric, Registry};
use swag_server::{CacheConfig, CloudServer, EventLogConfig, SegmentRef, ServerConfig, StoreError};

use crate::spec::{Spec, SEGMENT_THRESH, WIFI_MAX_DELAY_S};
use crate::stats::{counter, dir_bytes, Latencies};
use crate::tracer::Tracer;
use crate::workload::{record_key, Arrival, Inputs, RecordKey};

/// What a run is made of, shared by both halves.
pub struct Ctx<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub cam: CameraProfile,
    pub inputs: &'a Inputs,
    /// Root of this run's data dirs (under `target/`, removed on exit).
    pub scratch: &'a Path,
    /// The server's executor, clamped to the host's cores.
    pub exec: Executor,
    /// Attached to the primary server when the workload runs the
    /// enabled path.
    pub registry: &'a Registry,
    pub trace: bool,
}

/// Sums and samples the metrics are computed from.
#[derive(Default)]
pub struct Acc {
    // client
    pub pass_frames_per_s: Vec<f64>,
    pub frames: u64,
    pub segments: u64,
    pub wire_bytes: u64,
    pub video_s: f64,
    pub codec_errors: u64,
    pub pipeline_ns: u64,
    pub upload_ns: u64,
    // net
    pub plan_ns: u64,
    pub uploads: u64,
    pub deferred: u64,
    // server write path
    pub decode_ns: u64,
    pub decode_errors: u64,
    pub ingested_segments: u64,
    pub batches: u64,
    pub ingest_ns: u64,
    /// Segments/s of server-side time (decode + ingest + quiesce), one
    /// per write-path repetition.
    pub ingest_rates: Vec<f64>,
    pub batch_lat: Latencies,
    pub twin_ns: u64,
    pub publishes: u64,
    pub publish_p99_us: f64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub wal_lag_max: u64,
    pub quiesce_ms: Vec<f64>,
    pub snapshots_written: u64,
    pub buckets_rewritten: u64,
    pub snapshot_bytes: u64,
    pub disk_bytes: u64,
    pub live_segments: u64,
    pub open_ms: Vec<f64>,
    pub recovered: u64,
    pub cold_runs: u64,
    pub cold_segments: u64,
    pub cold_bytes: u64,
    // correctness
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Wall time spent in measured stages so far (preparation excluded).
    pub measured_ns: u64,
    /// Counts of the last write-path repetition alone: the number of
    /// repetitions depends on the clock, one repetition's counts do not.
    pub last_rep: RepCounts,
}

/// What one write-path repetition moved (exact for a given seed).
#[derive(Debug, Clone, Copy, Default)]
pub struct RepCounts {
    pub frames: u64,
    pub segments: u64,
    pub wire_bytes: u64,
    pub batches: u64,
    pub wal_records: u64,
}

impl RepCounts {
    fn totals(acc: &Acc) -> RepCounts {
        RepCounts {
            frames: acc.frames,
            segments: acc.segments,
            wire_bytes: acc.wire_bytes,
            batches: acc.batches,
            wal_records: acc.wal_records,
        }
    }

    fn since(self, before: RepCounts) -> RepCounts {
        RepCounts {
            frames: self.frames - before.frames,
            segments: self.segments - before.segments,
            wire_bytes: self.wire_bytes - before.wire_bytes,
            batches: self.batches - before.batches,
            wal_records: self.wal_records - before.wal_records,
        }
    }
}

impl Acc {
    pub fn new() -> Acc {
        Acc {
            batch_lat: Latencies::with_capacity(1 << 18),
            ..Acc::default()
        }
    }

    /// Counts one failed operation; the first few are kept for the report.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// One encoded recording waiting for its upload slot.
struct Upload {
    provider: usize,
    ready_at_s: f64,
    wire: Bytes,
}

/// A finished write-path repetition: the reopened server and what it
/// must hold.
pub struct Rep {
    pub server: CloudServer,
    pub dir: Option<PathBuf>,
    pub expected: Vec<(RepFov, SegmentRef)>,
}

impl Rep {
    /// Shuts the server down, then removes its data dir.
    pub fn discard(self) {
        drop(self.server);
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

pub fn server_config(ctx: &Ctx) -> ServerConfig {
    ServerConfig {
        shard_width_s: ctx.spec.shard_width_s,
        retention_horizon_s: ctx.spec.retention_horizon_s,
        cache: if ctx.spec.cache_capacity > 0 {
            CacheConfig::enabled(ctx.spec.cache_capacity)
        } else {
            CacheConfig::default()
        },
        events: if ctx.spec.observability {
            EventLogConfig::enabled(0, ctx.seed)
        } else {
            EventLogConfig::default()
        },
        // Durability knobs stay at their defaults (fsync_interval_micros
        // 2000, snapshot_min_wal_bytes 1 MiB, cold tier on): the flush
        // policy is part of what is measured and must match on both
        // sides of any comparison.
        ..ServerConfig::default()
    }
}

/// Phase *record*: every provider films once per pass; frames stream
/// through Alg. 1 and abstraction, the finished recording is encoded.
fn record(ctx: &Ctx, tr: &mut Tracer, acc: &mut Acc) -> Vec<Upload> {
    let phase = tr.begin("phase.record", 0);
    let fleet = &ctx.inputs.fleet;
    let mut uploaders: Vec<Uploader> = (0..fleet.len()).map(|i| Uploader::new(i as u64)).collect();
    let mut uploads = Vec::with_capacity(fleet.len() * ctx.inputs.passes.len());
    for (p, pass) in ctx.inputs.passes.iter().enumerate() {
        let pass_start = Instant::now();
        let mut pass_frames = 0u64;
        for (i, trace) in fleet.iter().enumerate() {
            let op = (p * fleet.len() + i) as u32;
            let dt = pass.dt_s + trace.start_in_pass_s;
            let span = tr.begin("client.pipeline", op);
            let mut pipeline = ClientPipeline::new(ctx.cam, SEGMENT_THRESH);
            for f in &trace.frames {
                pipeline.push(TimedFov {
                    t: f.t + dt,
                    fov: Fov {
                        p: LatLon {
                            lat: f.fov.p.lat + pass.dlat,
                            lng: f.fov.p.lng + pass.dlng,
                        },
                        theta: f.fov.theta,
                    },
                });
            }
            let result = pipeline.finish();
            acc.pipeline_ns += tr.end(span);
            pass_frames += result.frames;
            let segments = result.reps.len() as u64;
            let (Some(first), Some(last)) = (trace.frames.first(), trace.frames.last()) else {
                continue;
            };
            let (first, last) = (first.t, last.t);

            let span = tr.begin("client.upload", op);
            let encoded = uploaders[i].upload(result.reps);
            acc.upload_ns += tr.end(span);
            acc.attempted += 1;
            match encoded {
                Ok((wire, _batch)) => {
                    acc.segments += segments;
                    acc.wire_bytes += wire.len() as u64;
                    acc.video_s += last - first;
                    uploads.push(Upload {
                        provider: i,
                        ready_at_s: last + dt,
                        wire,
                    });
                }
                Err(e) => {
                    acc.codec_errors += 1;
                    acc.fail(format!("upload of provider {i} pass {p}: {e}"));
                }
            }
        }
        let ns = pass_start.elapsed().as_nanos() as u64;
        acc.frames += pass_frames;
        acc.pass_frames_per_s
            .push(pass_frames as f64 / (ns as f64 / 1e9));
    }
    tr.end(phase);
    uploads
}

/// When each recording reaches the server: every provider prefers WiFi
/// and falls back to cellular after [`WIFI_MAX_DELAY_S`], so arrival
/// order is not time order.
fn arrival_order(ctx: &Ctx, uploads: Vec<Upload>, tr: &mut Tracer, acc: &mut Acc) -> Vec<Arrival> {
    let span = tr.begin("net.scheduler", 0);
    let start = Instant::now();
    let policy = UploadPolicy::WifiPreferred {
        max_delay_s: WIFI_MAX_DELAY_S,
    };
    let (cellular, wifi, plan) = (
        NetworkLink::cellular_4g(),
        NetworkLink::wifi(),
        DataPlan::metered(),
    );
    let mut per_provider: Vec<Vec<usize>> = vec![Vec::new(); ctx.inputs.fleet.len()];
    for (k, u) in uploads.iter().enumerate() {
        per_provider[u.provider].push(k);
    }
    let mut at = vec![0.0f64; uploads.len()];
    for (provider, ks) in per_provider.iter().enumerate() {
        let ready: Vec<(f64, usize)> = ks
            .iter()
            .map(|&k| (uploads[k].ready_at_s, uploads[k].wire.len()))
            .collect();
        let planned = plan_uploads(
            policy,
            &ctx.inputs.fleet[provider].connectivity,
            &ready,
            &cellular,
            &wifi,
            &plan,
        );
        for (&k, u) in ks.iter().zip(&planned.uploads) {
            at[k] = u.arrival_at;
            acc.deferred += u64::from(u.send_at > u.ready_at);
        }
    }
    acc.uploads += uploads.len() as u64;
    let mut arrivals: Vec<Arrival> = uploads
        .into_iter()
        .zip(at)
        .map(|(u, at_s)| Arrival { at_s, wire: u.wire })
        .collect();
    arrivals.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    acc.plan_ns += start.elapsed().as_nanos() as u64;
    tr.end(span);
    arrivals
}

/// Decodes wire messages outside any measured stage (the background
/// before it is preloaded, the live stream for the oracle).
pub fn decode_all<'a>(wires: impl Iterator<Item = &'a Bytes>, acc: &mut Acc) -> Vec<UploadBatch> {
    wires
        .filter_map(|wire| match DescriptorCodec::decode_batch(wire.clone()) {
            Ok(b) => Some(b),
            Err(e) => {
                acc.decode_errors += 1;
                acc.fail(format!("generated batch does not decode: {e}"));
                None
            }
        })
        .collect()
}

pub fn records_of(batches: &[UploadBatch]) -> Vec<(RepFov, SegmentRef)> {
    batches
        .iter()
        .flat_map(|b| {
            b.reps.iter().enumerate().map(|(i, rep)| {
                (
                    *rep,
                    SegmentRef {
                        provider_id: b.provider_id,
                        video_id: b.video_id,
                        segment_idx: i as u32,
                    },
                )
            })
        })
        .collect()
}

/// Opens the workload's server with the background already in it
/// (preparation, not measured): bulk-loaded when memory-only, ingested
/// in time order through the durable write path otherwise.
fn open_preloaded(
    ctx: &Ctx,
    dir: Option<&Path>,
    background: &[UploadBatch],
) -> Result<CloudServer, StoreError> {
    let config = server_config(ctx);
    let mut server = match dir {
        Some(dir) => CloudServer::open(dir, ctx.cam, config)?,
        None => CloudServer::from_records_with_config_exec(
            ctx.cam,
            config,
            ctx.exec.clone(),
            records_of(background),
        ),
    };
    server.set_executor(ctx.exec.clone());
    if ctx.spec.observability {
        server.attach_observability(ctx.registry);
    }
    if dir.is_some() {
        for b in background {
            server.ingest_batch(b);
        }
    }
    Ok(server)
}

/// Phase *ingest*: the fleet's wire messages, in arrival order, decoded
/// and ingested; then `quiesce`.
fn ingest(
    ctx: &Ctx,
    server: &CloudServer,
    arrivals: &[Arrival],
    background: &[UploadBatch],
    tr: &mut Tracer,
    acc: &mut Acc,
) -> Vec<UploadBatch> {
    let phase = tr.begin("phase.ingest", 0);
    let start = Instant::now();
    let mut batches = Vec::with_capacity(arrivals.len());
    let mut segments = 0u64;
    for (k, a) in arrivals.iter().enumerate() {
        let t0 = Instant::now();
        let span = tr.begin("core.descriptor", k as u32);
        let decoded = DescriptorCodec::decode_batch(a.wire.clone());
        tr.end(span);
        let t1 = Instant::now();
        acc.attempted += 1;
        let batch = match decoded {
            Ok(b) => b,
            Err(e) => {
                acc.decode_errors += 1;
                acc.fail(format!("arrival {k} does not decode: {e}"));
                continue;
            }
        };
        let span = tr.begin(
            if ctx.spec.durable {
                "server.write+store.wal"
            } else {
                "server.write"
            },
            k as u32,
        );
        let ids = server.ingest_batch(&batch);
        tr.end(span);
        let t2 = Instant::now();
        acc.decode_ns += (t1 - t0).as_nanos() as u64;
        acc.ingest_ns += (t2 - t1).as_nanos() as u64;
        acc.batch_lat.push((t2 - t0).as_nanos() as u64);
        if ids.len() != batch.reps.len() {
            acc.fail(format!(
                "arrival {k}: {} ids for {} segments",
                ids.len(),
                batch.reps.len()
            ));
        }
        segments += batch.reps.len() as u64;
        if ctx.trace && k % 32 == 0 {
            if let Some(d) = server.durability_stats() {
                acc.wal_lag_max = acc.wal_lag_max.max(d.wal_lag_bytes);
            }
        }
        batches.push(batch);
    }
    let span = tr.begin("store.snapshot", 0);
    let q0 = Instant::now();
    server.quiesce();
    acc.quiesce_ms.push(q0.elapsed().as_secs_f64() * 1e3);
    tr.end(span);
    let wall = start.elapsed();
    acc.batches += batches.len() as u64;
    acc.ingested_segments += segments;
    acc.ingest_rates
        .push(segments as f64 / wall.as_secs_f64().max(1e-9));
    tr.end(phase);

    if ctx.trace {
        feed_twin(ctx, &batches, background, tr, acc);
    }
    batches
}

/// Traced runs only: a memory-only twin holding the same background is
/// fed the same batches, so `server.write` is its time and `store.wal`
/// the durable server's time minus it; publish counters come from the
/// twin's own registry.
fn feed_twin(
    ctx: &Ctx,
    batches: &[UploadBatch],
    background: &[UploadBatch],
    tr: &mut Tracer,
    acc: &mut Acc,
) {
    let span = tr.begin("twin", 0);
    let registry = Registry::new();
    let mut twin = CloudServer::from_records_with_config_exec(
        ctx.cam,
        ServerConfig {
            cache: CacheConfig::default(),
            events: EventLogConfig::default(),
            ..server_config(ctx)
        },
        ctx.exec.clone(),
        records_of(background),
    );
    twin.attach_observability(&registry);
    let t0 = Instant::now();
    for b in batches {
        twin.ingest_batch(b);
    }
    acc.twin_ns += t0.elapsed().as_nanos() as u64;
    acc.publishes = counter(&registry, "swag_server_publishes_total");
    if let Some(Metric::Histogram(h)) = registry.get("swag_server_snapshot_rebuild_micros") {
        acc.publish_p99_us = acc.publish_p99_us.max(h.snapshot().p99() as f64);
    }
    tr.end(span);
}

fn sorted_keys(records: impl Iterator<Item = RecordKey>) -> Vec<RecordKey> {
    let mut keys: Vec<RecordKey> = records.collect();
    keys.sort_unstable();
    keys
}

/// The recovered record set must equal the ingested set; records the
/// retention horizon demoted are accounted for by the cold catalog.
fn verify_recovered(server: &CloudServer, expected: &[RecordKey], acc: &mut Acc) {
    acc.attempted += 1;
    let live = sorted_keys(
        server
            .export_records()
            .iter()
            .map(|r| record_key(&r.source, &r.rep)),
    );
    let cold = server.durability_stats().map_or(0, |d| d.cold_segments);
    let all_known = live.iter().all(|k| expected.binary_search(k).is_ok());
    if !all_known || live.len() as u64 + cold != expected.len() as u64 {
        acc.fail(format!(
            "recovered {} live + {cold} cold records, ingested {}{}",
            live.len(),
            expected.len(),
            if all_known {
                ""
            } else {
                " (some never ingested)"
            }
        ));
    }
    acc.recovered = live.len() as u64 + cold;
}

/// One write-path repetition on a fresh server.
pub fn write_rep(
    ctx: &Ctx,
    rep: usize,
    background: &[UploadBatch],
    tr: &mut Tracer,
    acc: &mut Acc,
) -> Result<Rep, StoreError> {
    let before = RepCounts::totals(acc);
    let t0 = Instant::now();
    let uploads = record(ctx, tr, acc);
    let arrivals = arrival_order(ctx, uploads, tr, acc);
    acc.measured_ns += t0.elapsed().as_nanos() as u64;

    let dir = ctx
        .spec
        .durable
        .then(|| ctx.scratch.join(format!("{}-{rep}", ctx.spec.name)));
    let server = open_preloaded(ctx, dir.as_deref(), background)?;

    let t0 = Instant::now();
    let fleet_batches = ingest(ctx, &server, &arrivals, background, tr, acc);
    acc.measured_ns += t0.elapsed().as_nanos() as u64;

    let mut expected = records_of(background);
    expected.extend(records_of(&fleet_batches));
    acc.live_segments = server.stats().segments as u64;

    let Some(dir) = dir else {
        acc.last_rep = RepCounts::totals(acc).since(before);
        return Ok(Rep {
            server,
            dir: None,
            expected,
        });
    };
    if let Some(d) = server.durability_stats() {
        acc.wal_records += d.wal_records;
        acc.wal_bytes += d.wal_appended_bytes;
        acc.snapshots_written = d.snapshots_written;
        acc.buckets_rewritten = d.snapshot_buckets_written;
        acc.cold_runs = d.cold_runs as u64;
        acc.cold_segments = d.cold_segments;
    }
    acc.last_rep = RepCounts::totals(acc).since(before);
    acc.disk_bytes = dir_bytes(&dir);
    acc.snapshot_bytes = dir_bytes(&dir.join("snapshots"));
    acc.cold_bytes = dir_bytes(&dir.join("cold"));

    let keys = sorted_keys(expected.iter().map(|(rep, src)| record_key(src, rep)));
    let mut server = Some(server);
    for _ in 0..ctx.spec.reopens.max(1) {
        drop(server.take());
        let phase = tr.begin("phase.reopen", 0);
        let span = tr.begin("store.recovery", 0);
        let t0 = Instant::now();
        let mut reopened = CloudServer::open(&dir, ctx.cam, server_config(ctx))?;
        let open = t0.elapsed();
        tr.end(span);
        tr.end(phase);
        acc.open_ms.push(open.as_secs_f64() * 1e3);
        acc.measured_ns += open.as_nanos() as u64;
        reopened.set_executor(ctx.exec.clone());
        if ctx.spec.observability {
            reopened.attach_observability(ctx.registry);
        }
        verify_recovered(&reopened, &keys, acc);
        server = Some(reopened);
    }
    Ok(Rep {
        server: server.expect("at least one reopen ran"),
        dir: Some(dir),
        expected,
    })
}
