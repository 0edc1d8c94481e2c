//! The read half of a run: a closed-loop client over the query pool
//! (optionally beside an open-loop writer), the traced runs' read-path
//! decomposition, and the linear-scan oracle.

use std::hint::black_box;
use std::time::{Duration, Instant};

use swag_core::{DescriptorCodec, RepFov};
use swag_rtree::SearchStats;
use swag_server::{
    ranking::rank_candidates, CloudServer, IndexKind, QueryPlan, SearchHit, SegmentId, SegmentRef,
    SegmentStore, ServerConfig, ShardedFovIndex,
};

use crate::spec::{QUERY_BLOCK, SAMPLE_EVERY};
use crate::stats::Latencies;
use crate::tracer::Tracer;
use crate::workload::{record_key, Inputs, PoolQuery, RecordKey};
use crate::write_path::{Acc, Ctx};

/// Sampled answers kept for the oracle, at most.
const ORACLE_SAMPLES: usize = 192;
/// Blocks every read stage completes whatever the clock says.
const MIN_BLOCKS: usize = 4;
/// The id hits served from cold runs carry.
const COLD_HIT_ID: SegmentId = SegmentId(u32::MAX);

/// Sums of the traced runs' per-query decomposition.
#[derive(Default)]
pub struct Decomp {
    pub n: [u64; 2],
    pub plan_ns: u64,
    pub scan_ns: [u64; 2],
    pub rank_ns: [u64; 2],
    pub whole_ns: [u64; 2],
    pub residual_ns: i64,
    pub shards_probed: u64,
    pub candidates: u64,
    pub hits: u64,
    pub search: SearchStats,
    pub cold_n: [u64; 2],
    pub cold_rows: [u64; 2],
    pub cold_hits: u64,
    pub cold_us: u64,
    pub delta_rows: u64,
    pub analyzed: u64,
}

/// What the read stage measured.
pub struct ReadAcc {
    /// Per-class latencies: `[light, heavy]`.
    pub lat: [Latencies; 2],
    /// Wall seconds of each full block of [`QUERY_BLOCK`] queries.
    pub block_s: Vec<f64>,
    /// Same, split by whether the block ran with tracing work in it.
    pub traced_block_s: Vec<f64>,
    pub plain_block_s: Vec<f64>,
    pub queries: u64,
    /// Sampled answers (pool index, sorted hit keys) for the oracle.
    pub kept: Vec<(u32, Vec<RecordKey>)>,
    pub decomp: Decomp,
}

impl ReadAcc {
    pub fn new(pool: usize) -> ReadAcc {
        ReadAcc {
            lat: [
                Latencies::with_capacity(12 << 20),
                Latencies::with_capacity(4 << 20),
            ],
            block_s: Vec::with_capacity(1 << 16),
            traced_block_s: Vec::new(),
            plain_block_s: Vec::new(),
            queries: 0,
            kept: Vec::with_capacity(ORACLE_SAMPLES.min(pool)),
            decomp: Decomp::default(),
        }
    }
}

pub fn hit_keys(hits: &[SearchHit]) -> Vec<RecordKey> {
    let mut keys: Vec<RecordKey> = hits.iter().map(|h| record_key(&h.source, &h.rep)).collect();
    keys.sort_unstable();
    keys
}

/// A bench-owned copy of the server's live index and store, so the
/// traced runs can time `candidates_with_stats` and `rank_candidates` as
/// public calls. For timing only; `CloudServer::query` stays the answer.
pub struct Probe {
    index: ShardedFovIndex,
    store: SegmentStore,
}

impl Probe {
    pub fn of(server: &CloudServer) -> Probe {
        let mut store = SegmentStore::new();
        let items: Vec<_> = server
            .export_records()
            .iter()
            .map(|r| (r.rep, store.push(r.rep, r.source)))
            .collect();
        let mut index = ShardedFovIndex::new(server.config().shard_width_s, IndexKind::RTree);
        index.bulk_insert(&items);
        Probe { index, store }
    }
}

/// Plan → scan → rank as three public calls in sequence, next to the
/// whole-call time just measured; the residual is what is left. To be
/// replaced by a stage probe inside the engine (ROADMAP item 1).
#[allow(clippy::too_many_arguments)]
fn decompose(
    ctx: &Ctx,
    server: &CloudServer,
    probe: &Probe,
    pq: &PoolQuery,
    hits: &[SearchHit],
    whole_ns: u64,
    op: u32,
    concurrent: bool,
    tr: &mut Tracer,
    d: &mut Decomp,
    acc: &mut Acc,
) {
    let opts = Inputs::options(ctx.spec, pq);
    let class = usize::from(pq.heavy);

    let span = tr.begin("server.plan", op);
    let plan = QueryPlan::compile(black_box(&pq.query), &opts);
    let plan_ns = tr.end(span);
    black_box(&plan);

    let span = tr.begin("server.shard", op);
    let mut search = SearchStats::default();
    let candidates = probe.index.candidates_with_stats(&pq.query, &mut search);
    let scan_ns = tr.end(span);

    let span = tr.begin("server.ranking", op);
    let ranked = rank_candidates(&candidates, &probe.store, &ctx.cam, &pq.query, &opts);
    let rank_ns = tr.end(span);

    d.n[class] += 1;
    d.plan_ns += plan_ns;
    d.scan_ns[class] += scan_ns;
    d.rank_ns[class] += rank_ns;
    d.whole_ns[class] += whole_ns;
    d.residual_ns += whole_ns as i64 - (plan_ns + scan_ns + rank_ns) as i64;
    d.shards_probed += probe
        .index
        .probe_shard_count(pq.query.t_start, pq.query.t_end) as u64;
    d.candidates += candidates.len() as u64;
    d.hits += ranked.len() as u64;
    d.search.merge(&search);

    // The three calls must reproduce the server's answer wherever the
    // probe can: not while a writer changes the server under it, and not
    // for answers that reached into cold runs the live index lacks.
    if !concurrent && hits.iter().all(|h| h.id != COLD_HIT_ID) {
        acc.attempted += 1;
        if hit_keys(&ranked) != hit_keys(hits) {
            acc.fail(format!(
                "decomposition of query {op} found {} hits, server {}",
                ranked.len(),
                hits.len()
            ));
        }
    }

    let span = tr.begin("analyze", op);
    let analyzed = server.query_analyzed(0, &pq.query, &opts);
    tr.end(span);
    d.analyzed += 1;
    d.delta_rows += analyzed.report.event.delta_rows_in;
    if let Some(cold) = analyzed.report.cold {
        d.cold_n[class] += 1;
        d.cold_rows[class] += cold.rows_in;
        d.cold_hits += cold.hits;
        d.cold_us += cold.micros;
    }
}

/// The closed-loop client: issues the next query when the previous one
/// returns, until `stop` says so (checked between blocks).
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    ctx: &Ctx,
    server: &CloudServer,
    probe: Option<&Probe>,
    concurrent: bool,
    stop: impl Fn(Duration) -> bool,
    tr: &mut Tracer,
    acc: &mut Acc,
    r: &mut ReadAcc,
) {
    let phase = tr.begin("phase.read", 0);
    let inputs = ctx.inputs;
    let start = Instant::now();
    let mut kept_already = vec![false; inputs.pool.len()];
    // Each cycle continues the issue order where the last one stopped.
    let first = r.queries as usize;
    let mut i = first;
    let mut blocks = 0usize;
    loop {
        // Traced runs alternate blocks with and without tracing work in
        // them; the ratio of the two is the tracing overhead.
        let traced = probe.is_some() && blocks.is_multiple_of(2);
        let span = if traced {
            tr.begin("read.block", blocks as u32)
        } else {
            tr.begin("read.block.plain", blocks as u32)
        };
        let block_start = Instant::now();
        for _ in 0..QUERY_BLOCK {
            let idx = inputs.draws[i % inputs.draws.len()];
            let pq = &inputs.pool[idx as usize];
            let opts = Inputs::options(ctx.spec, pq);
            let sampled = i.is_multiple_of(SAMPLE_EVERY);
            let whole = if traced && sampled {
                Some(tr.begin("server.engine", i as u32))
            } else {
                None
            };
            let t0 = Instant::now();
            let hits = server.query(&pq.query, &opts);
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(whole) = whole {
                tr.end(whole);
            }
            r.lat[usize::from(pq.heavy)].push(ns);
            if sampled {
                if let (true, Some(probe)) = (traced, probe) {
                    let op = i as u32;
                    decompose(
                        ctx,
                        server,
                        probe,
                        pq,
                        &hits,
                        ns,
                        op,
                        concurrent,
                        tr,
                        &mut r.decomp,
                        acc,
                    );
                }
                if r.kept.len() < ORACLE_SAMPLES && !kept_already[idx as usize] {
                    kept_already[idx as usize] = true;
                    r.kept.push((idx, hit_keys(&hits)));
                }
            }
            black_box(hits);
            i += 1;
        }
        let block_s = block_start.elapsed().as_secs_f64();
        tr.end(span);
        r.block_s.push(block_s);
        if probe.is_some() {
            if traced {
                r.traced_block_s.push(block_s);
            } else {
                r.plain_block_s.push(block_s);
            }
        }
        blocks += 1;
        if blocks >= MIN_BLOCKS && stop(start.elapsed()) {
            break;
        }
    }
    r.queries = i as u64;
    acc.attempted += (i - first) as u64;
    acc.measured_ns += start.elapsed().as_nanos() as u64;
    tr.end(phase);
}

/// The open-loop writer: one batch every `1 / rate` seconds whatever the
/// server does. `late` gets each batch's time from when it was due to
/// `ingest_batch` returning, `generator_late` how late the generator
/// itself sent. Returns batches sent and batches that failed to decode.
pub fn live_writer(
    ctx: &Ctx,
    server: &CloudServer,
    rate: f64,
    deadline: Instant,
    late: &mut Latencies,
    generator_late: &mut Latencies,
    tr: &mut Tracer,
) -> (usize, u64) {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let (mut sent, mut errors) = (0usize, 0u64);
    for (k, wire) in ctx.inputs.live.iter().enumerate() {
        let due = start + interval * k as u32;
        if due >= deadline {
            break;
        }
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            // Sleep through most of the gap, spin the last stretch: the
            // sandbox's sleep overshoots by more than a batch takes.
            if due - now > Duration::from_micros(300) {
                std::thread::sleep(due - now - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        generator_late.push(due.elapsed().as_nanos() as u64);
        let span = tr.begin("core.descriptor", k as u32);
        let decoded = DescriptorCodec::decode_batch(wire.clone());
        tr.end(span);
        match decoded {
            Ok(batch) => {
                let span = tr.begin("server.write+store.wal", k as u32);
                server.ingest_batch(&batch);
                tr.end(span);
            }
            Err(_) => errors += 1,
        }
        late.push(due.elapsed().as_nanos() as u64);
        sent += 1;
    }
    (sent, errors)
}

/// Re-answers the sampled queries on an `IndexKind::Linear` server over
/// the same records and compares answers as sets of
/// `(SegmentRef, RepFov)` — never arrival-assigned ids, since arrival is
/// out of order. With `requery`, the server is asked again now (the
/// state moved while the sample was taken) instead of using the kept
/// answers.
pub fn oracle_check(
    ctx: &Ctx,
    server: &CloudServer,
    expected: Vec<(RepFov, SegmentRef)>,
    kept: &[(u32, Vec<RecordKey>)],
    requery: bool,
    acc: &mut Acc,
) {
    let oracle = CloudServer::from_records_with_config_exec(
        ctx.cam,
        ServerConfig {
            index: IndexKind::Linear,
            shard_width_s: ctx.spec.shard_width_s,
            ..ServerConfig::default()
        },
        ctx.exec.clone(),
        expected,
    );
    for (idx, answer) in kept {
        let pq = &ctx.inputs.pool[*idx as usize];
        let opts = Inputs::options(ctx.spec, pq);
        let truth = hit_keys(&oracle.query(&pq.query, &opts));
        let got = if requery {
            hit_keys(&server.query(&pq.query, &opts))
        } else {
            answer.clone()
        };
        acc.attempted += 1;
        if got != truth {
            acc.fail(format!(
                "pool query {idx}: server answered {} hits, linear oracle {}",
                got.len(),
                truth.len()
            ));
        }
    }
}
