//! Query forensics: EXPLAIN ANALYZE equivalence, wide-event capture and
//! tail sampling, JSON round-trips, and replay digest stability.
//!
//! The load-bearing guarantee is **probe invariance**: every sink the
//! one operator pipeline can run under (none, registry, event log,
//! EXPLAIN ANALYZE) must return exactly what the unobserved server
//! returns, hit for hit, field for field, and record the same metrics —
//! otherwise a forensic record describes an execution that never
//! happened.

use std::sync::Arc;

use swag_obs::{Metric, MonotonicClock, Registry};

use swag_core::{CameraProfile, Fov, RepFov, UploadBatch};
use swag_geo::LatLon;
use swag_server::{
    ranking::rank_candidates, result_digest, CacheConfig, CacheOutcome, CloudServer,
    EventDecodeError, EventLogConfig, IndexKind, Query, QueryEvent, QueryOptions, RankMode,
    SearchHit, SegmentStore, ServerConfig, ShardedFovIndex, QUERY_EVENT_WORDS,
};

fn base() -> LatLon {
    LatLon::new(40.0, 116.32)
}

/// Tiny deterministic generator (SplitMix64), same idiom as the engine
/// equivalence suite.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

fn workload(seed: u64, n: usize) -> Vec<RepFov> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|_| {
            let dx = rng.f64(-400.0, 400.0);
            let dy = rng.f64(-400.0, 400.0);
            let theta = rng.f64(0.0, 360.0);
            let t0 = rng.f64(0.0, 1_000.0);
            let dur = rng.f64(1.0, 40.0);
            RepFov::new(
                t0,
                t0 + dur,
                Fov::new(base().offset_by(swag_geo::Vec2::new(dx, dy)), theta),
            )
        })
        .collect()
}

fn server_with(config: ServerConfig, seed: u64, n: usize) -> CloudServer {
    let server = CloudServer::with_config(CameraProfile::smartphone(), config);
    server.ingest_batch(&UploadBatch {
        provider_id: 1,
        video_id: 0,
        reps: workload(seed, n),
    });
    server
}

fn probes(seed: u64, n: usize) -> Vec<(Query, QueryOptions)> {
    let mut rng = Rng(seed ^ 0xdead_beef);
    (0..n)
        .map(|i| {
            let t0 = rng.f64(0.0, 900.0);
            let q = Query::new(
                t0,
                t0 + rng.f64(5.0, 120.0),
                base().offset_by(swag_geo::Vec2::new(
                    rng.f64(-300.0, 300.0),
                    rng.f64(-300.0, 300.0),
                )),
                rng.f64(100.0, 500.0),
            );
            let opts = QueryOptions {
                top_n: 1 + (i % 7),
                direction_filter: i % 3 != 0,
                require_coverage: i % 5 == 0,
                rank: if i % 2 == 0 {
                    RankMode::Distance
                } else {
                    RankMode::Quality
                },
                ..QueryOptions::default()
            };
            (q, opts)
        })
        .collect()
}

fn assert_same_hits(a: &[SearchHit], b: &[SearchHit], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: hit counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x, y, "{what}: hits differ");
    }
    assert_eq!(
        result_digest(a),
        result_digest(b),
        "{what}: digests differ despite equal hits"
    );
}

/// Probe invariance: EXPLAIN ANALYZE and an events-enabled server must
/// return byte-identical results to the unobserved query path, across
/// filter/rank variations and on every read entry point — with the
/// cache off.
#[test]
fn analyzed_execution_matches_normal_execution() {
    let server = server_with(ServerConfig::default(), 11, 300);
    let evented = server_with(
        ServerConfig {
            events: EventLogConfig::enabled(0, 11),
            ..ServerConfig::default()
        },
        11,
        300,
    );
    let log = evented.event_log().expect("events enabled in config");
    // All 300 records are published (300 ≥ the publish threshold): the
    // candidate probe and ranking over a copy of them are the reference
    // for what the fused pass's operators count.
    let mut store = SegmentStore::new();
    let items: Vec<_> = server
        .export_records()
        .iter()
        .map(|r| (r.rep, store.push(r.rep, r.source)))
        .collect();
    let mut index = ShardedFovIndex::new(server.config().shard_width_s, IndexKind::RTree);
    index.bulk_insert(&items);
    for (q, opts) in probes(11, 24) {
        let plain = server.query(&q, &opts);
        assert_same_hits(&plain, &evented.query(&q, &opts), "evented-vs-plain");
        let analyzed = server.query_analyzed(7, &q, &opts);
        assert_same_hits(&plain, &analyzed.hits, "analyze-vs-plain");
        let ev = analyzed.report.event;
        assert_eq!(ev.cache, CacheOutcome::Off);
        assert_eq!(ev.hit_count, plain.len() as u64);
        assert_eq!(ev.digest, result_digest(&plain));
        // Every operator annotated: rows flow through the pipeline. The
        // index scan now filters and collects as it goes, yet its rows
        // out are still the box matches after cross-shard dedup, the
        // ranking's rows in those box matches, and the index hits the
        // filter survivors.
        let candidates = index.candidates(&q);
        assert_eq!(ev.index_rows_out, candidates.len() as u64);
        assert_eq!(ev.rank_rows_in, ev.index_rows_out);
        assert_eq!(ev.delta_rows_in, 0, "the reserved delta word reads 0");
        assert_eq!(ev.rank_rows_out, ev.hit_count);
        let all = QueryOptions {
            top_n: usize::MAX,
            ..opts
        };
        let survivors = rank_candidates(&candidates, &store, server.camera(), &q, &all);
        assert_eq!(ev.hits_index, survivors.len() as u64);
        // Index hits count filter survivors *before* top-N truncation:
        // at least everything ranked out, at most rows in.
        assert!(ev.hits_index >= ev.rank_rows_out && ev.hits_index <= ev.rank_rows_in);
        let text = analyzed.report.render();
        for needle in ["index_scan", "ranking", "digest", "shard probe"] {
            assert!(text.contains(needle), "analyze render missing {needle}");
        }
        assert!(!text.contains("delta"), "no delta stage left: {text}");
    }
    assert_eq!(log.stats().pushed, 24, "one wide event per query");

    // query_batch: one event per plan, hits equal to the log-off server.
    let (queries, opts): (Vec<Query>, Vec<QueryOptions>) = probes(11, 8).into_iter().unzip();
    let plain = server.query_batch(&queries, &opts[0], 2);
    let batched = evented.query_batch(&queries, &opts[0], 2);
    assert_eq!(
        log.stats().pushed,
        24 + 8,
        "one wide event per batched plan"
    );
    for (a, b) in plain.iter().zip(&batched) {
        assert_same_hits(a, b, "evented-batch-vs-plain");
    }

    // query_nearest: one event per radius ring it executed.
    let nearest = |s: &CloudServer| s.query_nearest(0.0, 1_000.0, base(), 5, &opts[1], 400.0);
    let rings_before = server.stats().queries;
    let plain = nearest(&server);
    let rings = server.stats().queries - rings_before;
    assert!(rings >= 1);
    assert_same_hits(&plain, &nearest(&evented), "evented-nearest-vs-plain");
    assert_eq!(
        log.stats().pushed,
        24 + 8 + rings,
        "one wide event per ring"
    );
}

/// The event log must not change what the registry records: the same
/// queries on a registry-attached server with the log off and with it
/// on leave equal counts on every `swag_server_*` histogram and counter
/// (events counters aside).
#[test]
fn event_log_does_not_change_recorded_metrics() {
    let observed = |events: EventLogConfig| {
        let reg = Registry::new();
        let mut server = CloudServer::with_config(
            CameraProfile::smartphone(),
            ServerConfig {
                cache: CacheConfig::enabled(64),
                events,
                ..ServerConfig::default()
            },
        );
        server.attach_observability(&reg);
        // Two folds, so shards hold two runs that both contribute
        // traversal counters; the repeated probes hit the cache.
        for (video_id, n) in [(0, 300), (1, 40)] {
            server.ingest_batch(&UploadBatch {
                provider_id: 1,
                video_id,
                reps: workload(37 + video_id, n),
            });
        }
        for (q, opts) in probes(37, 24).into_iter().chain(probes(37, 6)) {
            server.query(&q, &opts);
        }
        let counts: Vec<(String, u64)> = reg
            .names()
            .into_iter()
            .filter(|name| {
                name.starts_with("swag_server_") && !name.starts_with("swag_server_events_total")
            })
            .filter_map(|name| match reg.get(&name)? {
                Metric::Counter(c) => Some((name, c.get())),
                Metric::Histogram(h) => Some((name, h.snapshot().count)),
                Metric::Gauge(_) => None,
            })
            .collect();
        counts
    };
    let off = observed(EventLogConfig::default());
    let on = observed(EventLogConfig::enabled(0, 37));
    for exercised in [
        "swag_server_index_nodes_visited",
        "swag_server_cache_hits_total",
        "swag_server_hits_total{src=\"index\"}",
    ] {
        assert!(
            off.iter().any(|(name, n)| name == exercised && *n > 0),
            "workload never exercised {exercised}: {off:?}"
        );
    }
    assert_eq!(off, on);
}

/// With the result cache enabled, a repeated analyzed query is served
/// from the cache (annotated as a hit) and still byte-identical.
#[test]
fn analyzed_execution_reports_cache_decisions() {
    let server = server_with(
        ServerConfig {
            cache: CacheConfig::enabled(64),
            ..ServerConfig::default()
        },
        13,
        300,
    );
    let (q, opts) = probes(13, 1).remove(0);
    let first = server.query_analyzed(7, &q, &opts);
    assert_eq!(first.report.event.cache, CacheOutcome::Miss);
    let second = server.query_analyzed(7, &q, &opts);
    assert_eq!(second.report.event.cache, CacheOutcome::Hit);
    assert_same_hits(&first.hits, &second.hits, "cache-hit analyze");
    assert_eq!(first.report.event.digest, second.report.event.digest);
    assert!(second
        .report
        .render()
        .contains("served from the result cache"));
}

/// Kept events carry the full request bit-exactly: re-running the
/// reconstructed query yields the recorded digest (replay semantics).
#[test]
fn kept_events_replay_to_the_same_digest() {
    let server = server_with(
        ServerConfig {
            events: EventLogConfig {
                enabled: true,
                keep_per_mille: 1_000,
                ..EventLogConfig::default()
            },
            ..ServerConfig::default()
        },
        19,
        300,
    );
    for (q, opts) in probes(19, 16) {
        server.query(&q, &opts);
    }
    let kept = server.event_log().expect("events enabled in config").kept();
    assert_eq!(kept.len(), 16, "keep_per_mille 1000 keeps everything");
    for ev in kept {
        let replayed = server.query_analyzed(7, &ev.query(), &ev.options());
        assert_eq!(
            result_digest(&replayed.hits),
            ev.digest,
            "replaying a captured event against unchanged state must reproduce its digest"
        );
        // Round-trip through the JSONL wire format, bit-exact.
        let parsed = QueryEvent::from_json(&ev.to_json()).expect("own JSON must parse");
        assert_eq!(parsed.encode(), ev.encode(), "JSON round-trip drifted");
    }
}

/// Advances one microsecond per read, so two reads never agree.
struct TickingClock(std::sync::atomic::AtomicU64);

impl MonotonicClock for TickingClock {
    fn now_micros(&self) -> u64 {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }
}

/// EXPLAIN ANALYZE reports the very event it emitted: built once, so
/// even the completion timestamp agrees.
#[test]
fn analyzed_query_reports_the_emitted_event() {
    let server = CloudServer::with_config_and_clock(
        CameraProfile::smartphone(),
        ServerConfig {
            events: EventLogConfig {
                enabled: true,
                keep_per_mille: 1_000,
                ..EventLogConfig::default()
            },
            ..ServerConfig::default()
        },
        Arc::new(TickingClock(Default::default())),
    );
    server.ingest_batch(&UploadBatch {
        provider_id: 1,
        video_id: 0,
        reps: workload(41, 100),
    });
    let (q, opts) = probes(41, 1).remove(0);
    let analyzed = server.query_analyzed(9, &q, &opts);
    let log = server.event_log().expect("events enabled in config");
    assert_eq!(log.stats().pushed, 1, "the query emitted exactly one event");
    let emitted = log.kept().pop().expect("keep_per_mille 1000 keeps it");
    assert!(analyzed.report.event.end_micros > 0);
    assert_eq!(emitted.encode(), analyzed.report.event.encode());
}

/// A slow-over-threshold query is always kept even at sampling rate 0.
#[test]
fn slow_queries_are_always_kept() {
    let server = server_with(
        ServerConfig {
            events: EventLogConfig {
                enabled: true,
                keep_per_mille: 0,
                slow_micros: 1, // every real query takes >= 1 us
                ..EventLogConfig::default()
            },
            ..ServerConfig::default()
        },
        29,
        300,
    );
    let (q, opts) = probes(29, 1).remove(0);
    server.query(&q, &opts);
    let kept = server.event_log().expect("events enabled in config").kept();
    assert_eq!(kept.len(), 1, "over-SLO query kept at sampling rate 0");
    assert!(kept[0].total_micros >= 1);
}

/// The encoded word layout is stable and self-describing: encode/decode
/// round-trips every field bit-exactly, including negative-zero floats
/// and the discriminants.
#[test]
fn event_words_round_trip() {
    let server = server_with(
        ServerConfig {
            events: EventLogConfig::enabled(0, 31),
            cache: CacheConfig::enabled(16),
            ..ServerConfig::default()
        },
        31,
        200,
    );
    let (q, opts) = probes(31, 1).remove(0);
    let analyzed = server.query_analyzed(3, &q, &opts);
    let ev = analyzed.report.event;
    let words = ev.encode();
    assert_eq!(words.len(), QUERY_EVENT_WORDS);
    let back = QueryEvent::decode(&words).expect("own encoding must decode");
    assert_eq!(back.encode(), words, "decode(encode(ev)) drifted");
    assert_eq!(back.query(), q, "query reconstruction must be bit-exact");
    assert_eq!(back.options().top_n, opts.top_n);
    assert_eq!(back.options().rank, opts.rank);
    // Reserved: flag bits 4–5 (outcome) and 8, and word 16, which
    // builds with admission control filled.
    assert_eq!(words[1] & (0b11 << 4 | 1 << 8), 0);
    assert_eq!(words[16], 0);
    // Reserved too: words 10, 11, 20–22 and 27, which builds with a
    // pending-delta tier filled. Such a capture decodes, and those words
    // read back as 0.
    const DELTA_WORDS: [usize; 6] = [10, 11, 20, 21, 22, 27];
    for w in DELTA_WORDS {
        assert_eq!(words[w], 0, "word {w}");
    }
    let mut parent = words;
    for (w, v) in DELTA_WORDS.into_iter().zip([3u64, 40, 17, 40, 6, 2]) {
        parent[w] = v;
    }
    let decoded = QueryEvent::decode(&parent).expect("delta-era events decode");
    assert_eq!(decoded.encode(), words);
    assert_eq!(decoded.delta_rows_in, 0);
    assert_eq!(decoded.digest, ev.digest);
    // Reserved too: flag bit 3 and words 13–15, which builds with a
    // parallel shard probe filled (fan-out flag, items, estimated work,
    // threads). Such a capture decodes to the same event; word 12 keeps
    // its meaning, the shards probed.
    assert!(ev.shards_probed > 0, "the probe touched a shard");
    assert_eq!(words[12], ev.shards_probed);
    assert_eq!(words[1] & 1 << 3, 0);
    assert_eq!(words[13..=15], [0; 3]);
    let mut fanned = words;
    fanned[1] |= 1 << 3;
    fanned[13] = 140_000;
    fanned[14] = 131_072.5f64.to_bits();
    fanned[15] = 2;
    let decoded = QueryEvent::decode(&fanned).expect("fan-out-era events decode");
    assert_eq!(decoded.encode(), words);
    assert_eq!(decoded.shards_probed, ev.shards_probed);
    // An admitted event from such a build (token flag and balance set)
    // still decodes; a shed one fails by name.
    let mut old = words;
    old[1] |= 1 << 8;
    old[16] = 2.5f64.to_bits();
    let admitted = QueryEvent::decode(&old).expect("admitted events decode");
    assert_eq!(admitted.encode(), words);
    old[1] |= 1 << 4;
    assert!(matches!(
        QueryEvent::decode(&old),
        Err(EventDecodeError::Shed)
    ));
    // Wrong width is rejected, not mangled.
    assert!(QueryEvent::decode(&words[..31]).is_err());
}
