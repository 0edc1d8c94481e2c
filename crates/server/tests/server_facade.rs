//! Facade-level behaviour of [`CloudServer`]: the unit tests that lived
//! in `server.rs` before the engine split, now exercising the same
//! surface through the public API.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use swag_core::{CameraProfile, Fov, RepFov, UploadBatch};
use swag_geo::LatLon;
use swag_obs::{MonotonicClock, Registry};
use swag_server::{
    CloudServer, DurabilityConfig, IndexKind, Query, QueryOptions, RankMode, SearchHit, SegmentRef,
    ServerConfig,
};

fn center() -> LatLon {
    LatLon::new(40.0, 116.32)
}

/// Advances by a fixed step on every read, so each timed interval in
/// the query path is exactly `step` microseconds.
struct SteppingClock {
    t: AtomicU64,
    step: u64,
}

impl SteppingClock {
    fn with_step(step: u64) -> Arc<Self> {
        Arc::new(SteppingClock {
            t: AtomicU64::new(0),
            step,
        })
    }
}

impl MonotonicClock for SteppingClock {
    fn now_micros(&self) -> u64 {
        self.t.fetch_add(self.step, Ordering::Relaxed)
    }
}

fn batch(provider: u64, n: usize) -> UploadBatch {
    UploadBatch {
        provider_id: provider,
        video_id: 1,
        reps: (0..n)
            .map(|i| {
                let p = center().offset(180.0, 10.0 + i as f64 * 5.0);
                RepFov::new(i as f64 * 10.0, i as f64 * 10.0 + 8.0, Fov::new(p, 0.0))
            })
            .collect(),
    }
}

#[test]
fn ingest_and_query_round_trip() {
    let server = CloudServer::new(CameraProfile::smartphone());
    let ids = server.ingest_batch(&batch(42, 5));
    assert_eq!(ids.len(), 5);
    let q = Query::new(0.0, 100.0, center(), 100.0);
    let hits = server.query(&q, &QueryOptions::default());
    assert_eq!(hits.len(), 5);
    assert_eq!(hits[0].source.provider_id, 42);
    // Nearest first.
    assert!((hits[0].distance_m - 10.0).abs() < 0.5);
    let stats = server.stats();
    assert_eq!(stats.segments, 5);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.queries, 1);
}

#[test]
fn antimeridian_hits_are_ranked_the_short_way_round() {
    // A camera just east of the antimeridian, 110 m from a centre just
    // west of it: looking west it films the centre, looking east it
    // turns its back on it.
    let server = CloudServer::new(CameraProfile::smartphone());
    let p = LatLon::new(10.0, -179.9995);
    let reps = [270.0, 90.0].map(|theta| RepFov::new(0.0, 10.0, Fov::new(p, theta)));
    server.ingest_batch(&UploadBatch {
        provider_id: 7,
        video_id: 0,
        reps: reps.to_vec(),
    });
    let q = Query::new(0.0, 10.0, LatLon::new(10.0, 179.9995), 200.0);
    let hits = server.query(&q, &QueryOptions::default());
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rep.fov.theta, 270.0);
    assert!((hits[0].distance_m - 109.6).abs() < 0.1, "{hits:?}");
}

#[test]
fn temporal_window_restricts_results() {
    let server = CloudServer::new(CameraProfile::smartphone());
    server.ingest_batch(&batch(1, 5)); // segments at t = 0-8, 10-18, ...
    let q = Query::new(20.0, 28.0, center(), 200.0);
    let hits = server.query(&q, &QueryOptions::default());
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].rep.t_start, 20.0);
}

#[test]
fn explain_lists_runs_per_probed_shard() {
    // Every batch folds on its own: five segments, then one more into the
    // same 600 s shard, appended as a second run (5 > 2 × 1).
    let server = CloudServer::new(CameraProfile::smartphone());
    server.ingest_batch(&batch(1, 5));
    server.ingest_batch(&batch(2, 1));
    let q = Query::new(0.0, 100.0, center(), 100.0);
    let plan = server.explain(&q, &QueryOptions::default());
    assert!(
        plan.contains("shards  : probe 1 of 1 live (width 600 s): #0(x6/2r)"),
        "{plan}"
    );
}

#[test]
fn linear_and_rtree_servers_agree() {
    let a = CloudServer::with_index(CameraProfile::smartphone(), IndexKind::RTree);
    let b = CloudServer::with_index(CameraProfile::smartphone(), IndexKind::Linear);
    for provider in 0..10 {
        let batch = batch(provider, 8);
        a.ingest_batch(&batch);
        b.ingest_batch(&batch);
    }
    let q = Query::new(0.0, 100.0, center(), 60.0);
    let opts = QueryOptions {
        top_n: 50,
        ..QueryOptions::default()
    };
    let mut ha: Vec<_> = a.query(&q, &opts).iter().map(|h| h.source).collect();
    let mut hb: Vec<_> = b.query(&q, &opts).iter().map(|h| h.source).collect();
    ha.sort_by_key(|s| (s.provider_id, s.segment_idx));
    hb.sort_by_key(|s| (s.provider_id, s.segment_idx));
    assert_eq!(ha, hb);
}

#[test]
fn retract_provider_hides_their_segments() {
    let server = CloudServer::new(CameraProfile::smartphone());
    server.ingest_batch(&batch(1, 5));
    server.ingest_batch(&batch(2, 5));
    assert_eq!(server.stats().segments, 10);

    let removed = server.retract_provider(1).unwrap();
    assert_eq!(removed, 5);
    assert_eq!(server.stats().segments, 5);
    // Retracting again is a no-op.
    assert_eq!(server.retract_provider(1).unwrap(), 0);

    let q = Query::new(0.0, 100.0, center(), 200.0);
    let opts = QueryOptions {
        top_n: usize::MAX,
        direction_filter: false,
        ..QueryOptions::default()
    };
    let hits = server.query(&q, &opts);
    assert!(hits.iter().all(|h| h.source.provider_id == 2));
    assert_eq!(hits.len(), 5);
}

#[test]
fn retraction_removes_published_and_pending_records() {
    // Every batch is published (indexed and visible) when ingest_batch
    // returns: the first is one run of 13; the next two become a second
    // run of 6 (3 ≤ 2 × 3 merges, 13 > 2 × 6 does not). Retraction must
    // reach both runs.
    let server = CloudServer::new(CameraProfile::smartphone());
    let q = Query::new(0.0, 1000.0, center(), 500.0);
    let opts = QueryOptions {
        top_n: usize::MAX,
        direction_filter: false,
        ..QueryOptions::default()
    };
    server.ingest_batch(&batch(1, 13));
    assert_eq!(server.stats().shards, 1);
    assert_eq!(server.query(&q, &opts).len(), 13);
    server.ingest_batch(&batch(1, 3));
    server.ingest_batch(&batch(2, 3));
    assert_eq!(server.query(&q, &opts).len(), 19);
    assert!(server.explain(&q, &opts).contains("#0(x19/2r)"));

    assert_eq!(server.retract_provider(1).unwrap(), 16);
    let stats = server.stats();
    assert_eq!(stats.segments, 3);
    let hits = server.query(&q, &opts);
    assert_eq!(hits.len(), 3);
    assert!(hits.iter().all(|h| h.source.provider_id == 2));
}

#[test]
fn retraction_survives_snapshots() {
    let dir = std::env::temp_dir().join(format!("swag-facade-retract-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Snapshot on every publish: the retraction's own publish writes the
    // bucket files reopening loads, and retires the WAL that logged it.
    let config = ServerConfig {
        durability: DurabilityConfig {
            snapshot_min_wal_bytes: 0,
            ..DurabilityConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = CloudServer::open(&dir, CameraProfile::smartphone(), config).unwrap();
    server.ingest_batch(&batch(1, 4));
    server.ingest_batch(&batch(2, 4));
    server.retract_provider(1).unwrap();
    server.quiesce();
    drop(server);
    let restored = CloudServer::open(&dir, CameraProfile::smartphone(), config).unwrap();
    assert_eq!(restored.stats().segments, 4);
    let q = Query::new(0.0, 100.0, center(), 200.0);
    let opts = QueryOptions {
        top_n: usize::MAX,
        direction_filter: false,
        ..QueryOptions::default()
    };
    assert!(restored
        .query(&q, &opts)
        .iter()
        .all(|h| h.source.provider_id == 2));
    drop(restored);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retention_horizon_expires_old_segments_at_publish() {
    let server = CloudServer::with_config(
        CameraProfile::smartphone(),
        ServerConfig {
            shard_width_s: 50.0,
            retention_horizon_s: Some(100.0),
            ..ServerConfig::default()
        },
    );
    let src = |p| SegmentRef {
        provider_id: p,
        video_id: 0,
        segment_idx: 0,
    };
    let fov = Fov::new(center().offset(180.0, 20.0), 0.0);
    server
        .ingest_one(RepFov::new(0.0, 10.0, fov), src(1))
        .unwrap();
    assert_eq!(server.stats().segments, 1);
    // The second ingest moves the retention clock to t=510; the first
    // segment's shard now sits past the 100 s horizon and is dropped.
    server
        .ingest_one(RepFov::new(500.0, 510.0, fov), src(2))
        .unwrap();
    let stats = server.stats();
    assert_eq!(stats.segments, 1);
    let q = Query::new(0.0, 1000.0, center(), 500.0);
    let opts = QueryOptions {
        top_n: usize::MAX,
        direction_filter: false,
        ..QueryOptions::default()
    };
    let hits = server.query(&q, &opts);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].source.provider_id, 2);
}

#[test]
fn explicit_expiry_prunes_and_compacts_the_store() {
    let server = CloudServer::new(CameraProfile::smartphone());
    let fov = Fov::new(center().offset(180.0, 20.0), 0.0);
    // 40 old segments (bucket 0 at the default 600 s width), 10 recent.
    for i in 0..40u64 {
        server
            .ingest_one(
                RepFov::new(i as f64, i as f64 + 5.0, fov),
                SegmentRef {
                    provider_id: 1,
                    video_id: 0,
                    segment_idx: i as u32,
                },
            )
            .unwrap();
    }
    for i in 0..10u64 {
        server
            .ingest_one(
                RepFov::new(1000.0 + i as f64, 1005.0 + i as f64, fov),
                SegmentRef {
                    provider_id: 2,
                    video_id: 0,
                    segment_idx: i as u32,
                },
            )
            .unwrap();
    }
    assert_eq!(server.stats().segments, 50);

    let dropped = server.expire_before(600.0).unwrap();
    assert_eq!(dropped, 40);
    let stats = server.stats();
    assert_eq!(stats.segments, 10);
    // 40 tombstones out of 50 slots crosses the compaction threshold:
    // the store is re-packed densely.
    assert_eq!(stats.store_slots, 10);
    let q = Query::new(0.0, 2000.0, center(), 500.0);
    let opts = QueryOptions {
        top_n: usize::MAX,
        direction_filter: false,
        ..QueryOptions::default()
    };
    let hits = server.query(&q, &opts);
    assert_eq!(hits.len(), 10);
    assert!(hits.iter().all(|h| h.source.provider_id == 2));
    // Expiring again finds nothing new.
    assert_eq!(server.expire_before(600.0).unwrap(), 0);
}

#[test]
fn batch_query_matches_sequential() {
    let server = CloudServer::new(CameraProfile::smartphone());
    for provider in 0..6 {
        server.ingest_batch(&batch(provider, 8));
    }
    let queries: Vec<Query> = (0..23)
        .map(|i| {
            Query::new(
                f64::from(i) * 3.0,
                f64::from(i) * 3.0 + 40.0,
                center().offset(f64::from(i) * 16.0, 20.0),
                150.0,
            )
        })
        .collect();
    let opts = QueryOptions {
        top_n: usize::MAX,
        direction_filter: false,
        ..QueryOptions::default()
    };
    let sequential: Vec<Vec<SearchHit>> = queries.iter().map(|q| server.query(q, &opts)).collect();
    for threads in [1, 3, 8] {
        let parallel = server.query_batch(&queries, &opts, threads);
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            let pv: Vec<_> = p.iter().map(|h| h.source).collect();
            let sv: Vec<_> = s.iter().map(|h| h.source).collect();
            assert_eq!(pv, sv, "threads = {threads}");
        }
    }
}

#[test]
fn query_nearest_returns_k_closest() {
    let server = CloudServer::new(CameraProfile::smartphone());
    server.ingest_batch(&batch(5, 8)); // distances 10, 15, ..., 45 m south
    let opts = QueryOptions {
        direction_filter: false,
        ..QueryOptions::default()
    };
    let hits = server.query_nearest(0.0, 1000.0, center(), 3, &opts, 100_000.0);
    assert_eq!(hits.len(), 3);
    let d: Vec<f64> = hits.iter().map(|h| h.distance_m).collect();
    assert!((d[0] - 10.0).abs() < 0.5 && (d[1] - 15.0).abs() < 0.5 && (d[2] - 20.0).abs() < 0.5);
}

#[test]
fn quality_ties_rank_published_hits_before_pending_ones() {
    // Every segment sits beyond the camera's view radius, so all score
    // quality 0.0: ties break by segment id — earlier publishes first,
    // each in arrival order, however the batches were folded into runs.
    let server = CloudServer::new(CameraProfile::smartphone());
    for (provider, n) in [(1, 4), (2, 3)] {
        server.ingest_batch(&UploadBatch {
            provider_id: provider,
            video_id: 0,
            reps: (0..n)
                .map(|i| {
                    let p = center().offset(f64::from(i) * 50.0, 300.0);
                    RepFov::new(0.0, 10.0, Fov::new(p, 0.0))
                })
                .collect(),
        });
    }
    let opts = QueryOptions {
        direction_filter: false,
        rank: RankMode::Quality,
        top_n: usize::MAX,
        ..QueryOptions::default()
    };
    let hits = server.query(&Query::new(0.0, 10.0, center(), 500.0), &opts);
    assert!(hits.iter().all(|h| h.quality == 0.0));
    let order: Vec<(u64, u32)> = hits
        .iter()
        .map(|h| (h.source.provider_id, h.source.segment_idx))
        .collect();
    assert_eq!(&order[4..], &[(2, 0), (2, 1), (2, 2)], "{order:?}");
    assert!(order[..4].iter().all(|&(p, _)| p == 1), "{order:?}");
}

#[test]
fn query_nearest_prefers_a_nearer_segment_past_the_box_edge() {
    // Regression: a ring's boxes are the disc's bounding square. The
    // first 50 m ring finds only the 67 m segment in its NE corner; the
    // 60 m one due east lies past the square's edge. Stopping at k hits
    // returned the corner hit.
    let server = CloudServer::new(CameraProfile::smartphone());
    for (provider, bearing, dist) in [(1, 45.0, 67.0), (2, 90.0, 60.0)] {
        server
            .ingest_one(
                RepFov::new(0.0, 10.0, Fov::new(center().offset(bearing, dist), 0.0)),
                SegmentRef {
                    provider_id: provider,
                    video_id: 0,
                    segment_idx: 0,
                },
            )
            .unwrap();
    }
    let opts = QueryOptions {
        direction_filter: false,
        ..QueryOptions::default()
    };
    let hits = server.query_nearest(0.0, 10.0, center(), 1, &opts, 1_000.0);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].source.provider_id, 2, "{hits:?}");
    assert!((hits[0].distance_m - 60.0).abs() < 0.5);
}

#[test]
fn query_nearest_expands_radius_to_find_far_segments() {
    let server = CloudServer::new(CameraProfile::smartphone());
    // One lonely segment 3 km away, pointing at the centre.
    let p = center().offset(180.0, 3000.0);
    server
        .ingest_one(
            RepFov::new(0.0, 10.0, Fov::new(p, 0.0)),
            SegmentRef {
                provider_id: 1,
                video_id: 0,
                segment_idx: 0,
            },
        )
        .unwrap();
    let opts = QueryOptions {
        direction_filter: false,
        ..QueryOptions::default()
    };
    let hits = server.query_nearest(0.0, 100.0, center(), 1, &opts, 10_000.0);
    assert_eq!(hits.len(), 1);
    assert!((hits[0].distance_m - 3000.0).abs() < 10.0);
    // With a tight radius budget the search gives up empty-handed.
    assert!(server
        .query_nearest(0.0, 100.0, center(), 1, &opts, 500.0)
        .is_empty());
}

#[test]
fn query_nearest_zero_k() {
    let server = CloudServer::new(CameraProfile::smartphone());
    server.ingest_batch(&batch(1, 3));
    assert!(server
        .query_nearest(0.0, 100.0, center(), 0, &QueryOptions::default(), 1e5)
        .is_empty());
}

#[test]
fn quality_nearest_keeps_expanding_past_early_hits() {
    // Regression: the k-hit early exit is only sound under Distance
    // ranking. Under Quality, a far-but-dead-on segment outranks a
    // near-but-askew one, so stopping at the first ring that yields k
    // hits returns the wrong segment.
    let server = CloudServer::new(CameraProfile::smartphone());
    // 20 m south but pointing 20 degrees off the scene: quality
    // 0.8 (proximity) x 0.2 (alignment) = 0.16.
    server
        .ingest_one(
            RepFov::new(0.0, 10.0, Fov::new(center().offset(180.0, 20.0), 20.0)),
            SegmentRef {
                provider_id: 1,
                video_id: 0,
                segment_idx: 0,
            },
        )
        .unwrap();
    // 80 m south, dead-on: quality 0.2 x 1.0 = 0.2. Outside the
    // initial 50 m ring, so a premature exit never sees it.
    server
        .ingest_one(
            RepFov::new(0.0, 10.0, Fov::new(center().offset(180.0, 80.0), 0.0)),
            SegmentRef {
                provider_id: 2,
                video_id: 0,
                segment_idx: 0,
            },
        )
        .unwrap();
    let opts = QueryOptions {
        rank: RankMode::Quality,
        direction_filter: false,
        ..QueryOptions::default()
    };
    let hits = server.query_nearest(0.0, 10.0, center(), 1, &opts, 200.0);
    assert_eq!(hits.len(), 1);
    assert_eq!(
        hits[0].source.provider_id, 2,
        "quality ranking must surface the dead-on segment beyond the first ring"
    );
    // Distance mode still prefers the nearer segment.
    let opts = QueryOptions {
        rank: RankMode::Distance,
        direction_filter: false,
        ..QueryOptions::default()
    };
    let hits = server.query_nearest(0.0, 10.0, center(), 1, &opts, 200.0);
    assert_eq!(hits[0].source.provider_id, 1);
}

#[test]
fn injected_clock_makes_latency_accounting_exact() {
    let clock = SteppingClock::with_step(7);
    let server =
        CloudServer::with_clock(CameraProfile::smartphone(), IndexKind::RTree, clock.clone());
    server.ingest_batch(&batch(1, 5));
    let q = Query::new(0.0, 100.0, center(), 100.0);
    let before = clock.t.load(Ordering::Relaxed);
    for _ in 0..10 {
        server.query(&q, &QueryOptions::default());
    }
    // A server nothing observes reads the clock exactly twice per query
    // (start and end of the latency accounting): the stage probe on this
    // path is zero-sized and clock-free.
    assert_eq!(clock.t.load(Ordering::Relaxed) - before, 10 * 2 * 7);
    let stats = server.stats();
    assert_eq!(stats.queries, 10);
    assert_eq!(stats.query_micros_total, 10 * 7);
    // No observability attached: phase histograms stay empty.
    assert_eq!(stats.query_micros, swag_obs::HistogramSnapshot::empty());
}

#[test]
fn observability_splits_query_phases_exactly() {
    let reg = Registry::new();
    let mut server = CloudServer::with_clock(
        CameraProfile::smartphone(),
        IndexKind::RTree,
        SteppingClock::with_step(5),
    );
    server.attach_observability(&reg);
    server.ingest_batch(&batch(3, 6));
    let q = Query::new(0.0, 100.0, center(), 200.0);
    for _ in 0..4 {
        server.query(&q, &QueryOptions::default());
    }

    let stats = server.stats();
    assert_eq!(stats.queries, 4);
    // Measured queries read the clock four times (t0, operators begin,
    // index scanned, done): the total is exactly three steps.
    assert_eq!(stats.query_micros.sum, 4 * 15);
    assert_eq!(stats.query_micros_total, 4 * 15);

    // The per-operator split is exact: one step per stage, keyed by the
    // same names `explain` and EXPLAIN ANALYZE use.
    for op in ["index_scan", "ranking"] {
        let h = reg
            .histogram(&swag_obs::labeled_name(
                "swag_server_op_micros",
                &[("op", op)],
            ))
            .snapshot();
        assert_eq!((h.count, h.sum), (4, 4 * 5), "op {op}");
    }
    // The batch was published when ingest_batch returned: every hit
    // comes from the index, out of its one shard.
    assert_eq!(
        reg.counter(&swag_obs::labeled_name(
            "swag_server_hits_total",
            &[("src", "index")],
        ))
        .get(),
        4 * 6
    );
    let probed = reg.histogram("swag_server_shards_probed").snapshot();
    assert_eq!((probed.count, probed.sum), (4, 4));
    let rows = reg
        .histogram(&swag_obs::labeled_name(
            "swag_server_op_rows_out",
            &[("op", "ranking")],
        ))
        .snapshot();
    assert_eq!((rows.count, rows.sum), (4, 4 * 6));

    // The same numbers are visible through the registry.
    assert_eq!(
        reg.histogram("swag_server_query_micros").snapshot().count,
        4
    );
    assert_eq!(reg.counter("swag_server_segments_ingested_total").get(), 6);
    assert_eq!(
        reg.histogram("swag_server_ingest_micros").snapshot().count,
        1
    );
    let cands = reg
        .histogram(&swag_obs::labeled_name(
            "swag_server_op_rows_in",
            &[("op", "ranking")],
        ))
        .snapshot();
    assert_eq!(cands.count, 4);
    assert_eq!(cands.sum, 4 * 6);
    assert!(
        reg.histogram("swag_server_index_leaves_scanned")
            .snapshot()
            .sum
            >= 4
    );
}

#[test]
fn op_rows_keep_their_meaning_in_the_fused_pass() {
    // The index scan filters and collects as it goes; its rows out are
    // still the box matches after cross-shard dedup, the ranking's rows
    // in those box matches, and the index hits the filter survivors.
    // Each operator still costs one clock step.
    let reg = Registry::new();
    let mut server = CloudServer::with_config_and_clock(
        CameraProfile::smartphone(),
        ServerConfig {
            shard_width_s: 15.0, // segments [10i, 10i + 8] span two shards
            ..ServerConfig::default()
        },
        SteppingClock::with_step(5),
    );
    server.attach_observability(&reg);
    server.ingest_batch(&batch(3, 6));
    server.ingest_batch(&batch(4, 2)); // a second run in buckets 0..=1
    server.query(
        &Query::new(0.0, 100.0, center(), 200.0),
        &QueryOptions::default(),
    );
    let op = |metric: &str, op: &str| {
        let h = reg
            .histogram(&swag_obs::labeled_name(metric, &[("op", op)]))
            .snapshot();
        (h.count, h.sum)
    };
    assert_eq!(op("swag_server_op_rows_out", "index_scan"), (1, 8));
    assert_eq!(op("swag_server_op_rows_in", "ranking"), (1, 8));
    assert_eq!(op("swag_server_op_rows_out", "ranking"), (1, 8));
    for stage in ["index_scan", "ranking"] {
        assert_eq!(op("swag_server_op_micros", stage), (1, 5), "op {stage}");
    }
    let hits = |src: &str| {
        reg.counter(&swag_obs::labeled_name(
            "swag_server_hits_total",
            &[("src", src)],
        ))
        .get()
    };
    assert_eq!((hits("index"), hits("cold")), (8, 0));
    // Buckets 0..=3 hold them; two segments sit in two shards each.
    assert_eq!(reg.histogram("swag_server_shards_probed").snapshot().sum, 4);
}

#[test]
fn refresh_gauges_exports_engine_internals() {
    let reg = Registry::new();
    let mut server = CloudServer::with_config_and_clock(
        CameraProfile::smartphone(),
        ServerConfig {
            shard_width_s: 10.0,
            ..ServerConfig::default()
        },
        SteppingClock::with_step(5),
    );
    server.attach_observability(&reg);
    server.ingest_batch(&batch(1, 5));
    server.refresh_gauges(&reg);
    assert!(reg.gauge("swag_server_epoch_age_micros").get() > 0);
    // batch() places rep i at [10i, 10i+8]: five 10-second shards,
    // one entry each.
    let shards: Vec<String> = reg
        .names()
        .into_iter()
        .filter(|n| n.starts_with("swag_server_shard_entries{"))
        .collect();
    assert_eq!(shards.len(), 5, "{shards:?}");
    for shard in &shards {
        assert_eq!(reg.gauge(shard).get(), 1, "{shard}");
    }
    // Expiry zeroes the shard gauges instead of leaving them stale.
    server.expire_before(1_000.0).unwrap();
    server.refresh_gauges(&reg);
    for shard in &shards {
        assert_eq!(reg.gauge(shard).get(), 0, "{shard}");
    }
}

#[test]
fn publish_metrics_record_snapshot_lifecycle() {
    let reg = Registry::new();
    let mut server = CloudServer::new(CameraProfile::smartphone());
    server.attach_observability(&reg);
    // Every non-empty batch is one publish; an empty one publishes
    // nothing.
    server.ingest_batch(&batch(1, 3));
    assert_eq!(reg.counter("swag_server_publishes_total").get(), 1);
    server.ingest_batch(&batch(2, 0));
    server.ingest_batch(&batch(2, 2));
    assert_eq!(reg.counter("swag_server_publishes_total").get(), 2);
    assert_eq!(server.stats().batches, 3);
    assert_eq!(
        reg.histogram("swag_server_snapshot_rebuild_micros")
            .snapshot()
            .count,
        2
    );
    assert_eq!(
        reg.histogram("swag_server_snapshot_age_micros")
            .snapshot()
            .count,
        2
    );
    // The shard-probe metric records each executed query.
    let q = Query::new(0.0, 1000.0, center(), 500.0);
    server.query(&q, &QueryOptions::default());
    assert_eq!(
        reg.histogram("swag_server_shards_probed").snapshot().count,
        1
    );
}

#[test]
fn concurrent_ingest_and_query() {
    let server = CloudServer::new(CameraProfile::smartphone());
    std::thread::scope(|s| {
        for provider in 0..8u64 {
            let server = &server;
            s.spawn(move || {
                for _ in 0..20 {
                    server.ingest_batch(&batch(provider, 3));
                }
            });
        }
        for _ in 0..4 {
            let server = &server;
            s.spawn(move || {
                let q = Query::new(0.0, 1000.0, center(), 500.0);
                for _ in 0..50 {
                    let _ = server.query(&q, &QueryOptions::default());
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.segments, 8 * 20 * 3);
    assert_eq!(stats.batches, 160);
    assert_eq!(stats.queries, 200);
    // Final query sees everything in the window.
    let q = Query::new(0.0, 1000.0, center(), 500.0);
    let opts = QueryOptions {
        top_n: usize::MAX,
        direction_filter: false,
        ..QueryOptions::default()
    };
    assert_eq!(server.query(&q, &opts).len(), 480);
}
