//! Concurrent lifecycle stress: ingest, retraction, expiry, and queries
//! all racing against the snapshot-publishing server.
//!
//! The invariants checked from the query threads hold because every
//! mutation publishes a fresh epoch *before* returning: once a
//! retraction or expiry has completed, no later query may observe the
//! removed segments.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use swag_core::{CameraProfile, Fov, RepFov, UploadBatch};
use swag_geo::LatLon;
use swag_server::{CloudServer, IndexKind, Query, QueryOptions, ServerConfig};

fn center() -> LatLon {
    LatLon::new(40.0, 116.32)
}

const SHARD_WIDTH_S: f64 = 5.0;

fn batch(provider: u64, video: u64, t0: f64, n: usize) -> UploadBatch {
    UploadBatch {
        provider_id: provider,
        video_id: video,
        reps: (0..n)
            .map(|i| {
                let p = center().offset(f64::from(provider as u32 % 360), 10.0 + i as f64 * 3.0);
                let s = t0 + i as f64 * 2.0;
                RepFov::new(s, s + 1.5, Fov::new(p, 0.0))
            })
            .collect(),
    }
}

#[test]
fn concurrent_ingest_retract_expire_query_stays_consistent() {
    let server = CloudServer::with_config(
        CameraProfile::smartphone(),
        ServerConfig {
            index: IndexKind::RTree,
            shard_width_s: SHARD_WIDTH_S,
            ..ServerConfig::default()
        },
    );
    // Providers whose retraction has *completed* (published) so far.
    let retracted = Mutex::new(HashSet::new());
    // Highest horizon an expire_before call has fully applied.
    let horizon_done = AtomicU64::new(0);

    std::thread::scope(|s| {
        // Steady ingest from long-lived providers.
        for provider in 1..=4u64 {
            let server = &server;
            s.spawn(move || {
                for round in 0..30 {
                    server.ingest_batch(&batch(provider, round, f64::from(round as u32) * 30.0, 3));
                }
            });
        }
        // Churning providers: ingest, then retract everything they own.
        {
            let server = &server;
            let retracted = &retracted;
            s.spawn(move || {
                for i in 0..15u64 {
                    let provider = 500 + i;
                    server.ingest_batch(&batch(provider, 0, f64::from(i as u32) * 40.0, 4));
                    // Rolling expiry may beat us to some of the four.
                    assert!(server.retract_provider(provider).unwrap() <= 4);
                    retracted.lock().unwrap().insert(provider);
                }
            });
        }
        // Rolling expiry with a monotonically advancing horizon.
        {
            let server = &server;
            let horizon_done = &horizon_done;
            s.spawn(move || {
                for k in 1..=20u64 {
                    let h = k as f64 * 10.0;
                    server.expire_before(h).unwrap();
                    horizon_done.fetch_max(h as u64, Ordering::SeqCst);
                }
            });
        }
        // Queries validating every hit against what must already hold.
        for _ in 0..3 {
            let server = &server;
            let retracted = &retracted;
            s.spawn(move || {
                let opts = QueryOptions {
                    top_n: usize::MAX,
                    direction_filter: false,
                    ..QueryOptions::default()
                };
                for round in 0..40 {
                    // Snapshot taken BEFORE the query: any retraction
                    // recorded here was fully published when the query
                    // started, so its segments must not appear. (No such
                    // claim is made for the expiry horizon mid-flight:
                    // an ingest of old-timestamped data may legitimately
                    // land after the latest expiry; it is re-checked
                    // after quiescence below.)
                    let gone: HashSet<u64> = retracted.lock().unwrap().clone();
                    let q = Query::new(
                        f64::from(round) * 20.0,
                        f64::from(round) * 20.0 + 400.0,
                        center(),
                        500.0,
                    );
                    for hit in server.query(&q, &opts) {
                        assert!(
                            !gone.contains(&hit.source.provider_id),
                            "hit from provider {} retracted before the query",
                            hit.source.provider_id
                        );
                        // Inside the query window...
                        assert!(hit.rep.t_end >= q.t_start && hit.rep.t_start <= q.t_end);
                        // ...and inside the query circle (small slack for
                        // the degree-box conversion).
                        assert!(hit.distance_m <= q.radius_m + 1.0);
                    }
                }
            });
        }
    });

    // Quiescent cross-check: re-apply the final horizon (late ingests of
    // old-timestamped data may have outrun the rolling expiry), then
    // stats, the exported records, and a full query must all agree.
    let h = horizon_done.load(Ordering::SeqCst) as f64;
    assert!((h - 200.0).abs() < f64::EPSILON);
    server.expire_before(h).unwrap();
    let stats = server.stats();
    let records = server.export_records();
    assert_eq!(stats.segments, records.len());
    let gone = retracted.lock().unwrap();
    assert_eq!(gone.len(), 15);
    assert!(records
        .iter()
        .all(|r| !gone.contains(&r.source.provider_id)));
    assert!(records
        .iter()
        .all(|r| (r.rep.t_end / SHARD_WIDTH_S).floor() >= (h / SHARD_WIDTH_S).floor()));
    let opts = QueryOptions {
        top_n: usize::MAX,
        direction_filter: false,
        ..QueryOptions::default()
    };
    let all = server.query(&Query::new(-1e9, 1e9, center(), 1e9), &opts);
    assert_eq!(all.len(), records.len());
}
