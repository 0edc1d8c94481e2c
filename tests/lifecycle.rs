//! Full system lifecycle: record → CSV interchange → segment → ingest
//! into a data directory → restart → query → retract → restart. This is
//! the CLI's workflow exercised at the library level.

use swag::prelude::*;
use swag::server::ServerConfig;
use swag_core::{read_reps_csv, read_trace_csv, write_reps_csv, write_trace_csv};
use swag_sensors::scenarios;

#[test]
fn record_to_retraction_lifecycle() {
    let cam = CameraProfile::smartphone();
    let noise = SensorNoise::smartphone();

    // --- Record two providers and push their traces through the CSV
    // interchange format (what the CLI does with files).
    let mut batches = Vec::new();
    for (provider, seed) in [(0u64, 11u64), (1, 12)] {
        let trace = scenarios::bike_ride_with_turn(80.0, 4.0, &noise, seed);
        let mut csv = Vec::new();
        write_trace_csv(&mut csv, &trace).unwrap();
        let parsed = read_trace_csv(&csv[..]).unwrap();
        assert_eq!(parsed.len(), trace.len());

        let result = ClientPipeline::process_trace_smoothed(cam, 0.5, 0.2, &parsed);
        assert!(result.segment_count() >= 2);

        // Representative FoVs also survive their CSV format.
        let mut reps_csv = Vec::new();
        write_reps_csv(&mut reps_csv, &result.reps).unwrap();
        let reps = read_reps_csv(&reps_csv[..]).unwrap();
        assert_eq!(reps.len(), result.reps.len());

        let mut uploader = Uploader::new(provider);
        let (_, batch) = uploader.upload(reps).expect("reps fit the codec range");
        batches.push(batch);
    }

    // --- Ingest into a data directory, restart on it.
    let dir = std::env::temp_dir().join(format!("swag-lifecycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || CloudServer::open(&dir, cam, ServerConfig::default()).unwrap();
    let server = open();
    for b in &batches {
        server.ingest_batch(b);
    }
    let total = server.stats().segments;
    assert!(total >= 4);
    drop(server);

    let restored = open();
    assert_eq!(restored.stats().segments, total);

    // --- Query the restored server: a point on the shared route.
    let spot = scenarios::default_origin().offset(0.0, 60.0);
    let q = Query::new(0.0, 60.0, spot, 100.0);
    let opts = QueryOptions {
        top_n: usize::MAX,
        ..QueryOptions::default()
    };
    let hits = restored.query(&q, &opts);
    assert!(!hits.is_empty());
    let providers: std::collections::HashSet<u64> =
        hits.iter().map(|h| h.source.provider_id).collect();
    assert_eq!(providers.len(), 2, "both providers filmed the route");

    // --- Provider 0 retracts; a restart preserves that.
    let removed = restored.retract_provider(0).unwrap();
    assert!(removed >= 2);
    drop(restored);
    let after = open();
    let hits = after.query(&q, &opts);
    assert!(!hits.is_empty());
    assert!(hits.iter().all(|h| h.source.provider_id == 1));
    drop(after);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quality_and_distance_rankings_agree_on_membership() {
    let cam = CameraProfile::smartphone();
    let server = CloudServer::new(cam);
    let reps = scenarios::citywide_rep_fovs(
        300,
        &scenarios::CitywideConfig {
            extent_m: 400.0,
            time_window_s: 600.0,
            min_segment_s: 5.0,
            max_segment_s: 30.0,
        },
        5,
    );
    for (i, rep) in reps.iter().enumerate() {
        server
            .ingest_one(
                *rep,
                SegmentRef {
                    provider_id: i as u64,
                    video_id: 0,
                    segment_idx: 0,
                },
            )
            .unwrap();
    }
    let q = Query::new(0.0, 600.0, scenarios::default_origin(), 150.0);
    let base = QueryOptions {
        top_n: usize::MAX,
        direction_filter: false,
        ..QueryOptions::default()
    };
    let by_distance = server.query(&q, &base);
    let by_quality = server.query(
        &q,
        &QueryOptions {
            rank: swag_server::RankMode::Quality,
            ..base
        },
    );
    // Same candidate set, different order.
    let mut a: Vec<_> = by_distance.iter().map(|h| h.id).collect();
    let mut b: Vec<_> = by_quality.iter().map(|h| h.id).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    // Quality ordering is non-increasing.
    assert!(by_quality.windows(2).all(|w| w[0].quality >= w[1].quality));
}

#[test]
fn batch_queries_scale_with_threads() {
    let cam = CameraProfile::smartphone();
    let server = CloudServer::new(cam);
    for (i, rep) in scenarios::citywide_rep_fovs(5000, &scenarios::CitywideConfig::default(), 9)
        .iter()
        .enumerate()
    {
        server
            .ingest_one(
                *rep,
                SegmentRef {
                    provider_id: i as u64,
                    video_id: 0,
                    segment_idx: 0,
                },
            )
            .unwrap();
    }
    let queries: Vec<Query> = (0..64)
        .map(|i| {
            Query::new(
                f64::from(i) * 100.0,
                f64::from(i) * 100.0 + 3600.0,
                scenarios::default_origin().offset(f64::from(i) * 5.0, 2000.0),
                500.0,
            )
        })
        .collect();
    let opts = QueryOptions {
        top_n: usize::MAX,
        direction_filter: false,
        ..QueryOptions::default()
    };
    let seq: Vec<usize> = queries
        .iter()
        .map(|q| server.query(q, &opts).len())
        .collect();
    let par = server.query_batch(&queries, &opts, 8);
    let par_counts: Vec<usize> = par.iter().map(Vec::len).collect();
    assert_eq!(seq, par_counts);
}
