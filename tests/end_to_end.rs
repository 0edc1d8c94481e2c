//! End-to-end integration: provider recording → wire codec → server
//! ingest → spatio-temporal query, validated against brute force.

use rand::rngs::StdRng;
use rand::SeedableRng;
use swag::prelude::*;
use swag_core::DescriptorCodec;
use swag_sensors::{generate_trace, scenarios, Mobility};

fn build_crowd(n_providers: u64) -> (CloudServer, Vec<(SegmentRef, RepFov)>) {
    let cam = CameraProfile::smartphone();
    let origin = scenarios::default_origin();
    let frame = LocalFrame::new(origin);
    let noise = SensorNoise::smartphone();
    let server = CloudServer::new(cam);
    let mut all = Vec::new();

    for provider in 0..n_providers {
        let mobility = Mobility::random_waypoint(provider, 400.0, 5, 1.4);
        let duration = mobility.natural_duration_s().unwrap().min(240.0);
        let cfg = TraceConfig::new(25.0, duration).starting_at(provider as f64 * 30.0);
        let mut rng = StdRng::seed_from_u64(provider);
        let trace = generate_trace(
            &mobility,
            &frame,
            &cfg,
            &noise,
            &DeviceClock::PERFECT,
            &mut rng,
        );
        let result = ClientPipeline::process_trace(cam, 0.5, &trace);
        let mut uploader = Uploader::new(provider);
        let (wire, _) = uploader
            .upload(result.reps)
            .expect("reps fit the codec range");

        // Ship the actual wire bytes: decode on the "server side".
        let batch = DescriptorCodec::decode_batch(wire).expect("valid wire message");
        let ids = server.ingest_batch(&batch);
        for (i, rep) in batch.reps.iter().enumerate() {
            all.push((
                SegmentRef {
                    provider_id: provider,
                    video_id: batch.video_id,
                    segment_idx: i as u32,
                },
                *rep,
            ));
        }
        assert_eq!(ids.len(), batch.reps.len());
    }
    (server, all)
}

#[test]
fn query_results_match_brute_force() {
    let (server, all) = build_crowd(20);
    let origin = scenarios::default_origin();

    for (qi, (bearing, dist, t0, t1, radius)) in [
        (0.0, 100.0, 0.0, 300.0, 80.0),
        (90.0, 250.0, 100.0, 400.0, 150.0),
        (200.0, 50.0, 0.0, 50.0, 40.0),
    ]
    .iter()
    .enumerate()
    {
        let center = origin.offset(*bearing, *dist);
        let query = Query::new(*t0, *t1, center, *radius);
        let opts = QueryOptions {
            top_n: usize::MAX,
            direction_filter: false,
            ..QueryOptions::default()
        };
        let hits = server.query(&query, &opts);

        // Brute force over every uploaded rep with the paper's semantics:
        // spatial box overlap + temporal overlap.
        let r_lat = radius / swag_geo::METERS_PER_DEG;
        let r_lng = radius / (swag_geo::METERS_PER_DEG * center.lat.to_radians().cos());
        let expected: Vec<SegmentRef> = all
            .iter()
            .filter(|(_, rep)| {
                (rep.fov.p.lat - center.lat).abs() <= r_lat
                    && (rep.fov.p.lng - center.lng).abs() <= r_lng
                    && rep.overlaps_time(*t0, *t1)
            })
            .map(|(sref, _)| *sref)
            .collect();

        let mut got: Vec<SegmentRef> = hits.iter().map(|h| h.source).collect();
        let mut want = expected;
        got.sort_by_key(|s| (s.provider_id, s.video_id, s.segment_idx));
        want.sort_by_key(|s| (s.provider_id, s.video_id, s.segment_idx));
        assert_eq!(got, want, "query {qi} disagreed with brute force");
    }
}

#[test]
fn ranking_is_by_distance_and_respects_top_n() {
    let (server, _) = build_crowd(10);
    let origin = scenarios::default_origin();
    let query = Query::new(0.0, 400.0, origin, 300.0);
    let opts = QueryOptions {
        top_n: 7,
        direction_filter: false,
        ..QueryOptions::default()
    };
    let hits = server.query(&query, &opts);
    assert!(hits.len() <= 7);
    assert!(hits.windows(2).all(|w| w[0].distance_m <= w[1].distance_m));
}

#[test]
fn direction_filter_only_removes_hits() {
    let (server, _) = build_crowd(12);
    let origin = scenarios::default_origin();
    let query = Query::new(0.0, 400.0, origin.offset(30.0, 120.0), 100.0);
    let all = server.query(
        &query,
        &QueryOptions {
            top_n: usize::MAX,
            direction_filter: false,
            ..QueryOptions::default()
        },
    );
    let filtered = server.query(
        &query,
        &QueryOptions {
            top_n: usize::MAX,
            direction_filter: true,
            direction_tolerance_deg: 0.0,
            ..QueryOptions::default()
        },
    );
    assert!(filtered.len() <= all.len());
    // Every filtered hit is present in the unfiltered list.
    for hit in &filtered {
        assert!(all.iter().any(|h| h.source == hit.source));
    }
}

#[test]
fn concurrent_queries_while_ingesting() {
    let cam = CameraProfile::smartphone();
    let server = CloudServer::new(cam);
    let origin = scenarios::default_origin();
    let reps = swag_sensors::scenarios::citywide_rep_fovs(
        2000,
        &swag_sensors::scenarios::CitywideConfig::default(),
        99,
    );
    ingest_while_querying(&server, &reps, origin);
    assert_eq!(server.stats().segments, 2000);
    assert!(server.stats().queries >= 64);
}

fn ingest_while_querying(server: &CloudServer, reps: &[RepFov], origin: LatLon) {
    std::thread::scope(|s| {
        for chunk in reps.chunks(250) {
            s.spawn(move || {
                for (i, rep) in chunk.iter().enumerate() {
                    server
                        .ingest_one(
                            *rep,
                            SegmentRef {
                                provider_id: i as u64,
                                video_id: 0,
                                segment_idx: i as u32,
                            },
                        )
                        .unwrap();
                }
            });
        }
        for t in 0..4 {
            s.spawn(move || {
                let q = Query::new(0.0, 86_400.0, origin, 5_000.0);
                for _ in 0..16 {
                    let _ = server.query(
                        &q,
                        &QueryOptions {
                            top_n: 10 + t,
                            ..QueryOptions::default()
                        },
                    );
                }
            });
        }
    });
}
