//! The distance rank stops its index scan at the first leaf that cannot
//! beat the k-th hit: answers must stay those of a full scan.
//!
//! Each case builds the same server twice, once over R-tree runs (whose
//! leaves the distance rank orders and prunes) and once over the Fig.
//! 6(c) linear scan (one leaf per run, never pruned), and asks both the
//! same queries under both rank modes and every kind of `k`. Records
//! repeat positions (equal distances break ties by id), span several
//! time shards, sit across the antimeridian or next to a pole, belong to
//! retracted providers, or were demoted to the cold tier.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use swag_core::{CameraProfile, Fov, RepFov, UploadBatch};
use swag_geo::LatLon;
use swag_server::{CloudServer, IndexKind, Query, QueryOptions, RankMode, ServerConfig};

const WIDTH_S: f64 = 600.0;

/// Mid-latitude, on the antimeridian, next to the pole.
const SITES: [(f64, f64); 3] = [(40.0, 116.32), (10.0, 179.9995), (89.9995, 30.0)];

const KS: [usize; 5] = [1, 2, 10, 50, usize::MAX];

fn tmp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "swag-distance-prune-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `(dlat, dlng)` in degrees around a site, wrapped onto the globe.
fn at(site: (f64, f64), dlat: f64, dlng: f64) -> LatLon {
    let lat = (site.0 + dlat).clamp(-90.0, 90.0);
    let lng = (site.1 + dlng + 180.0).rem_euclid(360.0) - 180.0;
    LatLon::new(lat, lng)
}

/// A server over `kind`, durable in `dir` when given.
fn server(kind: IndexKind, dir: Option<&PathBuf>) -> CloudServer {
    let config = ServerConfig {
        index: kind,
        shard_width_s: WIDTH_S,
        ..ServerConfig::default()
    };
    let cam = CameraProfile::smartphone();
    match dir {
        Some(dir) => CloudServer::open(dir, cam, config).expect("open data dir"),
        None => CloudServer::with_config(cam, config),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn pruned_answers_equal_the_linear_scan(
        site in 0usize..SITES.len(),
        // (t_start, duration, dlat, dlng, theta, copies): durations up to
        // 1 500 s span up to four 600 s shards; copies share a position.
        recs in prop::collection::vec(
            (0.0..3_000.0f64, 0.0..1_500.0f64, -0.01..0.01f64, -0.01..0.01f64,
             0.0..360.0f64, 1usize..4),
            1..120,
        ),
        // Records per upload batch: one publish, one run per shard.
        batch in 1usize..60,
        // Provider to retract (5: none), and whether the first two
        // shards are demoted to a cold tier first.
        retract in 0u64..6,
        cold in any::<bool>(),
        // (t_start, length, dlat, dlng, radius, direction filter).
        queries in prop::collection::vec(
            (-500.0..3_500.0f64, 0.0..4_000.0f64, -0.01..0.01f64, -0.01..0.01f64,
             20.0..2_000.0f64, any::<bool>()),
            1..6,
        ),
    ) {
        let site = SITES[site];
        let dirs = cold.then(|| [tmp_dir(), tmp_dir()]);
        let pruned = server(IndexKind::RTree, dirs.as_ref().map(|d| &d[0]));
        let linear = server(IndexKind::Linear, dirs.as_ref().map(|d| &d[1]));
        let reps: Vec<RepFov> = recs
            .iter()
            .flat_map(|&(t, dur, dlat, dlng, theta, copies)| {
                let rep = RepFov::new(t, t + dur, Fov::new(at(site, dlat, dlng), theta));
                std::iter::repeat_n(rep, copies)
            })
            .collect();
        for (video_id, chunk) in (0u64..).zip(reps.chunks(batch)) {
            let upload = UploadBatch {
                provider_id: video_id % 5,
                video_id,
                reps: chunk.to_vec(),
            };
            prop_assert_eq!(pruned.ingest_batch(&upload), linear.ingest_batch(&upload));
        }
        if cold {
            let horizon = 2.0 * WIDTH_S;
            prop_assert_eq!(pruned.expire_before(horizon).ok(), linear.expire_before(horizon).ok());
        }
        if retract < 5 {
            prop_assert_eq!(pruned.retract_provider(retract).ok(), linear.retract_provider(retract).ok());
        }
        for &(t0, len, dlat, dlng, radius, direction_filter) in &queries {
            let query = Query::new(t0, t0 + len, at(site, dlat, dlng), radius);
            for rank in [RankMode::Distance, RankMode::Quality] {
                for top_n in KS {
                    let opts = QueryOptions {
                        top_n,
                        direction_filter,
                        rank,
                        ..QueryOptions::default()
                    };
                    let answer = pruned.query(&query, &opts);
                    prop_assert_eq!(&answer, &linear.query(&query, &opts), "{:?} {:?}", query, opts);
                    prop_assert_eq!(&answer, &pruned.query_analyzed(0, &query, &opts).hits);
                }
            }
        }
        drop((pruned, linear));
        for dir in dirs.iter().flatten() {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// A leaf bounded exactly at the k-th distance may hold a hit that ties
/// it and wins on id: it must still be scanned. Two cameras stand on the
/// query centre; the lower id sits in the later shard, so the scan meets
/// the other one first, and both leaves are bounded at 0 m.
#[test]
fn ties_at_the_k_th_distance_are_still_visited() {
    let c = LatLon::new(40.0, 116.32);
    let opts = QueryOptions {
        top_n: 1,
        direction_filter: false,
        ..QueryOptions::default()
    };
    let query = Query::new(0.0, 1_000.0, c, 300.0);
    let mut answers = Vec::new();
    for kind in [IndexKind::RTree, IndexKind::Linear] {
        let server = server(kind, None);
        for (video_id, t) in [(0, 700.0), (1, 100.0)] {
            // Padding around the centre makes every run several leaves.
            let mut reps = vec![RepFov::new(t, t + 5.0, Fov::new(c, 0.0))];
            reps.extend((1..40).map(|i| {
                let p = c.offset(f64::from(i) * 37.0, f64::from(i) * 5.0);
                RepFov::new(t, t + 5.0, Fov::new(p, 90.0))
            }));
            let upload = UploadBatch {
                provider_id: video_id,
                video_id,
                reps,
            };
            server.ingest_batch(&upload);
        }
        let hits = server.query(&query, &opts);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].distance_m, 0.0);
        answers.push(hits);
    }
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[0][0].id.0, 0, "the lower id wins the tie");
}
