//! Property tests for the server: index candidates against brute force,
//! ranking invariants, sharded vs flat agreement, data-directory round
//! trips. (Decoder robustness against arbitrary and corrupted bytes is
//! `swag-store`'s `container.rs` proptests: recovery parses every file
//! through `decode_container`.)

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use swag_core::{CameraProfile, Fov, RepFov, UploadBatch};
use swag_geo::{LatLon, METERS_PER_DEG};
use swag_server::{
    CloudServer, DurabilityConfig, FovIndex, IndexKind, Query, QueryOptions, RankMode, SegmentId,
    SegmentRef, ServerConfig, ShardedFovIndex,
};

fn base() -> LatLon {
    LatLon::new(40.0, 116.32)
}

fn arb_rep() -> impl Strategy<Value = RepFov> {
    (
        -1000.0f64..1000.0,
        -1000.0f64..1000.0,
        0.0f64..360.0,
        0.0f64..3600.0,
        0.5f64..120.0,
    )
        .prop_map(|(dx, dy, theta, t0, dur)| {
            RepFov::new(
                t0,
                t0 + dur,
                Fov::new(base().offset_by(swag_geo::Vec2::new(dx, dy)), theta),
            )
        })
}

/// Reps on a 3 × 3 grid of 100 m cells with whole-minute intervals:
/// distance and quality ties are the rule, not the exception.
fn arb_tied_rep() -> impl Strategy<Value = RepFov> {
    (-1i32..=1, -1i32..=1, 0u8..4, 0u32..60, 1u32..12).prop_map(|(x, y, dir, min, len)| {
        let (east, north) = (f64::from(x) * 100.0, f64::from(y) * 100.0);
        let p = base().offset_by(swag_geo::Vec2::new(east, north));
        let (t0, t1) = (f64::from(min) * 60.0, f64::from(min + len) * 60.0);
        RepFov::new(t0, t1, Fov::new(p, f64::from(dir) * 90.0))
    })
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        -1000.0f64..1000.0,
        -1000.0f64..1000.0,
        10.0f64..500.0,
        0.0f64..3600.0,
        1.0f64..1800.0,
    )
        .prop_map(|(dx, dy, r, t0, win)| {
            Query::new(
                t0,
                t0 + win,
                base().offset_by(swag_geo::Vec2::new(dx, dy)),
                r,
            )
        })
}

/// The paper's candidate semantics, naively: spatial box + temporal
/// overlap.
fn naive_candidates(reps: &[RepFov], q: &Query) -> Vec<usize> {
    let r_lat = q.radius_m / METERS_PER_DEG;
    let r_lng = q.radius_m / (METERS_PER_DEG * q.center.lat.to_radians().cos());
    reps.iter()
        .enumerate()
        .filter(|(_, rep)| {
            (rep.fov.p.lat - q.center.lat).abs() <= r_lat
                && (rep.fov.p.lng - q.center.lng).abs() <= r_lng
                && rep.overlaps_time(q.t_start, q.t_end)
        })
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn index_candidates_match_naive(
        reps in prop::collection::vec(arb_rep(), 0..150),
        q in arb_query(),
    ) {
        let mut idx = FovIndex::new(IndexKind::RTree);
        for (i, rep) in reps.iter().enumerate() {
            idx.insert(rep, SegmentId(i as u32));
        }
        let mut got: Vec<usize> = idx.candidates(&q).into_iter().map(|id| id.0 as usize).collect();
        got.sort_unstable();
        prop_assert_eq!(got, naive_candidates(&reps, &q));
    }

    #[test]
    fn sharded_matches_flat(
        reps in prop::collection::vec(arb_rep(), 0..150),
        q in arb_query(),
        width in 60.0f64..1200.0,
        batch in 1usize..40,
    ) {
        let items: Vec<(RepFov, SegmentId)> =
            reps.iter().enumerate().map(|(i, rep)| (*rep, SegmentId(i as u32))).collect();
        let mut flat = FovIndex::new(IndexKind::RTree);
        for (rep, id) in &items {
            flat.insert(rep, *id);
        }
        let mut sharded = ShardedFovIndex::new(width, IndexKind::RTree);
        for chunk in items.chunks(batch) {
            sharded.bulk_insert(chunk);
        }
        let mut a = flat.candidates(&q);
        a.sort();
        prop_assert_eq!(a, sharded.candidates(&q));
    }

    /// Answers are a function of the ingested set, not of how ingests
    /// split it into folds and runs: the same arrivals as one batch,
    /// record by record, and in random chunks answer `query`,
    /// `query_batch` and `query_nearest` byte-identically, ties at the
    /// top-k cut included, and export the same records.
    #[test]
    fn batch_split_never_changes_results(
        reps in prop::collection::vec(arb_tied_rep(), 1..120),
        queries in prop::collection::vec(arb_query(), 1..6),
        cuts in prop::collection::vec(1usize..30, 1..12),
        top_n in 1usize..12,
        quality in prop::bool::ANY,
    ) {
        let opts = QueryOptions {
            top_n,
            direction_filter: false,
            rank: if quality { RankMode::Quality } else { RankMode::Distance },
            ..QueryOptions::default()
        };
        let answers = |ingest: &dyn Fn(&CloudServer)| {
            let server = CloudServer::new(CameraProfile::smartphone());
            ingest(&server);
            let single: Vec<_> = queries.iter().map(|q| server.query(q, &opts)).collect();
            let batch = server.query_batch(&queries, &opts, 2);
            let nearest: Vec<_> = queries
                .iter()
                .map(|q| server.query_nearest(q.t_start, q.t_end, q.center, top_n, &opts, 2000.0))
                .collect();
            let mut records = server.export_records();
            records.sort_by_key(|r| r.id);
            format!("{single:?}\n{batch:?}\n{nearest:?}\n{records:?}")
        };
        // Chunk `c` of a split is batch `c`, video = its first arrival;
        // ingested record by record, each record carries the source that
        // batch assigns it, so both servers hold the same records.
        let whole = std::slice::from_ref(&(0..reps.len())).to_vec();
        let mut split = Vec::new();
        let mut at = 0;
        for len in cuts.iter().cycle() {
            if at == reps.len() {
                break;
            }
            let end = (at + len).min(reps.len());
            split.push(at..end);
            at = end;
        }
        for chunks in [&whole[..], &split[..]] {
            let batches: Vec<UploadBatch> = (0u64..)
                .zip(chunks)
                .map(|(c, chunk)| UploadBatch {
                    provider_id: c % 3,
                    video_id: chunk.start as u64,
                    reps: reps[chunk.clone()].to_vec(),
                })
                .collect();
            let one_by_one = answers(&|server| {
                for b in &batches {
                    for (segment_idx, rep) in (0u32..).zip(&b.reps) {
                        let (provider_id, video_id) = (b.provider_id, b.video_id);
                        server.ingest_one(*rep, SegmentRef { provider_id, video_id, segment_idx }).unwrap();
                    }
                }
            });
            let batched = answers(&|server| {
                for b in &batches {
                    server.ingest_batch(b);
                }
            });
            prop_assert_eq!(batched, one_by_one);
        }
    }

    #[test]
    fn ranking_is_ordered_and_within_candidates(
        reps in prop::collection::vec(arb_rep(), 1..100),
        q in arb_query(),
        quality in prop::bool::ANY,
    ) {
        let server = CloudServer::new(CameraProfile::smartphone());
        for (i, rep) in reps.iter().enumerate() {
            server.ingest_one(*rep, SegmentRef {
                provider_id: i as u64,
                video_id: 0,
                segment_idx: 0,
            }).unwrap();
        }
        let opts = QueryOptions {
            top_n: usize::MAX,
            direction_filter: false,
            rank: if quality { RankMode::Quality } else { RankMode::Distance },
            ..QueryOptions::default()
        };
        let hits = server.query(&q, &opts);
        let naive = naive_candidates(&reps, &q);
        prop_assert_eq!(hits.len(), naive.len());
        if quality {
            prop_assert!(hits.windows(2).all(|w| w[0].quality >= w[1].quality));
            prop_assert!(hits.iter().all(|h| (0.0..=1.0).contains(&h.quality)));
        } else {
            prop_assert!(hits.windows(2).all(|w| w[0].distance_m <= w[1].distance_m));
        }
    }

    #[test]
    fn snapshot_round_trip_any_store(reps in prop::collection::vec(arb_rep(), 0..100)) {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "swag-props-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        // Snapshots about every 16 records (≈ 51 WAL bytes each):
        // reopening loads bucket files and replays the WAL tail past them.
        let config = ServerConfig {
            durability: DurabilityConfig {
                snapshot_min_wal_bytes: 16 * 51,
                ..DurabilityConfig::default()
            },
            ..ServerConfig::default()
        };
        let cam = CameraProfile::smartphone();
        let server = CloudServer::open(&dir, cam, config).unwrap();
        for (i, rep) in reps.iter().enumerate() {
            server.ingest_one(*rep, SegmentRef {
                provider_id: i as u64 % 5,
                video_id: i as u64,
                segment_idx: 0,
            }).unwrap();
        }
        server.quiesce();
        let restored = CloudServer::open(&dir, cam, config).unwrap();
        prop_assert_eq!(restored.stats().segments, reps.len());
        // Spot-check with a broad query.
        let q = Query::new(0.0, 7200.0, base(), 5000.0);
        let opts = QueryOptions {
            top_n: usize::MAX,
            direction_filter: false,
            ..QueryOptions::default()
        };
        let sources = |s: &CloudServer| {
            let mut v: Vec<_> = s.query(&q, &opts).iter().map(|h| h.source).collect();
            v.sort_by_key(|s| (s.provider_id, s.video_id));
            v
        };
        prop_assert_eq!(sources(&server), sources(&restored));
        drop((server, restored));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn top_n_is_a_prefix_of_the_full_ranking(
        reps in prop::collection::vec(arb_rep(), 1..100),
        q in arb_query(),
        n in 1usize..20,
    ) {
        let server = CloudServer::new(CameraProfile::smartphone());
        for (i, rep) in reps.iter().enumerate() {
            server.ingest_one(*rep, SegmentRef {
                provider_id: i as u64,
                video_id: 0,
                segment_idx: 0,
            }).unwrap();
        }
        let full = server.query(&q, &QueryOptions {
            top_n: usize::MAX,
            direction_filter: false,
            ..QueryOptions::default()
        });
        let top = server.query(&q, &QueryOptions {
            top_n: n,
            direction_filter: false,
            ..QueryOptions::default()
        });
        prop_assert_eq!(top.len(), full.len().min(n));
        for (a, b) in top.iter().zip(&full) {
            prop_assert_eq!(a.id, b.id);
        }
    }
}
