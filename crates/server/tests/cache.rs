//! Result-cache correctness: a cache-enabled server must answer
//! byte-identically to a cache-disabled twin across interleaved
//! ingest/publish/expiry/retraction churn (the PR 5 equivalence-harness
//! shape), and a publish must invalidate only cache entries whose plans
//! touch the folded time shards — cold-region entries survive.

use proptest::prelude::*;
use swag_core::{CameraProfile, Fov, RepFov, UploadBatch};
use swag_geo::LatLon;
use swag_obs::Registry;
use swag_server::{
    CacheConfig, CloudServer, Query, QueryOptions, RankMode, SearchHit, ServerConfig,
};

fn base() -> LatLon {
    LatLon::new(40.0, 116.32)
}

/// Tiny deterministic generator (SplitMix64), same idiom as the engine
/// equivalence suite, so workloads are identical on every platform.
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

fn rep_at(rng: &mut Rng, t_lo: f64, t_hi: f64) -> RepFov {
    let dx = rng.f64(-700.0, 700.0);
    let dy = rng.f64(-700.0, 700.0);
    let theta = rng.f64(0.0, 360.0);
    let t0 = rng.f64(t_lo, t_hi);
    let dur = rng.f64(1.0, 60.0);
    RepFov::new(
        t0,
        t0 + dur,
        Fov::new(base().offset_by(swag_geo::Vec2::new(dx, dy)), theta),
    )
}

fn churn_config(cache: CacheConfig) -> ServerConfig {
    ServerConfig {
        shard_width_s: 120.0,
        cache,
        ..ServerConfig::default()
    }
}

fn option_matrix() -> Vec<QueryOptions> {
    vec![
        QueryOptions::default(),
        QueryOptions {
            top_n: 20,
            require_coverage: true,
            ..QueryOptions::default()
        },
        QueryOptions {
            top_n: 10,
            rank: RankMode::Quality,
            direction_tolerance_deg: 8.0,
            ..QueryOptions::default()
        },
    ]
}

/// Drives both servers through the same mutation and asserts every query
/// in the pool still answers identically — twice, so the second pass on
/// the cached server is served from warm entries wherever valid.
fn assert_pool_agrees(
    plain: &CloudServer,
    cached: &CloudServer,
    pool: &[Query],
    opts: &[QueryOptions],
    label: &str,
) {
    for _pass in 0..2 {
        for (qi, q) in pool.iter().enumerate() {
            for (oi, o) in opts.iter().enumerate() {
                let expected: Vec<SearchHit> = plain.query(q, o);
                let got = cached.query(q, o);
                assert_eq!(got, expected, "{label}: query {qi} opts {oi} diverged");
            }
        }
    }
}

/// Deterministic heavy-churn run: ingests in fold-forcing batches with a
/// retraction and an expiry mid-history, re-querying a fixed pool (plus
/// one cache-ineligible wide window) after every mutation.
#[test]
fn cached_and_uncached_agree_under_churn() {
    let mut rng = Rng(0x5747_2016);
    let plain = CloudServer::with_config(
        CameraProfile::smartphone(),
        churn_config(CacheConfig::default()),
    );
    let cached = CloudServer::with_config(
        CameraProfile::smartphone(),
        churn_config(CacheConfig::enabled(256)),
    );

    let mut pool: Vec<Query> = (0..12)
        .map(|_| {
            let dx = rng.f64(-700.0, 700.0);
            let dy = rng.f64(-700.0, 700.0);
            let r = rng.f64(50.0, 500.0);
            let t0 = rng.f64(0.0, 2800.0);
            let win = rng.f64(10.0, 600.0);
            Query::new(
                t0,
                t0 + win,
                base().offset_by(swag_geo::Vec2::new(dx, dy)),
                r,
            )
        })
        .collect();
    // A window spanning far more than CACHE_MAX_BUCKET_SPAN shard buckets:
    // ineligible for caching, must still flow through the same read path.
    pool.push(Query::new(0.0, 120.0 * 200.0, base(), 400.0));
    let opts = option_matrix();

    for (round, n) in [11usize, 8, 5, 16, 3, 9].into_iter().enumerate() {
        let reps: Vec<RepFov> = (0..n).map(|_| rep_at(&mut rng, 0.0, 3000.0)).collect();
        for server in [&plain, &cached] {
            server.ingest_batch(&UploadBatch {
                provider_id: round as u64,
                video_id: 3,
                reps: reps.clone(),
            });
        }
        assert_pool_agrees(&plain, &cached, &pool, &opts, &format!("round {round}"));
    }

    for server in [&plain, &cached] {
        server.retract_provider(1).unwrap();
    }
    assert_pool_agrees(&plain, &cached, &pool, &opts, "after retraction");

    for server in [&plain, &cached] {
        server.expire_before(900.0).unwrap();
    }
    assert_pool_agrees(&plain, &cached, &pool, &opts, "after expiry");
}

fn arb_rep() -> impl Strategy<Value = RepFov> {
    (
        -700.0f64..700.0,
        -700.0f64..700.0,
        0.0f64..360.0,
        0.0f64..3000.0,
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

fn arb_query() -> impl Strategy<Value = Query> {
    (
        -700.0f64..700.0,
        -700.0f64..700.0,
        20.0f64..500.0,
        0.0f64..3000.0,
        1.0f64..900.0,
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

fn arb_opts() -> impl Strategy<Value = QueryOptions> {
    (
        prop::bool::ANY,
        prop::bool::ANY,
        prop::bool::ANY,
        0.0f64..30.0,
        prop_oneof![Just(usize::MAX), 1usize..30],
    )
        .prop_map(|(dir, cov, quality, tol, top_n)| QueryOptions {
            top_n,
            direction_filter: dir,
            direction_tolerance_deg: tol,
            require_coverage: cov,
            rank: if quality {
                RankMode::Quality
            } else {
                RankMode::Distance
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary ingest batches interleaved with a re-queried pool: the
    /// cached server must stay byte-identical to the plain one no matter
    /// how publishes slice the stream or which entries survive each fold.
    #[test]
    fn cache_preserves_results_across_interleaved_ingests(
        batches in prop::collection::vec(prop::collection::vec(arb_rep(), 1..24), 1..5),
        queries in prop::collection::vec(arb_query(), 1..6),
        opts in arb_opts(),
    ) {
        let plain = CloudServer::with_config(
            CameraProfile::smartphone(),
            churn_config(CacheConfig::default()),
        );
        let cached = CloudServer::with_config(
            CameraProfile::smartphone(),
            churn_config(CacheConfig::enabled(128)),
        );
        for (i, reps) in batches.iter().enumerate() {
            for server in [&plain, &cached] {
                server.ingest_batch(&UploadBatch {
                    provider_id: (i % 3) as u64,
                    video_id: i as u64,
                    reps: reps.clone(),
                });
            }
            // Two passes: pass one seeds the cache, pass two reads any
            // entry the publish protocol kept alive.
            for _pass in 0..2 {
                for q in &queries {
                    prop_assert_eq!(cached.query(q, &opts), plain.query(q, &opts));
                }
            }
        }
    }
}

/// A publish must invalidate only entries whose plans touch the folded
/// time shards: after folding records into the hot region, the cold
/// region's entry is still served from cache while the hot region's
/// entry misses and recomputes.
#[test]
fn publish_invalidates_only_touched_time_shards() {
    let reg = Registry::new();
    let mut rng = Rng(0xCAFE);
    let mut server = CloudServer::with_config(
        CameraProfile::smartphone(),
        ServerConfig {
            shard_width_s: 100.0,
            cache: CacheConfig::enabled(64),
            ..ServerConfig::default()
        },
    );
    server.attach_observability(&reg);
    let hits = || reg.counter("swag_server_cache_hits_total").get();
    let misses = || reg.counter("swag_server_cache_misses_total").get();

    // Seed both regions and fold (batch size == threshold publishes).
    let mut reps: Vec<RepFov> = (0..4).map(|_| rep_at(&mut rng, 0.0, 80.0)).collect();
    reps.extend((0..4).map(|_| rep_at(&mut rng, 1000.0, 1080.0)));
    server.ingest_batch(&UploadBatch {
        provider_id: 1,
        video_id: 1,
        reps,
    });

    let cold = Query::new(0.0, 90.0, base(), 5_000.0); // bucket 0 only
    let hot = Query::new(1000.0, 1090.0, base(), 5_000.0); // bucket 10 only
    let opts = QueryOptions::default();

    let cold_before = server.query(&cold, &opts);
    let hot_before = server.query(&hot, &opts);
    assert_eq!((hits(), misses()), (0, 2), "first touch seeds both entries");
    assert_eq!(server.query(&cold, &opts), cold_before);
    assert_eq!(server.query(&hot, &opts), hot_before);
    assert_eq!((hits(), misses()), (2, 2), "second touch is a warm hit");

    // Fold a batch that only touches the hot region's shard bucket.
    let hot_reps: Vec<RepFov> = (0..8).map(|_| rep_at(&mut rng, 1000.0, 1080.0)).collect();
    server.ingest_batch(&UploadBatch {
        provider_id: 2,
        video_id: 2,
        reps: hot_reps,
    });

    // Cold entry survived the publish: its shard versions are untouched.
    assert_eq!(server.query(&cold, &opts), cold_before);
    assert_eq!(
        (hits(), misses()),
        (3, 2),
        "cold-region entry must survive a publish that folded other shards"
    );
    // Hot entry was invalidated: recompute (with the new records), then hit.
    let hot_after = server.query(&hot, &opts);
    assert!(
        hot_after.len() > hot_before.len(),
        "new hot records visible"
    );
    assert_eq!((hits(), misses()), (3, 3), "hot-region entry invalidated");
    assert_eq!(server.query(&hot, &opts), hot_after);
    assert_eq!((hits(), misses()), (4, 3), "recomputed hot entry re-cached");
}
