//! Differential test of the cold tier's zone-map pruning: whatever the
//! catalog prunes, `cold_scan` must rank exactly what a linear pass over
//! every demoted record ranks, in the same order.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use swag_core::{CameraProfile, Fov, RepFov};
use swag_geo::LatLon;
use swag_obs::WallClock;

use super::forensics::result_digest;
use super::ops::{cold_zone_of, COLD_HIT_ID};
use super::plan::QueryPlan;
use super::Engine;
use crate::index::{fov_box, IndexKind};
use crate::query::{Query, QueryOptions, RankMode};
use crate::ranking::{SearchHit, Tier, TopN};
use crate::server::ServerConfig;
use crate::store::{SegmentRef, SegmentStore};

const WIDTH_S: f64 = 600.0;

/// Where the records are filmed: mid-latitude, on the antimeridian, next
/// to the pole, and on the equator/prime-meridian origin.
const SITES: [(f64, f64); 4] = [
    (40.0, 116.32),
    (10.0, 179.9995),
    (89.9995, 30.0),
    (0.0, 0.0),
];

fn tmp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "swag-cold-prune-{}-{}",
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

/// A durable engine whose every record has been demoted: folds of seven
/// records and automatic retention spread the records over several runs
/// per bucket, the final expiry demotes the rest.
fn all_cold_engine(dir: &std::path::Path, records: &[(RepFov, SegmentRef)]) -> Engine {
    let config = ServerConfig {
        shard_width_s: WIDTH_S,
        retention_horizon_s: Some(4.0 * WIDTH_S),
        durability: swag_store::DurabilityConfig {
            fsync_interval_micros: 0,
            ..swag_store::DurabilityConfig::default()
        },
        ..ServerConfig::default()
    };
    let clock = Arc::new(WallClock);
    let (durability, _) =
        swag_store::Durability::open(dir, WIDTH_S, config.durability, clock.clone(), cold_zone_of)
            .expect("open data dir");
    let mut engine = Engine::new(CameraProfile::smartphone(), config, clock);
    engine.durability = Some(durability);
    for chunk in records.chunks(7) {
        engine.replay_records(chunk);
    }
    engine.expire_before(1e9).unwrap();
    engine
}

/// `cold_scan`'s ranked hits and rows examined.
fn pruned_cold_scan(engine: &Engine, plan: &QueryPlan) -> (Vec<SearchHit>, u64) {
    let store = SegmentStore::new();
    let mut top = TopN::new(plan, &engine.cam, &store);
    let rows_in = engine.cold_scan(plan, &mut top);
    (top.finish(), rows_in)
}

/// The reference: every record of every run offered in catalog order.
fn linear_cold_scan(engine: &Engine, plan: &QueryPlan) -> Vec<SearchHit> {
    let cold = engine.durability.as_ref().unwrap().cold();
    let store = SegmentStore::new();
    let mut top = TopN::new(plan, &engine.cam, &store);
    let mut ord = 0;
    for run in cold.probe(|_| true) {
        for (rep, source) in cold.records(&run).expect("readable run").iter() {
            if plan.boxes().intersects(&fov_box(rep)) {
                top.offer(Tier::Cold, ord, COLD_HIT_ID, *rep, *source);
            }
            ord += 1;
        }
    }
    top.finish()
}

fn identity(hits: &[SearchHit]) -> Vec<(SegmentRef, [u64; 5])> {
    let mut ids: Vec<_> = hits
        .iter()
        .map(|h| {
            let r = &h.rep;
            let bits = [r.t_start, r.t_end, r.fov.p.lat, r.fov.p.lng, r.fov.theta];
            (h.source, bits.map(f64::to_bits))
        })
        .collect();
    ids.sort_by_key(|(s, bits)| (s.provider_id, s.video_id, s.segment_idx, *bits));
    ids
}

/// The container stores reps on the descriptor codec's 1e-7° grid. A
/// zone computed over the in-memory floats would end at the raw
/// longitude and prune a run whose *stored* record a query matches.
#[test]
fn zone_map_covers_records_as_the_run_stores_them() {
    let raw_lng = 10.000_000_06; // stored as 10.000_000_1
    let rep = RepFov::new(100.0, 104.0, Fov::new(LatLon::new(0.0, raw_lng), 0.0));
    let source = SegmentRef {
        provider_id: 1,
        video_id: 1,
        segment_idx: 0,
    };
    let dir = tmp_dir();
    let engine = all_cold_engine(&dir, &[(rep, source)]);
    // West edge of the query box between the raw and the stored value.
    let r_lng = 100.0 / swag_geo::METERS_PER_DEG;
    let query = Query::new(0.0, 200.0, LatLon::new(0.0, 10.000_000_08 + r_lng), 100.0);
    let opts = QueryOptions {
        direction_filter: false,
        ..QueryOptions::default()
    };
    let plan = QueryPlan::compile(&query, &opts);
    assert_eq!(linear_cold_scan(&engine, &plan).len(), 1);
    assert_eq!(
        pruned_cold_scan(&engine, &plan).0,
        linear_cold_scan(&engine, &plan)
    );
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pruned_cold_scan_equals_linear_pass_over_all_demoted_records(
        site in 0usize..SITES.len(),
        // (t_start, duration, dlat, dlng, theta): durations up to 2000 s
        // cross up to three 600 s bucket boundaries.
        recs in prop::collection::vec(
            (0.0..12_000.0f64, 0.0..2_000.0f64, -0.02..0.02f64, -0.02..0.02f64, 0.0..360.0f64),
            1..120,
        ),
        // (t_start, length, dlat, dlng, radius, direction filter): windows
        // reach past the data on both sides, centres up to ~5 km off.
        queries in prop::collection::vec(
            (-2_000.0..16_000.0f64, 0.0..3_000.0f64, -0.05..0.05f64, -0.05..0.05f64,
             20.0..4_000.0f64, any::<bool>()),
            1..24,
        ),
    ) {
        let site = SITES[site];
        let records: Vec<(RepFov, SegmentRef)> = recs
            .iter()
            .enumerate()
            .map(|(i, &(t, dur, dlat, dlng, theta))| {
                let rep = RepFov::new(t, t + dur, Fov::new(at(site, dlat, dlng), theta));
                let source = SegmentRef {
                    provider_id: i as u64 % 5,
                    video_id: i as u64 / 5,
                    segment_idx: i as u32,
                };
                (rep, source)
            })
            .collect();
        let dir = tmp_dir();
        let engine = all_cold_engine(&dir, &records);
        let cold = engine.durability.as_ref().unwrap().cold();
        prop_assert_eq!(cold.segments(), records.len() as u64, "everything was demoted");
        prop_assert_eq!(engine.stats().segments, 0);

        // The same records as the runs hold them, behind the Fig. 6(c)
        // linear index: the oracle for whole-query answers.
        let oracle = Engine::new(
            CameraProfile::smartphone(),
            ServerConfig { index: IndexKind::Linear, ..ServerConfig::default() },
            Arc::new(WallClock),
        );
        for run in cold.probe(|_| true) {
            for (rep, source) in cold.records(&run).unwrap().iter() {
                oracle.ingest_one(*rep, *source).unwrap();
            }
        }

        for &(t0, len, dlat, dlng, radius, direction_filter) in &queries {
            let query = Query::new(t0, t0 + len, at(site, dlat, dlng), radius);
            for rank in [RankMode::Distance, RankMode::Quality] {
                let opts = QueryOptions {
                    top_n: usize::MAX,
                    direction_filter,
                    rank,
                    ..QueryOptions::default()
                };
                let plan = QueryPlan::compile(&query, &opts);
                let (pruned, rows_in) = pruned_cold_scan(&engine, &plan);
                let linear = linear_cold_scan(&engine, &plan);
                prop_assert_eq!(result_digest(&pruned), result_digest(&linear));
                prop_assert_eq!(&pruned, &linear);
                prop_assert!(rows_in <= records.len() as u64);
                prop_assert!(rows_in >= pruned.len() as u64);

                let answer = engine.query(&query, &opts);
                prop_assert_eq!(identity(&answer), identity(&oracle.query(&query, &opts)));
            }
        }
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }
}
