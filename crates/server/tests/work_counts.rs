//! Exact work counts of the index probe on a fixed city.
//!
//! A fixed-seed, `query_city`-shaped server (uniform citywide FoVs at the
//! benchmark's density of ≈ 4.6 segments per second, 600 s time shards)
//! answers a fixed set of wide (1 km, 2 h) and narrow (50 m, 5 min)
//! queries. The traversal counters are deterministic, so a change that
//! makes a query test more leaf entries fails here exactly, whatever the
//! host's timing noise. Two sets of counts are pinned:
//! - a stand-alone index packed the same way, scanned whole
//!   (`candidates_with_stats`): the packing check. `items_matched` is a
//!   property of the data and the query boxes alone: no packing may move
//!   it;
//! - the server's own scan (EXPLAIN ANALYZE rows), which under the
//!   distance rank stops at the first leaf beyond the k-th hit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swag_core::CameraProfile;
use swag_exec::Executor;
use swag_geo::{LocalFrame, Vec2};
use swag_rtree::SearchStats;
use swag_sensors::scenarios::{citywide_rep_fovs, default_origin, CitywideConfig};
use swag_server::{
    CloudServer, IndexKind, Query, QueryOptions, SegmentId, SegmentRef, ServerConfig,
    ShardedFovIndex,
};

const SEED: u64 = 7;
/// Segments in the city: 2.4 h of footage at ≈ 4.6 segments per second.
const SEGMENTS: usize = 40_000;
const SPAN_S: f64 = 8_640.0;
const EXTENT_M: f64 = 5_000.0;
const SHARD_S: f64 = 600.0;

/// One query class: radius, window, top-k and how many to issue.
struct Class {
    radius_m: f64,
    window_s: f64,
    top_n: usize,
    count: usize,
}

const WIDE: Class = Class {
    radius_m: 1_000.0,
    window_s: 7_200.0,
    top_n: 50,
    count: 40,
};

const NARROW: Class = Class {
    radius_m: 50.0,
    window_s: 300.0,
    top_n: 10,
    count: 360,
};

/// Summed counters of one query class over the stand-alone index.
#[derive(Debug, Default, PartialEq, Eq)]
struct Totals {
    nodes_visited: u64,
    items_tested: u64,
    items_matched: u64,
}

/// Summed index-scan rows of one query class on the server: leaf entries
/// tested, and box matches fed to the ranking after cross-shard dedup.
#[derive(Debug, Default, PartialEq, Eq)]
struct Rows {
    rows_in: u64,
    rows_out: u64,
}

fn queries(class: &Class, rng: &mut StdRng) -> Vec<Query> {
    let frame = LocalFrame::new(default_origin());
    (0..class.count)
        .map(|_| {
            let pos = Vec2::new(
                rng.random_range(-EXTENT_M..EXTENT_M),
                rng.random_range(-EXTENT_M..EXTENT_M),
            );
            let t0 = rng.random_range(0.0..SPAN_S - class.window_s);
            Query::new(
                t0,
                t0 + class.window_s,
                frame.from_local(pos),
                class.radius_m,
            )
        })
        .collect()
}

/// Runs `class` against both the server (through `query_analyzed`) and a
/// stand-alone index packed the same way, and sums each one's counters.
/// The server never does more work than the whole scan.
fn totals(
    server: &CloudServer,
    index: &ShardedFovIndex,
    class: &Class,
    qs: &[Query],
) -> (Totals, Rows) {
    let opts = QueryOptions {
        top_n: class.top_n,
        ..QueryOptions::default()
    };
    let (mut t, mut rows) = (Totals::default(), Rows::default());
    for q in qs {
        let mut stats = SearchStats::default();
        let candidates = index.candidates_with_stats(q, &mut stats);
        let event = server.query_analyzed(0, q, &opts).report.event;
        assert!(event.index_rows_in <= stats.items_tested, "{q:?}");
        assert!(event.index_rows_out <= candidates.len() as u64, "{q:?}");
        t.nodes_visited += stats.nodes_visited;
        t.items_tested += stats.items_tested;
        t.items_matched += stats.items_matched;
        rows.rows_in += event.index_rows_in;
        rows.rows_out += event.index_rows_out;
    }
    (t, rows)
}

#[test]
fn wide_and_narrow_queries_do_exactly_the_pinned_work() {
    let cfg = CitywideConfig {
        extent_m: EXTENT_M,
        time_window_s: SPAN_S,
        ..CitywideConfig::default()
    };
    let reps = citywide_rep_fovs(SEGMENTS, &cfg, SEED);
    let records: Vec<_> = (0u64..)
        .zip(&reps)
        .map(|(i, rep)| {
            let source = SegmentRef {
                provider_id: i / 20,
                video_id: 0,
                segment_idx: (i % 20) as u32,
            };
            (*rep, source)
        })
        .collect();
    let config = ServerConfig {
        shard_width_s: SHARD_S,
        ..ServerConfig::default()
    };
    let cam = CameraProfile::smartphone();
    let server =
        CloudServer::from_records_with_config_exec(cam, config, Executor::serial(), records);
    // The bootstrap packs one run per shard, as one bulk insert does.
    let mut index = ShardedFovIndex::new(SHARD_S, IndexKind::RTree);
    let items: Vec<_> = (0u32..)
        .zip(&reps)
        .map(|(i, r)| (*r, SegmentId(i)))
        .collect();
    index.bulk_insert(&items);

    let mut rng = StdRng::seed_from_u64(SEED);
    let wide = queries(&WIDE, &mut rng);
    let narrow = queries(&NARROW, &mut rng);
    let (wide, wide_rows) = totals(&server, &index, &WIDE, &wide);
    let (narrow, narrow_rows) = totals(&server, &index, &NARROW, &narrow);
    // Runs tiled in all three dimensions visited 12 943 / 3 394 nodes and
    // tested 132 911 / 18 263 items (wide / narrow) for the same matches.
    assert_eq!(
        wide,
        Totals {
            nodes_visited: 7_733,
            items_tested: 88_526,
            items_matched: 48_385,
        }
    );
    assert_eq!(
        narrow,
        Totals {
            nodes_visited: 1_830,
            items_tested: 8_740,
            items_matched: 70,
        }
    );
    // The server scans leaves nearest-first and stops at the first one
    // beyond the 50th hit: it scanned the whole index too before, for
    // 88 526 / 45 952 wide rows. A narrow query never fills its top 10.
    assert_eq!(
        wide_rows,
        Rows {
            rows_in: 34_071,
            rows_out: 28_344,
        }
    );
    assert_eq!(
        narrow_rows,
        Rows {
            rows_in: 8_740,
            rows_out: 69,
        }
    );
}
