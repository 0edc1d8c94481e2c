//! Exact work counts of the index probe on a fixed city.
//!
//! A fixed-seed, `query_city`-shaped server (uniform citywide FoVs at the
//! benchmark's density of ≈ 4.6 segments per second, 600 s time shards)
//! answers a fixed set of wide (1 km, 2 h) and narrow (50 m, 5 min)
//! queries. The traversal counters are deterministic, so a packing change
//! that makes a query test more leaf entries fails here exactly, whatever
//! the host's timing noise. `items_matched` is a property of the data and
//! the query boxes alone: no packing may move it.

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

/// Summed counters of one query class.
#[derive(Debug, Default, PartialEq, Eq)]
struct Totals {
    nodes_visited: u64,
    items_tested: u64,
    items_matched: u64,
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
/// stand-alone index packed the same way, checks they agree, and sums the
/// counters.
fn totals(server: &CloudServer, index: &ShardedFovIndex, class: &Class, qs: &[Query]) -> Totals {
    let opts = QueryOptions {
        top_n: class.top_n,
        ..QueryOptions::default()
    };
    let mut t = Totals::default();
    for q in qs {
        let mut stats = SearchStats::default();
        let candidates = index.candidates_with_stats(q, &mut stats);
        let event = server.query_analyzed(0, q, &opts).report.event;
        assert_eq!(event.index_rows_in, stats.items_tested, "{q:?}");
        assert_eq!(event.index_rows_out, candidates.len() as u64, "{q:?}");
        t.nodes_visited += stats.nodes_visited;
        t.items_tested += event.index_rows_in;
        t.items_matched += stats.items_matched;
    }
    t
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
    let wide = totals(&server, &index, &WIDE, &wide);
    let narrow = totals(&server, &index, &NARROW, &narrow);
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
}
