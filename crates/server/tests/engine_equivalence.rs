//! Engine equivalence: the layered planner/operator pipeline must answer
//! byte-identically to the pre-refactor monolithic read path.
//!
//! Two lines of defence:
//!
//! 1. **Oracle fixture** — `fixtures/engine_oracle.txt` holds the exact
//!    results (distances and qualities as f64 bit patterns) the
//!    pre-refactor `server.rs` produced for a deterministic workload
//!    covering the three entry points (`query`, `query_nearest`,
//!    `query_batch`) across ranking modes, filters, and
//!    publish/retention churn. Regenerate with
//!    `cargo test -p swag-server --test engine_equivalence -- --ignored regenerate`.
//! 2. **Randomized agreement proptests** — serial vs parallel executors,
//!    batch vs per-query, and k-nearest vs a brute-force oracle must
//!    agree byte for byte on arbitrary workloads and churn (retraction,
//!    expiry, late records re-creating expired buckets, antimeridian
//!    sites); the R-tree's fused top-N pass must rank what the Fig. 6(c)
//!    linear scan ranks, with the same traversal counters as the
//!    candidate probe. Each executor is explicit, so the outcome does not
//!    depend on `SWAG_EXEC_THREADS`.

use std::fmt::Write as _;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use swag_core::{CameraProfile, Fov, RepFov, UploadBatch};
use swag_exec::{ExecConfig, Executor};
use swag_geo::LatLon;
use swag_obs::Registry;
use swag_rtree::SearchStats;
use swag_server::{
    CloudServer, IndexKind, Query, QueryOptions, RankMode, SearchHit, SegmentRef, ServerConfig,
    ShardedFovIndex,
};

const FIXTURE: &str = include_str!("fixtures/engine_oracle.txt");

fn base() -> LatLon {
    LatLon::new(40.0, 116.32)
}

/// Tiny deterministic generator (SplitMix64) so the workload is identical
/// on every platform and toolchain.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)` from 53 random mantissa bits.
    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

fn workload_reps(rng: &mut Rng, n: usize) -> Vec<RepFov> {
    (0..n)
        .map(|_| {
            let dx = rng.f64(-900.0, 900.0);
            let dy = rng.f64(-900.0, 900.0);
            let theta = rng.f64(0.0, 360.0);
            let t0 = rng.f64(0.0, 3000.0);
            let dur = rng.f64(1.0, 240.0);
            RepFov::new(
                t0,
                t0 + dur,
                Fov::new(base().offset_by(swag_geo::Vec2::new(dx, dy)), theta),
            )
        })
        .collect()
}

fn workload_queries(rng: &mut Rng, n: usize) -> Vec<Query> {
    (0..n)
        .map(|_| {
            let dx = rng.f64(-900.0, 900.0);
            let dy = rng.f64(-900.0, 900.0);
            let r = rng.f64(20.0, 600.0);
            let t0 = rng.f64(0.0, 3000.0);
            let win = rng.f64(5.0, 1500.0);
            Query::new(
                t0,
                t0 + win,
                base().offset_by(swag_geo::Vec2::new(dx, dy)),
                r,
            )
        })
        .collect()
}

/// Option sets covering every filter/rank combination the planner lowers.
fn option_matrix() -> Vec<(&'static str, QueryOptions)> {
    vec![
        ("default", QueryOptions::default()),
        (
            "wide",
            QueryOptions {
                top_n: usize::MAX,
                direction_filter: false,
                ..QueryOptions::default()
            },
        ),
        (
            "coverage",
            QueryOptions {
                top_n: 25,
                require_coverage: true,
                ..QueryOptions::default()
            },
        ),
        (
            "quality",
            QueryOptions {
                top_n: 15,
                rank: RankMode::Quality,
                direction_tolerance_deg: 5.0,
                ..QueryOptions::default()
            },
        ),
    ]
}

fn render_hit(out: &mut String, h: &SearchHit) {
    writeln!(
        out,
        "  id={} provider={} video={} seg={} t=[{:016x},{:016x}] d={:016x} q={:016x}",
        h.id.0,
        h.source.provider_id,
        h.source.video_id,
        h.source.segment_idx,
        h.rep.t_start.to_bits(),
        h.rep.t_end.to_bits(),
        h.distance_m.to_bits(),
        h.quality.to_bits(),
    )
    .unwrap();
}

/// Runs the deterministic workload through all three read entry points and
/// renders every result with exact bit patterns.
fn oracle_transcript() -> String {
    let mut rng = Rng(0x5747_2015);
    let mut server = CloudServer::with_config(
        CameraProfile::smartphone(),
        ServerConfig {
            shard_width_s: 150.0,
            ..ServerConfig::default()
        },
    );
    server.set_executor(Executor::serial());

    // Ingest in uneven batches: each folds into its own packed runs, so
    // shards hold several runs of different sizes.
    let mut out = String::new();
    for (batch_no, n) in [17usize, 40, 9, 31, 6].into_iter().enumerate() {
        let reps = workload_reps(&mut rng, n);
        server.ingest_batch(&UploadBatch {
            provider_id: batch_no as u64,
            video_id: 7,
            reps,
        });
    }
    // Churn: a retraction and an explicit expiry mid-history.
    server.retract_provider(1);
    server.expire_before(120.0);

    let queries = workload_queries(&mut rng, 12);
    for (name, opts) in option_matrix() {
        writeln!(out, "[query {name}]").unwrap();
        for (i, q) in queries.iter().enumerate() {
            writeln!(out, " q{i}").unwrap();
            for h in server.query(q, &opts) {
                render_hit(&mut out, &h);
            }
        }
        writeln!(out, "[batch {name}]").unwrap();
        for (i, hits) in server.query_batch(&queries, &opts, 1).iter().enumerate() {
            writeln!(out, " q{i}").unwrap();
            for h in hits {
                render_hit(&mut out, h);
            }
        }
        writeln!(out, "[nearest {name}]").unwrap();
        for (i, q) in queries.iter().take(6).enumerate() {
            writeln!(out, " q{i}").unwrap();
            for h in server.query_nearest(q.t_start, q.t_end, q.center, 5, &opts, 5_000.0) {
                render_hit(&mut out, &h);
            }
        }
    }
    out
}

#[test]
fn results_match_prerefactor_fixture() {
    let got = oracle_transcript();
    if got != FIXTURE {
        // Locate the first diverging line for a readable failure.
        for (i, (g, f)) in got.lines().zip(FIXTURE.lines()).enumerate() {
            assert_eq!(g, f, "first divergence at fixture line {}", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            FIXTURE.lines().count(),
            "transcripts diverge in length"
        );
        unreachable!("transcripts differ but no diverging line found");
    }
}

/// Regenerates the oracle fixture. Only run this on a tree whose read
/// path is known-good (it *defines* the oracle).
#[test]
#[ignore]
fn regenerate() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/engine_oracle.txt"
    );
    std::fs::write(path, oracle_transcript()).unwrap();
}

fn par_exec() -> Executor {
    Executor::new(ExecConfig::with_threads(4))
}

/// Where a case films: mid-latitude, or astride the antimeridian, where
/// query boxes wrap into two.
const SITES: [(f64, f64); 2] = [(40.0, 116.32), (10.0, 179.9975)];

fn at(site: usize, dx: f64, dy: f64) -> LatLon {
    let (lat, lng) = SITES[site];
    LatLon::new(lat, lng).offset_by(swag_geo::Vec2::new(dx, dy))
}

/// `(east m, north m, θ, t0, duration)`; a third of the segments last up
/// to 600 s and span three to six 120 s shards.
type RawRep = (f64, f64, f64, f64, f64);

fn arb_rep() -> impl Strategy<Value = RawRep> {
    (
        -800.0f64..800.0,
        -800.0f64..800.0,
        0.0f64..360.0,
        0.0f64..3600.0,
        prop_oneof![0.5f64..300.0, 0.5f64..300.0, 240.0f64..600.0],
    )
}

fn rep_at(site: usize, (dx, dy, theta, t0, dur): RawRep) -> RepFov {
    RepFov::new(t0, t0 + dur, Fov::new(at(site, dx, dy), theta))
}

/// `(east m, north m, radius, t0, window)`; a third of the windows stay
/// inside one shard (a single-shard probe).
fn arb_query() -> impl Strategy<Value = (f64, f64, f64, f64, f64)> {
    (
        -800.0f64..800.0,
        -800.0f64..800.0,
        10.0f64..500.0,
        0.0f64..3600.0,
        prop_oneof![1.0f64..2000.0, 1.0f64..2000.0, 1.0f64..60.0],
    )
}

fn query_at(site: usize, (dx, dy, r, t0, win): (f64, f64, f64, f64, f64)) -> Query {
    Query::new(t0, t0 + win, at(site, dx, dy), r)
}

fn arb_opts() -> impl Strategy<Value = QueryOptions> {
    (
        prop::bool::ANY,
        prop::bool::ANY,
        prop::bool::ANY,
        0.0f64..30.0,
        prop_oneof![Just(usize::MAX), 1usize..40],
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

/// One case's records around `site`; astride the antimeridian, plus FoVs
/// exactly on +180° and −180°.
fn records(site: usize, reps: &[RawRep]) -> Vec<(RepFov, SegmentRef)> {
    let mut reps: Vec<RepFov> = reps.iter().map(|&r| rep_at(site, r)).collect();
    if site == 1 {
        for lng in [180.0, -180.0] {
            let p = LatLon { lat: 10.0, lng };
            reps.push(RepFov::new(100.0, 900.0, Fov { p, theta: 270.0 }));
        }
    }
    reps.iter()
        .enumerate()
        .map(|(i, &rep)| {
            (
                rep,
                SegmentRef {
                    provider_id: (i % 5) as u64,
                    video_id: (i / 5) as u64,
                    segment_idx: i as u32,
                },
            )
        })
        .collect()
}

fn config(index: IndexKind) -> ServerConfig {
    ServerConfig {
        shard_width_s: 120.0,
        index,
        ..ServerConfig::default()
    }
}

/// `(horizon, provider to retract, late records)` — see [`churn`]; a
/// negative horizon or provider means none.
type History = (f64, i64, Vec<RawRep>);

fn arb_history() -> impl Strategy<Value = History> {
    (
        -1200.0f64..2400.0,
        -3i64..5,
        prop::collection::vec(arb_rep(), 0..40),
    )
}

/// The same churn on every server of a case: a provider retraction, an
/// explicit expiry — queries then start in expired front buckets — and
/// late records, some older than the horizon, which re-create expired
/// buckets once 16 of them publish.
fn churn(server: &CloudServer, site: usize, (horizon, retract, late): &History) {
    if let Ok(provider) = u64::try_from(*retract) {
        server.retract_provider(provider);
    }
    if *horizon >= 0.0 {
        server.expire_before(*horizon);
    }
    server.ingest_batch(&UploadBatch {
        provider_id: 9,
        video_id: 0,
        reps: late.iter().map(|&r| rep_at(site, r)).collect(),
    });
}

/// A server per executor — serial, 4 threads, and the Fig. 6(c) linear
/// scan on 4 threads — loaded with the same records and churn.
fn servers_from(
    site: usize,
    reps: &[RawRep],
    history: &History,
) -> (CloudServer, CloudServer, CloudServer) {
    let records = records(site, reps);
    let [serial, parallel, linear] = [
        (IndexKind::RTree, Executor::serial()),
        (IndexKind::RTree, par_exec()),
        (IndexKind::Linear, par_exec()),
    ]
    .map(|(index, exec)| {
        let config = config(index);
        let server = CloudServer::from_records_with_config_exec(
            CameraProfile::smartphone(),
            config,
            exec,
            records.clone(),
        );
        churn(&server, site, history);
        server
    });
    (serial, parallel, linear)
}

/// The index scan's traversal counters are the candidate probe's: the
/// engine's measured nodes, leaves and items tested, and its deduplicated
/// matches, equal `candidates_with_stats` over an index built from the
/// same records.
fn assert_scan_counters_match_candidates(
    site: usize,
    reps: &[RawRep],
    queries: &[Query],
    opts: &QueryOptions,
) -> Result<(), TestCaseError> {
    let registry = Registry::new();
    let mut server = CloudServer::from_records_with_config_exec(
        CameraProfile::smartphone(),
        config(IndexKind::RTree),
        par_exec(),
        records(site, reps),
    );
    server.attach_observability(&registry);
    let mut index = ShardedFovIndex::new(120.0, IndexKind::RTree);
    let items: Vec<_> = server
        .export_records()
        .iter()
        .map(|r| (r.rep, r.id))
        .collect();
    index.bulk_insert(&items);
    let sum = |name: &str| registry.histogram(name).snapshot().sum;
    for q in queries {
        let (nodes, leaves) = (
            sum("swag_server_index_nodes_visited"),
            sum("swag_server_index_leaves_scanned"),
        );
        let event = server.query_analyzed(0, q, opts).report.event;
        let mut stats = SearchStats::default();
        let candidates = index.candidates_with_stats(q, &mut stats);
        prop_assert_eq!(
            sum("swag_server_index_nodes_visited") - nodes,
            stats.nodes_visited
        );
        prop_assert_eq!(
            sum("swag_server_index_leaves_scanned") - leaves,
            stats.leaves_scanned
        );
        prop_assert_eq!(event.index_rows_in, stats.items_tested);
        prop_assert_eq!(event.index_rows_out, candidates.len() as u64);
        prop_assert!(stats.items_matched >= event.index_rows_out);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All plan-driven entry points agree with each other and across
    /// executors: serial query == parallel query == batched query, for
    /// arbitrary option combinations, histories and both sites — and the
    /// linear reference returns the very same hits: ties order by segment
    /// id on every path, so not even the top-k cut depends on the backend.
    #[test]
    fn serial_parallel_batch_agree(
        site in 0usize..2,
        reps in prop::collection::vec(arb_rep(), 0..100),
        queries in prop::collection::vec(arb_query(), 1..10),
        opts in arb_opts(),
        history in arb_history(),
    ) {
        let queries: Vec<Query> = queries.into_iter().map(|q| query_at(site, q)).collect();
        let (serial, parallel, linear) = servers_from(site, &reps, &history);
        let per_query: Vec<Vec<SearchHit>> =
            queries.iter().map(|q| serial.query(q, &opts)).collect();
        for (q, expected) in queries.iter().zip(&per_query) {
            prop_assert_eq!(&parallel.query(q, &opts), expected);
            prop_assert_eq!(&linear.query(q, &opts), expected);
        }
        prop_assert_eq!(&serial.query_batch(&queries, &opts, 1), &per_query);
        prop_assert_eq!(&parallel.query_batch(&queries, &opts, 4), &per_query);
        assert_scan_counters_match_candidates(site, &reps, &queries, &opts)?;
    }

    /// k-nearest: the radius-expansion plan loop must agree across
    /// executors, and under [`RankMode::Distance`] must return exactly the
    /// top-k of an exhaustive max-radius query (the brute-force oracle).
    /// Under Quality, ties (score 0) keep candidate-enumeration order,
    /// which legitimately differs between expansion rings and one giant
    /// query — so the oracle comparison is pinned to Distance, where the
    /// ranking key is total almost everywhere.
    #[test]
    fn nearest_matches_bruteforce_oracle(
        reps in prop::collection::vec(arb_rep(), 0..80),
        q in arb_query(),
        k in 1usize..8,
        opts in arb_opts(),
    ) {
        let (serial, parallel, _) = servers_from(0, &reps, &(-1.0, -1, Vec::new()));
        let q = query_at(0, q);
        let max_radius = 50_000.0;
        let near_serial = serial.query_nearest(q.t_start, q.t_end, q.center, k, &opts, max_radius);
        let near_parallel =
            parallel.query_nearest(q.t_start, q.t_end, q.center, k, &opts, max_radius);
        prop_assert_eq!(&near_serial, &near_parallel);

        if opts.rank == RankMode::Distance {
            let mut oracle = serial.query(
                &Query::new(q.t_start, q.t_end, q.center, max_radius),
                &QueryOptions { top_n: usize::MAX, ..opts },
            );
            oracle.truncate(k);
            prop_assert_eq!(near_serial, oracle);
        }
    }
}
