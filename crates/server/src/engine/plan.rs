//! The query planner: lowers `(Query, QueryOptions)` into a typed
//! [`QueryPlan`].
//!
//! A plan is everything the operator pipeline needs to run, resolved
//! once per query: the query boxes (antimeridian-aware, §V-B step 1),
//! the filter chain (step 3), the rank mode and the top-k cutoff (step
//! 4). Plans are cheap `Copy` values; the read entry points compile one
//! per request (or per expansion ring, for k-nearest).
//!
//! [`QueryPlan::explain`] renders the plan for humans; the operator
//! names it prints are the same `OP_*` constants that label the stage
//! rows of EXPLAIN ANALYZE and the `swag_server_op_*{op=…}` metrics, so
//! a `swag explain` listing and a measured query name identical
//! pipeline stages.

use swag_core::{sector_intersects_circle, CameraProfile, DirectionTest, RepFov};
use swag_geo::DistanceBound;
use swag_rtree::Aabb;

use crate::index::{query_boxes, QueryBoxes};
use crate::query::{canon_zero, Query, QueryOptions, RankMode};
use crate::shard::ShardedFovIndex;

/// Label of the whole measured pipeline.
pub const OP_QUERY: &str = "query";
/// Label of the snapshot index scan operator.
pub const OP_INDEX_SCAN: &str = "index_scan";
/// Label of the cold-run scan operator (demoted time shards on disk;
/// only present in pipelines of durable servers with cold runs).
pub const OP_COLD_SCAN: &str = "cold_scan";
/// Label of the filter + rank + truncate operator.
pub const OP_RANKING: &str = "ranking";
/// Label of one per-shard index probe.
pub const OP_SHARD_PROBE: &str = "shard_probe";

/// The per-record filter stage (paper §V-B step 3) as configured by
/// [`QueryOptions`]. `QueryPlan::accepts` runs it: single queries,
/// batch queries and k-nearest rings all filter records there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterChain {
    /// `Some(tolerance_deg)` drops FoVs whose orientation points away
    /// from the query centre (tolerance widens the camera half-angle).
    pub direction_tolerance_deg: Option<f64>,
    /// Additionally require the view sector to geometrically intersect
    /// the query disc.
    pub require_coverage: bool,
}

impl FilterChain {
    /// Compiles the filter stage from query options.
    pub fn from_options(opts: &QueryOptions) -> Self {
        FilterChain {
            direction_tolerance_deg: opts
                .direction_filter
                .then_some(opts.direction_tolerance_deg),
            require_coverage: opts.require_coverage,
        }
    }

    /// Number of active filters (for explain output).
    pub fn len(&self) -> usize {
        usize::from(self.direction_tolerance_deg.is_some()) + usize::from(self.require_coverage)
    }

    /// Whether no filter is active.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A compiled query: what the operator pipeline executes against an
/// epoch snapshot.
///
/// The request, its boxes and its filter chain are read-only after
/// [`compile`](Self::compile): the boxes and the compiled direction test
/// derive from them, so changing one alone would leave the plan running
/// a different query from the one it explains and caches under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryPlan {
    query: Query,
    boxes: QueryBoxes,
    filters: FilterChain,
    /// Result ordering.
    pub rank: RankMode,
    /// Top-k cutoff applied after ranking.
    pub k: usize,
    /// The direction filter compiled for the query centre, when
    /// [`FilterChain::direction_tolerance_deg`] is set.
    direction: Option<DirectionTest>,
    /// Distance from the query centre to a leaf's box matches, bounded
    /// below (the distance rank's leaf order).
    distance: DistanceBound,
}

impl QueryPlan {
    /// Lowers a request into a plan (the planner).
    pub fn compile(query: &Query, opts: &QueryOptions) -> Self {
        let filters = FilterChain::from_options(opts);
        let boxes = query_boxes(query);
        // Every box shares the latitude band; a box match lies inside it.
        let band = boxes.as_slice()[0];
        QueryPlan {
            query: *query,
            boxes,
            filters,
            rank: opts.rank,
            k: opts.top_n,
            direction: filters
                .direction_tolerance_deg
                .map(|tol| DirectionTest::new(query.center, tol)),
            distance: DistanceBound::new(query.center, [band.min[1], band.max[1]]),
        }
    }

    /// The validated request.
    #[inline]
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Query rectangle(s) — two when the radius wraps the antimeridian.
    #[inline]
    pub fn boxes(&self) -> &QueryBoxes {
        &self.boxes
    }

    /// The per-record filter stage.
    #[inline]
    pub fn filters(&self) -> &FilterChain {
        &self.filters
    }

    /// A lower bound on the distance from the query centre to any box
    /// match inside `mbr` (a leaf's box), as the distance rank computes
    /// it.
    #[inline]
    pub(crate) fn distance_lower_bound(&self, mbr: &Aabb<3>) -> f64 {
        let (lng, lat) = ([mbr.min[0], mbr.max[0]], [mbr.min[1], mbr.max[1]]);
        self.distance.rect_m(lng, lat)
    }

    /// Whether a representative FoV passes every configured filter: it
    /// [`faces`](Self::faces) the centre and, when required, its view
    /// sector [`covers`](Self::covers) the query disc.
    pub(crate) fn accepts(&self, rep: &RepFov, cam: &CameraProfile) -> bool {
        let p = rep.fov.p;
        self.faces(cam, p.lng, p.lat, rep.fov.theta) && self.covers(rep, cam)
    }

    /// The direction filter on a FoV's raw fields: whether a camera at
    /// `(lng, lat)` with axis `theta` points toward the query centre
    /// (always, with the filter off). Equal to
    /// [`swag_core::points_toward`]; no transcendental unless the axis
    /// sits within a hair of the cone's edge.
    #[inline]
    pub(crate) fn faces(&self, cam: &CameraProfile, lng: f64, lat: f64, theta: f64) -> bool {
        self.direction
            .is_none_or(|d| d.accepts(cam, lng, lat, theta))
    }

    /// The coverage filter: whether `rep`'s view sector intersects the
    /// query disc (always, with the filter off).
    #[inline]
    pub(crate) fn covers(&self, rep: &RepFov, cam: &CameraProfile) -> bool {
        let q = &self.query;
        !self.filters.require_coverage
            || sector_intersects_circle(&rep.fov, cam, q.center, q.radius_m)
    }

    /// Whether the plan's boxes intersect a cold run's zone map (the
    /// union of `fov_box` over the run's records): `false` proves no
    /// record of the run can pass the box test, in time or in space.
    pub(crate) fn reaches_zone(&self, zone: &swag_store::Zone) -> bool {
        // Not `Aabb::new`: a zone comes from disk, and a malformed one
        // must fail the test, not panic.
        self.boxes.intersects(&Aabb {
            min: [zone[0], zone[1], zone[2]],
            max: [zone[3], zone[4], zone[5]],
        })
    }

    /// Stable 64-bit fingerprint of the canonical plan — the result-cache
    /// key. FNV-1a over the bit patterns of every field that affects
    /// results: the query window, centre, radius, the compiled filter
    /// chain, the rank mode, and the top-k cutoff. Floats are
    /// canonicalized first (`-0.0` folds onto `+0.0`), so semantically
    /// equal plans fingerprint identically; the query boxes derive
    /// deterministically from the query and are not hashed. Two distinct
    /// plans can in principle collide in 64 bits, which is why cache
    /// entries also store the full `PlanKey` and compare it on lookup.
    pub fn fingerprint(&self) -> u64 {
        PlanKey::of(self).fingerprint()
    }

    /// Renders the plan for humans: boxes, filter chain, rank mode, and
    /// the operator pipeline (named with the same `OP_*` labels EXPLAIN
    /// ANALYZE uses). Snapshot-dependent facts (shards probed, cache)
    /// are added when the server explains it against its index.
    pub fn explain(&self) -> String {
        self.render(None)
    }

    /// [`Self::explain`] resolved against a concrete snapshot: also
    /// lists which time shards the plan probes (`#bucket(xitems/runs r)`:
    /// a shard's runs are each searched) and — on durable servers
    /// holding cold runs — whether the plan reaches the cold tier
    /// (`cold_line`).
    pub(crate) fn explain_against(
        &self,
        index: &ShardedFovIndex,
        cache_line: &str,
        cold_line: Option<&str>,
    ) -> String {
        self.render(Some(ExplainContext {
            index,
            cache_line,
            cold_line,
        }))
    }

    fn render(&self, snapshot: Option<ExplainContext<'_>>) -> String {
        use std::fmt::Write as _;
        let q = &self.query;
        let mut out = String::new();
        let _ = writeln!(out, "QueryPlan");
        let _ = writeln!(
            out,
            "  window  : [{:.3}, {:.3}] ({:.1} s)",
            q.t_start,
            q.t_end,
            q.t_end - q.t_start
        );
        let _ = writeln!(
            out,
            "  center  : ({:.6}, {:.6}) radius {:.1} m",
            q.center.lat, q.center.lng, q.radius_m
        );
        for (i, b) in self.boxes.as_slice().iter().enumerate() {
            let _ = writeln!(
                out,
                "  box {i}   : lng [{:.6}, {:.6}] lat [{:.6}, {:.6}]",
                b.min[0], b.max[0], b.min[1], b.max[1]
            );
        }
        let cold_line = snapshot.as_ref().and_then(|s| s.cold_line);
        if let Some(ExplainContext {
            index, cache_line, ..
        }) = snapshot
        {
            let probes = index.probe_shards(q.t_start, q.t_end);
            let mut line = format!(
                "  shards  : probe {} of {} live (width {} s)",
                probes.len(),
                index.shard_count(),
                index.shard_width_s()
            );
            if !probes.is_empty() {
                line.push(':');
                for (bucket, items, runs) in &probes {
                    let _ = write!(line, " #{bucket}(x{items}/{runs}r)");
                }
            }
            let _ = writeln!(out, "{line}");
            let _ = writeln!(out, "  cache   : {cache_line}");
            if let Some(cold) = cold_line {
                let _ = writeln!(out, "  cold    : {cold}");
            }
        }
        let mut filters = Vec::new();
        if let Some(tol) = self.filters.direction_tolerance_deg {
            filters.push(format!("direction(±{tol}°)"));
        }
        if self.filters.require_coverage {
            filters.push("coverage".to_string());
        }
        let _ = writeln!(
            out,
            "  filters : {}",
            if filters.is_empty() {
                "none".to_string()
            } else {
                filters.join(" -> ")
            }
        );
        let rank = match self.rank {
            RankMode::Distance => "distance",
            RankMode::Quality => "quality",
        };
        let k = if self.k == usize::MAX {
            "all".to_string()
        } else {
            format!("top {}", self.k)
        };
        let _ = writeln!(out, "  rank    : {rank}, {k}");
        // The pipeline line stays byte-identical to the pre-durability
        // engine unless cold runs are actually reachable (tooling greps
        // for the plain form).
        if cold_line.is_some() {
            let _ = writeln!(
                out,
                "  pipeline: {OP_INDEX_SCAN}({OP_SHARD_PROBE}*) -> {OP_COLD_SCAN} -> {OP_RANKING}"
            );
        } else {
            let _ = writeln!(
                out,
                "  pipeline: {OP_INDEX_SCAN}({OP_SHARD_PROBE}*) -> {OP_RANKING}"
            );
        }
        out
    }
}

/// Snapshot-resolved context [`QueryPlan::explain_against`] renders.
pub(crate) struct ExplainContext<'a> {
    pub(crate) index: &'a ShardedFovIndex,
    pub(crate) cache_line: &'a str,
    /// Rendered cold-tier summary; `None` when the server has no
    /// reachable cold runs (memory-only servers always).
    pub(crate) cold_line: Option<&'a str>,
}

/// The canonical key material [`QueryPlan::fingerprint`] hashes, small
/// enough to store `Copy` alongside each cache entry. The cache compares
/// the stored key on every hit, so a 64-bit fingerprint collision
/// between two distinct plans degrades to a cache miss instead of
/// serving another plan's results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanKey {
    t_start: u64,
    t_end: u64,
    lat: u64,
    lng: u64,
    radius: u64,
    /// Canonical tolerance bits, or `u64::MAX` (a NaN encoding no
    /// validated tolerance can produce) when the filter is off.
    dir_tol: u64,
    coverage: bool,
    rank: u8,
    k: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Canonical bit pattern of `x`: the two IEEE zeros hash identically.
fn canon_bits(x: f64) -> u64 {
    canon_zero(x).to_bits()
}

impl PlanKey {
    /// Extracts the canonical key from a compiled plan.
    pub(crate) fn of(plan: &QueryPlan) -> Self {
        let q = &plan.query;
        PlanKey {
            t_start: canon_bits(q.t_start),
            t_end: canon_bits(q.t_end),
            lat: canon_bits(q.center.lat),
            lng: canon_bits(q.center.lng),
            radius: canon_bits(q.radius_m),
            dir_tol: plan
                .filters
                .direction_tolerance_deg
                .map_or(u64::MAX, canon_bits),
            coverage: plan.filters.require_coverage,
            rank: match plan.rank {
                RankMode::Distance => 0,
                RankMode::Quality => 1,
            },
            k: plan.k as u64,
        }
    }

    /// FNV-1a over the key fields in declaration order.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for word in [
            self.t_start,
            self.t_end,
            self.lat,
            self.lng,
            self.radius,
            self.dir_tol,
            u64::from(self.coverage),
            u64::from(self.rank),
            self.k,
        ] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_core::Fov;
    use swag_geo::LatLon;

    fn center() -> LatLon {
        LatLon::new(40.0, 116.32)
    }

    #[test]
    fn filter_chain_mirrors_options() {
        let chain = FilterChain::from_options(&QueryOptions::default());
        assert_eq!(chain.direction_tolerance_deg, Some(10.0));
        assert!(!chain.require_coverage);
        assert_eq!(chain.len(), 1);
        let none = FilterChain::from_options(&QueryOptions {
            direction_filter: false,
            ..QueryOptions::default()
        });
        assert!(none.is_empty());
    }

    #[test]
    fn filter_chain_accepts_matches_semantics() {
        let cam = CameraProfile::smartphone();
        let q = Query::new(0.0, 10.0, center(), 100.0);
        // Camera 20 m south looking north (at the centre) passes; looking
        // south (away) fails the direction filter but passes without it.
        let toward = RepFov::new(0.0, 10.0, Fov::new(center().offset(180.0, 20.0), 0.0));
        let away = RepFov::new(0.0, 10.0, Fov::new(center().offset(180.0, 20.0), 180.0));
        let with_dir = QueryPlan::compile(&q, &QueryOptions::default());
        assert!(with_dir.accepts(&toward, &cam));
        assert!(!with_dir.accepts(&away, &cam));
        let without = QueryPlan::compile(
            &q,
            &QueryOptions {
                direction_filter: false,
                ..QueryOptions::default()
            },
        );
        assert!(without.filters.is_empty());
        assert!(without.accepts(&away, &cam));
        // Coverage: 20 m south looking east misses a 10 m disc.
        let tangent = RepFov::new(0.0, 10.0, Fov::new(center().offset(180.0, 20.0), 90.0));
        let covering = QueryPlan::compile(
            &Query::new(0.0, 10.0, center(), 10.0),
            &QueryOptions {
                direction_filter: false,
                require_coverage: true,
                ..QueryOptions::default()
            },
        );
        assert!(covering.accepts(&toward, &cam));
        assert!(!covering.accepts(&tangent, &cam));
    }

    #[test]
    fn plan_captures_rank_and_k() {
        let q = Query::new(0.0, 60.0, center(), 150.0);
        let plan = QueryPlan::compile(
            &q,
            &QueryOptions {
                top_n: 7,
                rank: RankMode::Quality,
                ..QueryOptions::default()
            },
        );
        assert_eq!(plan.k, 7);
        assert_eq!(plan.rank, RankMode::Quality);
        assert_eq!(plan.boxes, crate::index::query_boxes(&q));
    }

    #[test]
    fn explain_names_the_pipeline_operators() {
        let q = Query::new(0.0, 60.0, center(), 150.0);
        let plan = QueryPlan::compile(&q, &QueryOptions::default());
        let text = plan.explain();
        for op in [OP_INDEX_SCAN, OP_RANKING, OP_SHARD_PROBE] {
            assert!(text.contains(op), "explain must mention {op}: {text}");
        }
        assert!(text.contains("direction"));
        assert!(text.contains("distance, top 10"));
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let q = Query::new(0.0, 60.0, center(), 150.0);
        let opts = QueryOptions::default();
        let a = QueryPlan::compile(&q, &opts).fingerprint();
        let b = QueryPlan::compile(&q, &opts).fingerprint();
        assert_eq!(a, b, "same plan must fingerprint identically");
        // Every result-affecting knob moves the fingerprint.
        for other in [
            QueryPlan::compile(&Query::new(0.0, 61.0, center(), 150.0), &opts),
            QueryPlan::compile(&Query::new(0.0, 60.0, center(), 151.0), &opts),
            QueryPlan::compile(&q, &QueryOptions { top_n: 11, ..opts }),
            QueryPlan::compile(
                &q,
                &QueryOptions {
                    rank: RankMode::Quality,
                    ..opts
                },
            ),
            QueryPlan::compile(
                &q,
                &QueryOptions {
                    direction_filter: false,
                    ..opts
                },
            ),
            QueryPlan::compile(
                &q,
                &QueryOptions {
                    require_coverage: true,
                    ..opts
                },
            ),
        ] {
            assert_ne!(a, other.fingerprint(), "{other:?}");
        }
    }

    #[test]
    fn fingerprint_canonicalizes_zero_aliases() {
        // -0.0 spellings of window bounds, centre, and tolerance all
        // fingerprint like +0.0: the cache must not split a hot query
        // across aliased keys.
        let opts = QueryOptions::default();
        let neg = QueryPlan::compile(&Query::new(-0.0, 60.0, LatLon::new(-0.0, -0.0), 5.0), &opts);
        let pos = QueryPlan::compile(&Query::new(0.0, 60.0, LatLon::new(0.0, 0.0), 5.0), &opts);
        assert_eq!(neg.fingerprint(), pos.fingerprint());
        assert_eq!(PlanKey::of(&neg), PlanKey::of(&pos));
        let tol_neg = QueryPlan::compile(
            &Query::new(0.0, 60.0, center(), 5.0),
            &QueryOptions {
                direction_tolerance_deg: -0.0,
                ..opts
            },
        );
        let tol_pos = QueryPlan::compile(
            &Query::new(0.0, 60.0, center(), 5.0),
            &QueryOptions {
                direction_tolerance_deg: 0.0,
                ..opts
            },
        );
        assert_eq!(tol_neg.fingerprint(), tol_pos.fingerprint());
        // Filter off vs. zero tolerance are different plans.
        let off = QueryPlan::compile(
            &Query::new(0.0, 60.0, center(), 5.0),
            &QueryOptions {
                direction_filter: false,
                ..opts
            },
        );
        assert_ne!(off.fingerprint(), tol_pos.fingerprint());
    }

    #[test]
    fn explain_renders_antimeridian_boxes() {
        let q = Query::new(0.0, 60.0, LatLon::new(10.0, 179.999), 1000.0);
        let plan = QueryPlan::compile(&q, &QueryOptions::default());
        let text = plan.explain();
        assert!(text.contains("box 0"));
        assert!(text.contains("box 1"), "wrap query must show two boxes");
    }
}
