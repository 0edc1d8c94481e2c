//! Rank-based retrieval: the paper's filtering mechanism (§V-B).
//!
//! Candidates retrieved from the index (step 2) are filtered by direction
//! (step 3: "exclude the FoVs that have the improper direction"), ranked by
//! distance to the query centre ("closer FoVs have a higher probability to
//! cover the query area"), and truncated to the top N (step 4).

use serde::{Deserialize, Serialize};
use swag_core::{CameraProfile, RepFov};
use swag_geo::angle_diff_deg;

use crate::engine::plan::QueryPlan;
use crate::query::{Query, QueryOptions, RankMode};
use crate::store::{SegmentId, SegmentRecord, SegmentRef, SegmentStore};

/// One ranked retrieval result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchHit {
    /// Server-side id of the segment.
    pub id: SegmentId,
    /// Which provider video segment to fetch.
    pub source: SegmentRef,
    /// The segment's representative FoV.
    pub rep: RepFov,
    /// Distance from the FoV position to the query centre, metres (the
    /// paper's ranking key).
    pub distance_m: f64,
    /// Quality score in `[0, 1]` (proximity × alignment × temporal
    /// overlap); the ranking key under [`RankMode::Quality`].
    pub quality: f64,
}

/// Quality of one segment for a query: the product of
///
/// * **proximity** — `1 − d/R` clamped to `[0, 1]` ("closer FoVs have a
///   higher probability to cover the query area", §V-B);
/// * **alignment** — how centrally the query centre sits in the covered
///   angle range (`1` on-axis, `0` at the sector edge);
/// * **temporal coverage** — the fraction of the query window the segment
///   spans (the `U_t` of §VII, normalised).
pub fn quality_score(rep: &RepFov, cam: &CameraProfile, query: &Query) -> f64 {
    quality_score_with_distance(rep, cam, query, rep.fov.p.distance_m(query.center))
}

/// [`quality_score`] with the FoV→centre distance already computed.
/// Every hit needs that distance anyway (it is the distance-rank key),
/// so the batch ranking path computes it once per candidate and feeds
/// it to both consumers; `d` must equal
/// `rep.fov.p.distance_m(query.center)` bit-for-bit.
fn quality_score_with_distance(rep: &RepFov, cam: &CameraProfile, query: &Query, d: f64) -> f64 {
    let proximity = (1.0 - d / cam.view_radius_m).clamp(0.0, 1.0);

    let disp = rep.fov.p.displacement_to(query.center);
    let alignment = if disp.norm() < 1e-9 {
        1.0
    } else {
        let off_axis = angle_diff_deg(disp.azimuth_deg(), rep.fov.theta);
        (1.0 - off_axis / cam.half_angle_deg).clamp(0.0, 1.0)
    };

    let window = (query.t_end - query.t_start).max(1e-9);
    let overlap = (rep.t_end.min(query.t_end) - rep.t_start.max(query.t_start)).max(0.0);
    let temporal = (overlap / window).clamp(0.0, 1.0);

    proximity * alignment * temporal
}

/// Applies steps 3-4 of the filtering mechanism to index candidates:
/// the ranking operator with no delta and no cold tier, for callers
/// (bench harnesses, external users) holding raw `(Query, QueryOptions)`
/// pairs.
pub fn rank_candidates(
    candidates: &[SegmentId],
    store: &SegmentStore,
    cam: &CameraProfile,
    query: &Query,
    opts: &QueryOptions,
) -> Vec<SearchHit> {
    let plan = QueryPlan::compile(query, opts);
    rank_stage(candidates, [Vec::new(), Vec::new()], store, cam, &plan).0
}

/// The ranking operator (steps 3-4), consumed by every read entry
/// point: filters the index candidates through the plan's chain,
/// appends the other tiers' already-filtered hits (`[delta, cold]` —
/// an order stable ranking preserves among ties), then ranks and
/// truncates to `k`. Also returns how many index candidates survived
/// the filters.
pub(crate) fn rank_stage(
    candidates: &[SegmentId],
    tier_hits: [Vec<SearchHit>; 2],
    store: &SegmentStore,
    cam: &CameraProfile,
    plan: &QueryPlan,
) -> (Vec<SearchHit>, usize) {
    let mut hits = collect_hits(candidates, store, cam, plan);
    let hits_index = hits.len();
    for mut tier in tier_hits {
        hits.append(&mut tier);
    }
    rank_hits(&mut hits, plan.rank, plan.k);
    (hits, hits_index)
}

/// Resolves candidate ids against the store, applies the plan's filter
/// chain, and builds unranked hits. Retired (retracted) records are
/// dropped here as defense in depth: with sharded/snapshot indexes a
/// stale candidate id must never resurface a retracted segment.
///
/// Structured as struct-of-arrays phases over the surviving candidates:
/// the branchy resolve + filter pass first gathers the survivors, then
/// one dense loop computes every FoV→centre distance, then one loop
/// scores and materialises hits from the precomputed distances. Keeping
/// each phase a homogeneous loop over parallel arrays lets the compiler
/// vectorise the arithmetic (the same shape the [`swag_core::CamTrig`]
/// similarity fast path uses), and computes each distance once instead
/// of twice (rank key + quality proximity term).
fn collect_hits(
    candidates: &[SegmentId],
    store: &SegmentStore,
    cam: &CameraProfile,
    plan: &QueryPlan,
) -> Vec<SearchHit> {
    // Phase 1 — resolve + filter: the branchy pass, survivors only.
    let recs: Vec<&SegmentRecord> = candidates
        .iter()
        .filter(|&&id| !store.is_retired(id))
        .map(|&id| store.get(id))
        .filter(|rec| plan.filters.accepts(&rec.rep, cam, &plan.query))
        .collect();
    // Phase 2 — distances: one dense arithmetic loop over the survivors.
    let center = plan.query.center;
    let dists: Vec<f64> = recs
        .iter()
        .map(|rec| rec.rep.fov.p.distance_m(center))
        .collect();
    // Phase 3 — score + materialise from the precomputed distances.
    recs.iter()
        .zip(&dists)
        .map(|(rec, &d)| hit_with_distance(rec, cam, &plan.query, d))
        .collect()
}

/// Builds one hit from a record that already passed the filters.
pub(crate) fn hit_for(rec: &SegmentRecord, cam: &CameraProfile, query: &Query) -> SearchHit {
    hit_with_distance(rec, cam, query, rec.rep.fov.p.distance_m(query.center))
}

/// [`hit_for`] with the FoV→centre distance already computed.
fn hit_with_distance(rec: &SegmentRecord, cam: &CameraProfile, query: &Query, d: f64) -> SearchHit {
    SearchHit {
        id: rec.id,
        source: rec.source,
        rep: rec.rep,
        distance_m: d,
        quality: quality_score_with_distance(&rec.rep, cam, query, d),
    }
}

/// Step 4: stable-sorts by the rank mode's key and truncates to `k`.
fn rank_hits(hits: &mut Vec<SearchHit>, rank: RankMode, k: usize) {
    match rank {
        RankMode::Distance => hits.sort_by(|a, b| a.distance_m.total_cmp(&b.distance_m)),
        RankMode::Quality => hits.sort_by(|a, b| b.quality.total_cmp(&a.quality)),
    }
    hits.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_core::Fov;
    use swag_geo::LatLon;

    fn center() -> LatLon {
        LatLon::new(40.0, 116.32)
    }

    /// A store with segments at increasing distances, all pointing at the
    /// centre, plus one pointing away.
    fn store() -> (SegmentStore, Vec<SegmentId>) {
        let mut s = SegmentStore::new();
        let mut ids = Vec::new();
        for (i, dist) in [30.0, 10.0, 50.0, 20.0].iter().enumerate() {
            // Place the camera `dist` metres south of the centre, looking
            // north (towards the centre).
            let p = center().offset(180.0, *dist);
            let rep = RepFov::new(0.0, 10.0, Fov::new(p, 0.0));
            ids.push(s.push(
                rep,
                SegmentRef {
                    provider_id: i as u64,
                    video_id: 0,
                    segment_idx: 0,
                },
            ));
        }
        // Looking away from the centre.
        let p = center().offset(180.0, 15.0);
        ids.push(s.push(
            RepFov::new(0.0, 10.0, Fov::new(p, 180.0)),
            SegmentRef {
                provider_id: 99,
                video_id: 0,
                segment_idx: 0,
            },
        ));
        (s, ids)
    }

    fn query() -> Query {
        Query::new(0.0, 10.0, center(), 100.0)
    }

    #[test]
    fn ranks_by_distance() {
        let (s, ids) = store();
        let cam = CameraProfile::smartphone();
        let opts = QueryOptions {
            direction_filter: false,
            ..QueryOptions::default()
        };
        let hits = rank_candidates(&ids, &s, &cam, &query(), &opts);
        assert_eq!(hits.len(), 5);
        let dists: Vec<f64> = hits.iter().map(|h| h.distance_m).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]), "{dists:?}");
        assert_eq!(hits[0].source.provider_id, 1); // the 10 m one
    }

    #[test]
    fn direction_filter_drops_backwards_camera() {
        let (s, ids) = store();
        let cam = CameraProfile::smartphone();
        let opts = QueryOptions {
            direction_filter: true,
            direction_tolerance_deg: 0.0,
            ..QueryOptions::default()
        };
        let hits = rank_candidates(&ids, &s, &cam, &query(), &opts);
        assert_eq!(hits.len(), 4);
        assert!(hits.iter().all(|h| h.source.provider_id != 99));
    }

    #[test]
    fn top_n_truncates_after_ranking() {
        let (s, ids) = store();
        let cam = CameraProfile::smartphone();
        let opts = QueryOptions {
            top_n: 2,
            direction_filter: false,
            ..QueryOptions::default()
        };
        let hits = rank_candidates(&ids, &s, &cam, &query(), &opts);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].source.provider_id, 1);
        assert_eq!(hits[1].source.provider_id, 99); // 15 m, even if backwards
    }

    #[test]
    fn quality_score_components() {
        let cam = CameraProfile::smartphone();
        let q = query();
        // On-axis, close, full temporal overlap: near-perfect quality.
        let good = RepFov::new(0.0, 10.0, Fov::new(center().offset(180.0, 10.0), 0.0));
        let s_good = quality_score(&good, &cam, &q);
        assert!(s_good > 0.85, "{s_good}");
        // Far away: proximity term collapses.
        let far = RepFov::new(0.0, 10.0, Fov::new(center().offset(180.0, 99.0), 0.0));
        assert!(quality_score(&far, &cam, &q) < 0.05);
        // Off-axis by more than α: alignment term zero.
        let askew = RepFov::new(0.0, 10.0, Fov::new(center().offset(180.0, 10.0), 40.0));
        assert_eq!(quality_score(&askew, &cam, &q), 0.0);
        // Brief segment: temporal term shrinks proportionally.
        let brief = RepFov::new(0.0, 1.0, Fov::new(center().offset(180.0, 10.0), 0.0));
        let s_brief = quality_score(&brief, &cam, &q);
        assert!((s_brief - s_good * 0.1).abs() < 1e-9);
        // Standing on the query centre: alignment defined as perfect.
        let on_top = RepFov::new(0.0, 10.0, Fov::new(center(), 123.0));
        assert!(quality_score(&on_top, &cam, &q) > 0.99);
    }

    #[test]
    fn quality_rank_mode_orders_by_score() {
        let mut s = SegmentStore::new();
        // Nearest but pointing sideways (half-angle off) vs. slightly
        // farther but dead-on and longer.
        let askew = RepFov::new(0.0, 2.0, Fov::new(center().offset(180.0, 10.0), 20.0));
        let dead_on = RepFov::new(0.0, 10.0, Fov::new(center().offset(180.0, 30.0), 0.0));
        let ids = vec![
            s.push(
                askew,
                SegmentRef {
                    provider_id: 0,
                    video_id: 0,
                    segment_idx: 0,
                },
            ),
            s.push(
                dead_on,
                SegmentRef {
                    provider_id: 1,
                    video_id: 0,
                    segment_idx: 0,
                },
            ),
        ];
        let cam = CameraProfile::smartphone();
        let by_distance = rank_candidates(
            &ids,
            &s,
            &cam,
            &query(),
            &QueryOptions {
                direction_filter: false,
                ..QueryOptions::default()
            },
        );
        assert_eq!(by_distance[0].source.provider_id, 0);
        let by_quality = rank_candidates(
            &ids,
            &s,
            &cam,
            &query(),
            &QueryOptions {
                direction_filter: false,
                rank: RankMode::Quality,
                ..QueryOptions::default()
            },
        );
        assert_eq!(by_quality[0].source.provider_id, 1);
        assert!(by_quality[0].quality > by_quality[1].quality);
    }

    #[test]
    fn coverage_requirement_is_stricter() {
        let mut s = SegmentStore::new();
        // Camera 50 m south looking north with R = 100: covers the centre.
        let covering = RepFov::new(0.0, 10.0, Fov::new(center().offset(180.0, 50.0), 0.0));
        // Camera 50 m south looking east: points 90° off.
        let tangent = RepFov::new(0.0, 10.0, Fov::new(center().offset(180.0, 50.0), 90.0));
        let ids = vec![
            s.push(
                covering,
                SegmentRef {
                    provider_id: 0,
                    video_id: 0,
                    segment_idx: 0,
                },
            ),
            s.push(
                tangent,
                SegmentRef {
                    provider_id: 1,
                    video_id: 0,
                    segment_idx: 0,
                },
            ),
        ];
        let cam = CameraProfile::smartphone();
        let q = Query::new(0.0, 10.0, center(), 10.0);
        let opts = QueryOptions {
            direction_filter: false,
            require_coverage: true,
            ..QueryOptions::default()
        };
        let hits = rank_candidates(&ids, &s, &cam, &q, &opts);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].source.provider_id, 0);
    }

    #[test]
    fn retired_candidates_never_rank() {
        // Regression (privacy): a stale candidate list containing a
        // retracted segment's id must not resurface it.
        let (mut s, ids) = store();
        s.retire(ids[1]); // the closest one
        let cam = CameraProfile::smartphone();
        let opts = QueryOptions {
            direction_filter: false,
            ..QueryOptions::default()
        };
        let hits = rank_candidates(&ids, &s, &cam, &query(), &opts);
        assert_eq!(hits.len(), 4);
        assert!(hits.iter().all(|h| h.id != ids[1]));
        assert!(hits.iter().all(|h| h.source.provider_id != 1));
    }

    #[test]
    fn empty_candidates_give_empty_hits() {
        let (s, _) = store();
        let cam = CameraProfile::smartphone();
        let hits = rank_candidates(&[], &s, &cam, &query(), &QueryOptions::default());
        assert!(hits.is_empty());
    }
}
