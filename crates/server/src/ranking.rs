//! Rank-based retrieval: the paper's filtering mechanism (§V-B).
//!
//! Every tier's box matches (step 2) are offered to one [`TopN`]
//! collector, which filters them by direction (step 3: "exclude the FoVs
//! that have the improper direction"), ranks them by distance to the
//! query centre ("closer FoVs have a higher probability to cover the
//! query area") and keeps the top N (step 4) as they arrive.

use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};
use swag_core::{CameraProfile, RepFov};
use swag_geo::angle_diff_deg;
use swag_rtree::Aabb;

use crate::engine::plan::QueryPlan;
use crate::index::LeafRef;
use crate::query::{Query, QueryOptions, RankMode};
use crate::shard::LeafSink;
use crate::store::{SegmentId, SegmentRef, SegmentStore};

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

/// [`quality_score`] with the FoV→centre distance already computed
/// (every hit needs it as the distance-rank key); `d` must equal
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

/// Applies steps 3-4 of the filtering mechanism to index candidates (ties
/// kept in candidate order): the collector without the cold tier,
/// for callers holding raw `(Query, QueryOptions)` pairs.
pub fn rank_candidates(
    candidates: &[SegmentId],
    store: &SegmentStore,
    cam: &CameraProfile,
    query: &Query,
    opts: &QueryOptions,
) -> Vec<SearchHit> {
    let plan = QueryPlan::compile(query, opts);
    let mut top = TopN::new(&plan, cam, store);
    for (ord, &id) in (0..).zip(candidates) {
        let rec = store.get(id);
        top.offer(Tier::Index, ord, id, rec.rep, rec.source);
    }
    top.finish()
}

/// Which tier a hit came from: the tie-break after the rank key, in the
/// order the tiers' hits were always concatenated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Tier {
    Index,
    Cold,
}

/// `(rank key, tier, ordinal)`: ascending is best first.
type Rank = (i64, Tier, u64);

/// `x`'s position in IEEE total order — [`f64::total_cmp`]'s own
/// mapping, so integer order is exactly that comparison.
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The ranking operator's collector (steps 3-4). Each tier offers its
/// box matches; the plan's filter chain runs once per offer, and only
/// the best `k` under [`Rank`] are kept — by rank key, then tier, then
/// the tier's ordinal, the order a stable sort of the concatenated
/// `[index, cold]` hits produces. An unbounded `k` keeps
/// everything and sorts once; nothing is preallocated for `k`.
pub(crate) struct TopN<'a> {
    plan: &'a QueryPlan,
    cam: &'a CameraProfile,
    store: &'a SegmentStore,
    /// Max-heap of kept ranks, each with its hit's slot in `hits`.
    heap: BinaryHeap<(Rank, usize)>,
    hits: Vec<SearchHit>,
    /// Filter survivors per tier, before the top-k cut.
    survivors: [usize; 2],
}

impl<'a> TopN<'a> {
    pub(crate) fn new(
        plan: &'a QueryPlan,
        cam: &'a CameraProfile,
        store: &'a SegmentStore,
    ) -> Self {
        TopN {
            plan,
            cam,
            store,
            heap: BinaryHeap::new(),
            hits: Vec::new(),
            survivors: [0; 2],
        }
    }

    /// Offers one box match: runs the filter chain — and, for the index
    /// tier, the retired check (a stale id must never resurface a
    /// retracted segment) — and keeps the hit if it ranks among the best
    /// `k` so far. An index hit's `source` is read in [`Self::finish`].
    pub(crate) fn offer(
        &mut self,
        tier: Tier,
        ord: u64,
        id: SegmentId,
        rep: RepFov,
        source: SegmentRef,
    ) {
        if self.plan.accepts(&rep, self.cam) {
            self.admit(tier, ord, id, rep, source);
        }
    }

    /// [`Self::offer`] for a match that passed the filter chain.
    fn admit(&mut self, tier: Tier, ord: u64, id: SegmentId, rep: RepFov, source: SegmentRef) {
        let (plan, cam) = (self.plan, self.cam);
        if tier == Tier::Index && self.store.is_retired(id) {
            return;
        }
        self.survivors[tier as usize] += 1;
        let distance_m = rep.fov.p.distance_m(plan.query().center);
        let (key, quality) = match plan.rank {
            // Quality is only read for the winners; see `finish`.
            RankMode::Distance => (total_key(distance_m), 0.0),
            RankMode::Quality => {
                let q = quality_score_with_distance(&rep, cam, plan.query(), distance_m);
                (!total_key(q), q)
            }
        };
        let hit = SearchHit {
            id,
            source,
            rep,
            distance_m,
            quality,
        };
        self.keep((key, tier, ord), hit);
    }

    fn keep(&mut self, rank: Rank, hit: SearchHit) {
        if self.heap.len() < self.plan.k {
            self.heap.push((rank, self.hits.len()));
            self.hits.push(hit);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if rank < worst.0 {
                self.hits[worst.1] = hit;
                worst.0 = rank;
            }
        }
    }

    /// Filter survivors `tier` offered so far.
    pub(crate) fn survivors(&self, tier: Tier) -> usize {
        self.survivors[tier as usize]
    }

    /// Ranks the kept hits and materialises them. The segment store is
    /// read here for the winners' `source` only, and distance-ranked
    /// winners get their quality.
    pub(crate) fn finish(self) -> Vec<SearchHit> {
        let (plan, cam, store, hits) = (self.plan, self.cam, self.store, self.hits);
        let ranked = self.heap.into_sorted_vec().into_iter();
        ranked
            .map(|((_, tier, _), slot)| {
                let mut hit = hits[slot];
                if tier == Tier::Index {
                    hit.source = store.get(hit.id).source;
                }
                if plan.rank == RankMode::Distance {
                    hit.quality =
                        quality_score_with_distance(&hit.rep, cam, plan.query(), hit.distance_m);
                }
                hit
            })
            .collect()
    }
}

/// The index scan feeds the collector directly (ordinal: the segment
/// id), so a candidate list never exists. The direction filter reads the
/// leaf's raw fields; only a match facing the centre is rebuilt into its
/// rep.
///
/// Under the distance rank with a bounded `k`, the scan visits leaves
/// nearest-first and stops at the first leaf whose distance lower bound
/// exceeds the `k`-th hit's distance: every match in it ranks below all
/// `k` kept hits, and later offers (more leaves, the cold tier) only
/// lower the `k`-th distance. A leaf bounded exactly at that distance is
/// still visited, so equal distances break ties by id as before.
impl LeafSink for TopN<'_> {
    fn accept(&mut self, mbr: &Aabb<3>, leaf: &LeafRef) {
        let (plan, cam) = (self.plan, self.cam);
        if !plan.faces(cam, mbr.min[0], mbr.min[1], leaf.theta) {
            return;
        }
        let rep = leaf.rep(mbr);
        if plan.covers(&rep, cam) {
            let ord = leaf.id.0.into();
            self.admit(Tier::Index, ord, leaf.id, rep, SegmentRef::default());
        }
    }

    fn lower_bound(&self, mbr: &Aabb<3>) -> f64 {
        if self.plan.rank == RankMode::Distance && self.plan.k != usize::MAX {
            self.plan.distance_lower_bound(mbr)
        } else {
            0.0
        }
    }

    fn bound(&self) -> f64 {
        let full = self.plan.rank == RankMode::Distance && self.heap.len() == self.plan.k;
        match self.heap.peek() {
            Some(&(_, slot)) if full => self.hits[slot].distance_m,
            _ => f64::INFINITY,
        }
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
