//! The spatio-temporal FoV index (paper §V-A).
//!
//! Each representative FoV becomes a 3-D "rectangle" that is degenerate in
//! space and extended in time: `min = [lng, lat, t_s]`,
//! `max = [lng, lat, t_e]` — a line segment in (longitude, latitude, time)
//! space, exactly as the paper stores it. Queries become boxes covering the
//! rescaled radius in both spatial dimensions and the requested interval in
//! time.
//!
//! Two interchangeable implementations share the [`FovIndex`] interface:
//! the R-tree ([`IndexKind::RTree`]) and the naive linear scan the paper
//! benchmarks against in Fig. 6(c) ([`IndexKind::Linear`]).

use swag_core::{Fov, RepFov};
use swag_geo::{LatLon, METERS_PER_DEG};
use swag_rtree::{Aabb, Item, RTree, RTreeConfig, SearchStats};

use crate::query::Query;
use crate::store::SegmentId;

/// Which index structure backs a [`FovIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// 3-D R-tree (the paper's design).
    #[default]
    RTree,
    /// Naive linear scan over all records (the Fig. 6(c) baseline).
    Linear,
}

/// The FoV rectangle of a representative FoV (paper §V-A).
pub fn fov_box(rep: &RepFov) -> Aabb<3> {
    Aabb::new(
        [rep.fov.p.lng, rep.fov.p.lat, rep.t_start],
        [rep.fov.p.lng, rep.fov.p.lat, rep.t_end],
    )
}

/// The query rectangle(s) of a request (paper §V-B): the radius is
/// converted to longitude/latitude scales over the query's latitude band.
///
/// Up to two boxes come back because longitude wraps at ±180°: a query
/// centred near the antimeridian produces one box ending at 180° and a
/// second starting at −180°. Searching both (and deduplicating) is what
/// makes retrieval correct across the meridian — a single box extending
/// past ±180° can never intersect segments stored on the other side.
///
/// The longitude scale is converted at the query centre (the paper's
/// rule). If the box touches a pole — where one metre spans unboundedly
/// many degrees of longitude and that conversion degenerates — or the
/// radius covers more than half the globe in longitude, the box covers
/// the full −180..180 range instead of silently degenerating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryBoxes {
    boxes: [Aabb<3>; 2],
    n: usize,
}

impl QueryBoxes {
    /// The boxes to search (one, or two when the query wraps ±180°).
    #[inline]
    pub fn as_slice(&self) -> &[Aabb<3>] {
        &self.boxes[..self.n]
    }

    /// Whether any of the boxes intersects `b`.
    #[inline]
    pub fn intersects(&self, b: &Aabb<3>) -> bool {
        self.as_slice().iter().any(|qb| qb.intersects(b))
    }
}

/// Builds the query box set for a request (see [`QueryBoxes`]).
pub fn query_boxes(q: &Query) -> QueryBoxes {
    let r_lat = q.radius_m / METERS_PER_DEG;
    let lat_min = (q.center.lat - r_lat).max(-90.0);
    let lat_max = (q.center.lat + r_lat).min(90.0);
    let coslat = q.center.lat.to_radians().cos().max(1e-12);
    let r_lng = q.radius_m / (METERS_PER_DEG * coslat);
    let full_wrap = lat_min <= -90.0 + 1e-12 || lat_max >= 90.0 - 1e-12 || r_lng >= 180.0;
    let one = |lng_min: f64, lng_max: f64| {
        Aabb::new([lng_min, lat_min, q.t_start], [lng_max, lat_max, q.t_end])
    };
    if full_wrap {
        return QueryBoxes {
            boxes: [one(-180.0, 180.0); 2],
            n: 1,
        };
    }
    let lng_min = q.center.lng - r_lng;
    let lng_max = q.center.lng + r_lng;
    if lng_min < -180.0 {
        // Wraps west past the antimeridian: the overflow re-enters at +180.
        QueryBoxes {
            boxes: [one(-180.0, lng_max), one(lng_min + 360.0, 180.0)],
            n: 2,
        }
    } else if lng_max > 180.0 {
        // Wraps east past the antimeridian.
        QueryBoxes {
            boxes: [one(lng_min, 180.0), one(-180.0, lng_max - 360.0)],
            n: 2,
        }
    } else {
        QueryBoxes {
            boxes: [one(lng_min, lng_max); 2],
            n: 1,
        }
    }
}

/// What an index leaf stores beside its box: the segment id and the
/// orientation θ, copied bit for bit from `rep.fov.theta`. Position and
/// `[t_s, t_e]` *are* the box, so [`LeafRef::rep`] rebuilds the whole
/// representative FoV — all the filter chain and both rank keys read —
/// without a segment-store access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafRef {
    /// Server-side id of the segment.
    pub id: SegmentId,
    /// Camera azimuth θ of the representative FoV, degrees.
    pub theta: f64,
}

// A leaf entry is the index's whole per-segment memory: keep it at 64 B.
const _: () = assert!(std::mem::size_of::<LeafRef>() == 16);
const _: () = assert!(std::mem::size_of::<(Aabb<3>, LeafRef)>() == 64);

impl LeafRef {
    /// The leaf entry of `rep` indexed as segment `id`.
    pub fn entry(rep: &RepFov, id: SegmentId) -> (Aabb<3>, LeafRef) {
        (
            fov_box(rep),
            LeafRef {
                id,
                theta: rep.fov.theta,
            },
        )
    }

    /// The representative FoV this leaf was built from, bit-exact, given
    /// its [`fov_box`] `mbr`.
    #[inline]
    pub fn rep(&self, mbr: &Aabb<3>) -> RepFov {
        RepFov {
            t_start: mbr.min[2],
            t_end: mbr.max[2],
            fov: Fov {
                p: LatLon {
                    lat: mbr.min[1],
                    lng: mbr.min[0],
                },
                theta: self.theta,
            },
        }
    }
}

/// Examines one leaf that `boxes[i]` reached: calls `visit` for every
/// entry inside `boxes[i]`, except that a later box skips an entry inside
/// `boxes[0]` — a FoV exactly on ±180° falls into both antimeridian
/// half-boxes and was visited with the first. Counts the leaf, its
/// entries and its matches into `stats` when given, before that skip.
#[inline]
pub(crate) fn scan_leaf<'a>(
    entries: &'a [Item<LeafRef, 3>],
    boxes: &[Aabb<3>],
    i: usize,
    stats: Option<&mut SearchStats>,
    mut visit: impl FnMut(&'a Aabb<3>, &'a LeafRef),
) {
    let qb = &boxes[i];
    let mut matched = 0;
    for item in entries.iter().filter(|item| item.mbr.intersects(qb)) {
        matched += 1;
        if i == 0 || !boxes[0].intersects(&item.mbr) {
            visit(&item.mbr, &item.value);
        }
    }
    if let Some(stats) = stats {
        stats.nodes_visited += 1;
        stats.leaves_scanned += 1;
        stats.items_tested += entries.len() as u64;
        stats.items_matched += matched;
    }
}

/// A spatio-temporal index over segment ids.
#[derive(Debug, Clone)]
pub enum FovIndex {
    /// R-tree backed.
    RTree(RTree<LeafRef, 3>),
    /// Linear-scan backed: one flat leaf of every record.
    Linear(Vec<Item<LeafRef, 3>>),
}

impl FovIndex {
    /// Creates an empty index of the requested kind.
    pub fn new(kind: IndexKind) -> Self {
        match kind {
            IndexKind::RTree => FovIndex::RTree(RTree::new()),
            IndexKind::Linear => FovIndex::Linear(Vec::new()),
        }
    }

    /// Bulk loads an R-tree index from `(rep, id)` pairs (STR packing,
    /// tiled in all three dimensions: a flat index has no time shards).
    pub fn bulk_load(items: Vec<(RepFov, SegmentId)>) -> Self {
        let entries = items.iter().map(|(rep, id)| LeafRef::entry(rep, *id));
        FovIndex::RTree(RTree::bulk_load(entries.collect()))
    }

    /// A time shard's run of `kind` holding exactly `entries`: an R-tree
    /// is STR bulk-loaded from them tiling space only, (lng, lat) — the
    /// shard already is the time partition, and tiling time inside it
    /// too would only make every spatial cell larger (DESIGN.md §7); a
    /// linear index keeps them as given.
    pub fn packed(kind: IndexKind, entries: Vec<(Aabb<3>, LeafRef)>) -> Self {
        match kind {
            IndexKind::RTree => {
                FovIndex::RTree(RTree::bulk_load_tiled(RTreeConfig::default(), 2, entries))
            }
            IndexKind::Linear => {
                let items = entries.into_iter().map(|(mbr, value)| Item { mbr, value });
                FovIndex::Linear(items.collect())
            }
        }
    }

    /// Number of indexed segments.
    pub fn len(&self) -> usize {
        match self {
            FovIndex::RTree(t) => t.len(),
            FovIndex::Linear(v) => v.len(),
        }
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends every indexed `(box, leaf)` entry to `out`, in
    /// unspecified order.
    pub(crate) fn append_entries(&self, out: &mut Vec<(Aabb<3>, LeafRef)>) {
        out.reserve(self.len());
        match self {
            FovIndex::RTree(t) => out.extend(t.iter().map(|(b, leaf)| (*b, *leaf))),
            FovIndex::Linear(v) => out.extend(v.iter().map(|it| (it.mbr, it.value))),
        }
    }

    /// Visits every indexed `(box, id)` pair in unspecified order.
    pub fn for_each_item(&self, mut f: impl FnMut(&Aabb<3>, SegmentId)) {
        match self {
            FovIndex::RTree(t) => t.iter().for_each(|(b, leaf)| f(b, leaf.id)),
            FovIndex::Linear(v) => v.iter().for_each(|it| f(&it.mbr, it.value.id)),
        }
    }

    /// Indexes one representative FoV.
    pub fn insert(&mut self, rep: &RepFov, id: SegmentId) {
        let (b, leaf) = LeafRef::entry(rep, id);
        match self {
            FovIndex::RTree(t) => t.insert(b, leaf),
            FovIndex::Linear(v) => v.push(Item {
                mbr: b,
                value: leaf,
            }),
        }
    }

    /// The index's one read traversal: the leaves `qb` reaches, each
    /// with its box (`None` for a root leaf) and its entries, unfiltered;
    /// the linear scan is one such leaf holding every record. Returns the
    /// internal nodes walked.
    pub(crate) fn leaves<'a>(
        &'a self,
        qb: &Aabb<3>,
        mut visit: impl FnMut(Option<&'a Aabb<3>>, &'a [Item<LeafRef, 3>]),
    ) -> u64 {
        match self {
            FovIndex::RTree(t) => t.search_leaves(qb, visit),
            FovIndex::Linear(v) => {
                visit(None, v);
                0
            }
        }
    }

    /// Calls `visit` once for every item whose box intersects any of
    /// `boxes`, box by box in visit order ([`Self::leaves`] then
    /// [`scan_leaf`]). Traversal counters accumulate into `stats` when
    /// given.
    pub fn visit<'a>(
        &'a self,
        boxes: &[Aabb<3>],
        mut stats: Option<&mut SearchStats>,
        mut visit: impl FnMut(&'a Aabb<3>, &'a LeafRef),
    ) {
        for (i, qb) in boxes.iter().enumerate() {
            let internal = self.leaves(qb, |_, entries| {
                scan_leaf(entries, boxes, i, stats.as_deref_mut(), &mut visit);
            });
            if let Some(stats) = stats.as_deref_mut() {
                stats.nodes_visited += internal;
            }
        }
    }

    /// All segment ids whose FoV rectangle intersects the query rectangle
    /// (spatial *and* temporal overlap, §V-B), each once: in visit order,
    /// ascending when the query wraps the ±180° antimeridian.
    pub fn candidates(&self, q: &Query) -> Vec<SegmentId> {
        let boxes = query_boxes(q);
        let mut out = Vec::new();
        self.visit(boxes.as_slice(), None, |_, leaf| out.push(leaf.id));
        if boxes.as_slice().len() > 1 {
            out.sort_unstable();
        }
        out
    }

    /// Whether segment `id` is indexed here under box `mbr`.
    pub(crate) fn contains(&self, mbr: &Aabb<3>, id: SegmentId) -> bool {
        let mut found = false;
        self.visit(std::slice::from_ref(mbr), None, |_, leaf| {
            found |= leaf.id == id
        });
        found
    }

    /// Removes one indexed segment (used when providers retract videos).
    pub fn remove(&mut self, rep: &RepFov, id: SegmentId) -> bool {
        let b = fov_box(rep);
        match self {
            FovIndex::RTree(t) => t.remove(&b, |leaf| leaf.id == id).is_some(),
            FovIndex::Linear(v) => {
                let pos = v.iter().position(|it| it.mbr == b && it.value.id == id);
                pos.map(|pos| v.swap_remove(pos)).is_some()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_core::Fov;

    fn rep_at(north_m: f64, east_m: f64, t0: f64, t1: f64) -> RepFov {
        let p = LatLon::new(40.0, 116.32).offset_by(swag_geo::Vec2::new(east_m, north_m));
        RepFov::new(t0, t1, Fov::new(p, 0.0))
    }

    fn q(radius_m: f64, t0: f64, t1: f64) -> Query {
        Query::new(t0, t1, LatLon::new(40.0, 116.32), radius_m)
    }

    #[test]
    fn fov_box_is_degenerate_in_space() {
        let r = rep_at(0.0, 0.0, 5.0, 9.0);
        let b = fov_box(&r);
        assert_eq!(b.min[0], b.max[0]);
        assert_eq!(b.min[1], b.max[1]);
        assert_eq!((b.min[2], b.max[2]), (5.0, 9.0));
    }

    #[test]
    fn query_box_covers_radius() {
        let query = q(100.0, 0.0, 10.0);
        let b = query_boxes(&query);
        assert_eq!(b.as_slice().len(), 1);
        // The box must contain positions 100 m in every direction.
        for (n, e) in [(99.0, 0.0), (-99.0, 0.0), (0.0, 99.0), (0.0, -99.0)] {
            let r = rep_at(n, e, 5.0, 6.0);
            assert!(b.intersects(&fov_box(&r)), "offset ({n}, {e})");
        }
        // ...but not 150 m away.
        let far = rep_at(150.0, 0.0, 5.0, 6.0);
        assert!(!b.intersects(&fov_box(&far)));
    }

    fn rep_at_lnglat(lng: f64, lat: f64, t0: f64, t1: f64) -> RepFov {
        RepFov::new(t0, t1, Fov::new(LatLon::new(lat, lng), 0.0))
    }

    #[test]
    fn antimeridian_query_wraps_east() {
        // Query centred just west of +180°; the segment sits just east of
        // the wrap, i.e. at longitude −179.999°. Pre-fix, the single query
        // box extended past +180 and could never intersect it.
        for kind in [IndexKind::RTree, IndexKind::Linear] {
            let mut idx = FovIndex::new(kind);
            idx.insert(&rep_at_lnglat(-179.999, 10.0, 0.0, 10.0), SegmentId(0));
            idx.insert(&rep_at_lnglat(179.999, 10.0, 0.0, 10.0), SegmentId(1));
            idx.insert(&rep_at_lnglat(0.0, 10.0, 0.0, 10.0), SegmentId(2));
            let query = Query::new(0.0, 10.0, LatLon::new(10.0, 179.999), 1000.0);
            let boxes = query_boxes(&query);
            assert_eq!(boxes.as_slice().len(), 2, "{kind:?}: should wrap");
            let mut hits = idx.candidates(&query);
            hits.sort();
            assert_eq!(hits, vec![SegmentId(0), SegmentId(1)], "{kind:?}");
        }
    }

    #[test]
    fn antimeridian_query_wraps_west() {
        for kind in [IndexKind::RTree, IndexKind::Linear] {
            let mut idx = FovIndex::new(kind);
            idx.insert(&rep_at_lnglat(179.999, -35.0, 0.0, 10.0), SegmentId(0));
            idx.insert(&rep_at_lnglat(-179.999, -35.0, 0.0, 10.0), SegmentId(1));
            idx.insert(&rep_at_lnglat(90.0, -35.0, 0.0, 10.0), SegmentId(2));
            let query = Query::new(0.0, 10.0, LatLon::new(-35.0, -179.999), 1000.0);
            let boxes = query_boxes(&query);
            assert_eq!(boxes.as_slice().len(), 2, "{kind:?}: should wrap");
            let mut hits = idx.candidates(&query);
            hits.sort();
            assert_eq!(hits, vec![SegmentId(0), SegmentId(1)], "{kind:?}");
        }
    }

    #[test]
    fn antimeridian_dedups_boundary_point() {
        // A point exactly on ±180° may land in both half-boxes; it must be
        // reported once.
        let mut idx = FovIndex::new(IndexKind::Linear);
        idx.insert(&rep_at_lnglat(180.0, 0.0, 0.0, 10.0), SegmentId(0));
        let query = Query::new(0.0, 10.0, LatLon::new(0.0, 179.9999), 1000.0);
        assert_eq!(idx.candidates(&query), vec![SegmentId(0)]);
        // Overlapping boxes: the second one's repeat is skipped, but the
        // counters count raw matches.
        for kind in [IndexKind::RTree, IndexKind::Linear] {
            let mut idx = FovIndex::new(kind);
            idx.insert(&rep_at_lnglat(180.0, 0.0, 0.0, 10.0), SegmentId(0));
            let b = query_boxes(&query).as_slice()[1];
            let mut stats = SearchStats::default();
            let mut visited = 0;
            idx.visit(&[b, b], Some(&mut stats), |_, _| visited += 1);
            assert_eq!((visited, stats.items_matched), (1, 2), "{kind:?}");
        }
    }

    #[test]
    fn polar_query_covers_all_longitudes() {
        // Near the pole one metre spans many degrees of longitude; the old
        // `coslat.max(1e-9)` clamp silently degenerated instead of widening.
        // A box touching the pole must cover every longitude.
        let mut idx = FovIndex::new(IndexKind::RTree);
        idx.insert(&rep_at_lnglat(10.0, 89.9995, 0.0, 10.0), SegmentId(0));
        idx.insert(&rep_at_lnglat(-170.0, 89.9995, 0.0, 10.0), SegmentId(1));
        let query = Query::new(0.0, 10.0, LatLon::new(89.9995, 100.0), 200.0);
        let boxes = query_boxes(&query);
        assert_eq!(boxes.as_slice().len(), 1);
        let qb = boxes.as_slice()[0];
        assert_eq!((qb.min[0], qb.max[0]), (-180.0, 180.0));
        let mut hits = idx.candidates(&query);
        hits.sort();
        assert_eq!(hits, vec![SegmentId(0), SegmentId(1)]);
    }

    #[test]
    fn both_kinds_agree() {
        let reps: Vec<RepFov> = (0..200)
            .map(|i| {
                let ang = f64::from(i) * 7.3;
                rep_at(
                    (f64::from(i) * 13.7).sin() * 400.0,
                    ang.cos() * 400.0,
                    f64::from(i),
                    f64::from(i) + 5.0,
                )
            })
            .collect();
        let mut rtree = FovIndex::new(IndexKind::RTree);
        let mut linear = FovIndex::new(IndexKind::Linear);
        for (i, r) in reps.iter().enumerate() {
            rtree.insert(r, SegmentId(i as u32));
            linear.insert(r, SegmentId(i as u32));
        }
        for query in [
            q(100.0, 0.0, 300.0),
            q(300.0, 50.0, 100.0),
            q(20.0, 500.0, 600.0),
        ] {
            let mut a = rtree.candidates(&query);
            let mut b = linear.candidates(&query);
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn temporal_filtering_works() {
        let mut idx = FovIndex::new(IndexKind::RTree);
        idx.insert(&rep_at(0.0, 0.0, 0.0, 10.0), SegmentId(0));
        idx.insert(&rep_at(0.0, 0.0, 20.0, 30.0), SegmentId(1));
        assert_eq!(idx.candidates(&q(50.0, 12.0, 18.0)), vec![]);
        assert_eq!(idx.candidates(&q(50.0, 5.0, 25.0)).len(), 2);
        assert_eq!(idx.candidates(&q(50.0, 0.0, 3.0)), vec![SegmentId(0)]);
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let reps: Vec<(RepFov, SegmentId)> = (0..500)
            .map(|i| {
                (
                    rep_at(
                        f64::from(i % 23) * 40.0,
                        f64::from(i % 17) * 40.0,
                        f64::from(i),
                        f64::from(i) + 2.0,
                    ),
                    SegmentId(i as u32),
                )
            })
            .collect();
        let bulk = FovIndex::bulk_load(reps.clone());
        let mut incr = FovIndex::new(IndexKind::RTree);
        for (r, id) in &reps {
            incr.insert(r, *id);
        }
        let query = q(400.0, 100.0, 300.0);
        let mut a = bulk.candidates(&query);
        let mut b = incr.candidates(&query);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn candidates_with_stats_agrees_with_candidates() {
        for kind in [IndexKind::RTree, IndexKind::Linear] {
            let mut idx = FovIndex::new(kind);
            for i in 0..300u32 {
                let r = rep_at(
                    f64::from(i % 19) * 50.0,
                    f64::from(i % 13) * 50.0,
                    f64::from(i),
                    f64::from(i) + 4.0,
                );
                idx.insert(&r, SegmentId(i));
            }
            let query = q(300.0, 50.0, 200.0);
            let mut stats = SearchStats::default();
            let mut a = Vec::new();
            idx.visit(
                query_boxes(&query).as_slice(),
                Some(&mut stats),
                |_, leaf| {
                    a.push(leaf.id);
                },
            );
            let mut b = idx.candidates(&query);
            a.sort();
            b.sort();
            assert_eq!(a, b, "{kind:?}");
            assert_eq!(stats.items_matched, a.len() as u64, "{kind:?}");
            assert!(stats.items_tested >= stats.items_matched);
            assert!(stats.leaves_scanned >= 1);
        }
    }

    #[test]
    fn leaf_rebuilds_the_rep_bit_exactly() {
        for rep in [
            rep_at(12.5, -7.25, 3.0, 9.5),
            RepFov::new(-0.0, 0.0, Fov::new(LatLon::new(-0.0, 180.0), 359.999)),
        ] {
            let (b, leaf) = LeafRef::entry(&rep, SegmentId(3));
            let back = leaf.rep(&b);
            let bits = |r: &RepFov| {
                [r.t_start, r.t_end, r.fov.p.lat, r.fov.p.lng, r.fov.theta].map(f64::to_bits)
            };
            assert_eq!(bits(&back), bits(&rep));
        }
    }

    #[test]
    fn remove_unindexes() {
        let mut idx = FovIndex::new(IndexKind::RTree);
        let r = rep_at(0.0, 0.0, 0.0, 10.0);
        idx.insert(&r, SegmentId(7));
        assert!(idx.remove(&r, SegmentId(7)));
        assert!(!idx.remove(&r, SegmentId(7)));
        assert!(idx.candidates(&q(50.0, 0.0, 10.0)).is_empty());
    }
}
