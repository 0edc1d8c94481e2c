//! The distance lower bound against the distance it bounds.
//!
//! `DistanceBound::rect_m` must never exceed `p.distance_m(centre)` — as
//! computed in floating point — for any `p` of the rectangle: a bound one
//! ulp too high would let the server's distance rank skip a leaf holding
//! a top-k hit. Points are taken on the corners, on the edges and inside;
//! centres and rectangles sit at the poles, either side of ±180°, far
//! apart, or collapse to a point.

use proptest::prelude::*;
use swag_geo::{DistanceBound, LatLon};

/// The bound of the rectangle `lng × lat` around `c`, no band beyond it.
fn bound(c: LatLon, lng: [f64; 2], lat: [f64; 2]) -> f64 {
    DistanceBound::new(c, lat).rect_m(lng, lat)
}

/// A latitude: anywhere, at or within a hair of a pole, or mid-range.
fn lat() -> impl Strategy<Value = f64> {
    prop_oneof![
        -90.0..=90.0f64,
        Just(90.0),
        Just(-90.0),
        89.999..=90.0f64,
        -90.0..=-89.999f64,
        39.9..40.1f64,
    ]
}

/// A longitude: anywhere, either side of and on ±180°, or mid-range.
fn lng() -> impl Strategy<Value = f64> {
    prop_oneof![
        -180.0..180.0f64,
        179.999..=180.0f64,
        -180.0..-179.999f64,
        Just(180.0),
        Just(-180.0),
        116.2..116.4f64,
    ]
}

/// A range width in degrees: none, FoV-scale, city-scale or far.
fn width(max: f64) -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.0..1e-4f64, 0.0..0.05f64, 0.0..max]
}

/// `[lo, lo + w]` clamped into `[min, max]`.
fn range(lo: f64, w: f64, min: f64, max: f64) -> [f64; 2] {
    [lo.clamp(min, max), (lo + w).clamp(min, max)]
}

/// `lo + f · (hi − lo)`, kept inside `[lo, hi]` despite rounding.
fn lerp(r: [f64; 2], f: f64) -> f64 {
    (r[0] + f * (r[1] - r[0])).clamp(r[0], r[1])
}

/// Corners, edge points and inner points of `lng × lat`.
fn points(lng: [f64; 2], lat: [f64; 2], fs: &[(f64, f64)]) -> Vec<LatLon> {
    let at = |lng, lat| LatLon { lat, lng };
    let mut out: Vec<LatLon> = lng
        .iter()
        .flat_map(|&x| lat.iter().map(move |&y| at(x, y)))
        .collect();
    for &(f, g) in fs {
        let (x, y) = (lerp(lng, f), lerp(lat, g));
        out.extend([
            at(x, lat[0]),
            at(x, lat[1]),
            at(lng[0], y),
            at(lng[1], y),
            at(x, y),
        ]);
    }
    out
}

/// A rectangle near the centre (offsets of up to ±0.05°, wrapped across
/// ±180°) or anywhere on the globe.
fn rect(c: LatLon) -> impl Strategy<Value = ([f64; 2], [f64; 2])> {
    let near = (-0.05..0.05f64, -0.05..0.05f64, width(360.0), width(180.0)).prop_map(
        move |(dx, dy, w, h)| {
            let lo = c.lng + dx;
            let lo = if lo >= 180.0 {
                lo - 360.0
            } else if lo < -180.0 {
                lo + 360.0
            } else {
                lo
            };
            (
                range(lo, w, -180.0, 180.0),
                range(c.lat + dy, h, -90.0, 90.0),
            )
        },
    );
    let anywhere = (lng(), lat(), width(360.0), width(180.0))
        .prop_map(|(x, y, w, h)| (range(x, w, -180.0, 180.0), range(y, h, -90.0, 90.0)));
    prop_oneof![near, anywhere]
}

fn centre() -> impl Strategy<Value = LatLon> {
    (lat(), lng()).prop_map(|(lat, lng)| LatLon { lat, lng })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The bound of the whole rectangle never exceeds a point's distance.
    #[test]
    fn bound_never_exceeds_a_points_distance(
        c in centre(),
        (lng, lat) in rect(c),
        fs in prop::collection::vec((0.0..=1.0f64, 0.0..=1.0f64), 4),
    ) {
        let lb = bound(c, lng, lat);
        prop_assert!(lb >= 0.0);
        for p in points(lng, lat, &fs) {
            let d = p.distance_m(c);
            prop_assert!(lb <= d, "lb {lb} > d {d} at {p:?} from {c:?}, rect {lng:?} x {lat:?}");
        }
    }

    /// Restricted to a latitude band (the query box's, on the server),
    /// the bound holds for every point of the rectangle inside the band.
    #[test]
    fn banded_bound_never_exceeds_a_distance_inside_the_band(
        c in centre(),
        (lng, lat) in rect(c),
        reach in prop_oneof![0.0..0.02f64, 0.0..2.0f64],
        fs in prop::collection::vec((0.0..=1.0f64, 0.0..=1.0f64), 4),
    ) {
        let band = [(c.lat - reach).max(-90.0), (c.lat + reach).min(90.0)];
        let lb = DistanceBound::new(c, band).rect_m(lng, lat);
        let inside = [lat[0].max(band[0]), lat[1].min(band[1])];
        if inside[0] > inside[1] {
            prop_assert_eq!(lb, 0.0);
            return Ok(());
        }
        for p in points(lng, inside, &fs) {
            let d = p.distance_m(c);
            prop_assert!(lb <= d, "lb {lb} > d {d} at {p:?} from {c:?}, band {band:?}");
        }
    }

    /// A point rectangle is bounded by its own distance to within the
    /// margin: the bound is tight, not merely safe.
    #[test]
    fn point_bound_is_tight(c in centre(), p in centre()) {
        let d = p.distance_m(c);
        let lb = bound(c, [p.lng, p.lng], [p.lat, p.lat]);
        prop_assert!(lb <= d);
        // Beyond 180° of longitude apart `Δlng` wraps; a rectangle never
        // spans that much here, and the wrap is exact.
        prop_assert!(lb >= d * (1.0 - 1e-9) - 1e-9, "lb {lb} vs d {d}");
    }

    /// Non-finite input never prunes.
    #[test]
    fn non_finite_input_gives_zero(
        c in centre(),
        (lng, lat) in (lng(), lat()).prop_map(|(x, y)| ([x, x], [y, y])),
        bad in prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
        slot in 0usize..6,
    ) {
        let (mut c, mut lng, mut lat) = (c, lng, lat);
        match slot {
            0 => c.lat = bad,
            1 => c.lng = bad,
            2 => lng[0] = bad,
            3 => lng[1] = bad,
            4 => lat[0] = bad,
            _ => lat[1] = bad,
        }
        prop_assert_eq!(bound(c, lng, lat), 0.0);
        prop_assert_eq!(DistanceBound::new(c, [-90.0, 90.0]).rect_m(lng, lat), 0.0);
    }
}

#[test]
fn bound_reads_the_short_way_across_the_antimeridian() {
    // A leaf just east of ±180° is ≈ 110 m from a centre just west of it.
    let c = LatLon::new(10.0, 179.9995);
    let lb = bound(c, [-179.9995, -179.99], [9.99, 10.01]);
    let d = LatLon::new(10.0, -179.9995).distance_m(c);
    assert!(lb <= d && lb > 0.99 * d, "lb {lb} vs d {d}");
    // Spanning 180° of longitude or more: only the latitude gap counts.
    let wide = bound(c, [-90.0, 90.0], [10.5, 11.0]);
    let dy = 0.5 * swag_geo::METERS_PER_DEG;
    assert!(wide <= dy && wide > 0.99 * dy, "{wide}");
}
