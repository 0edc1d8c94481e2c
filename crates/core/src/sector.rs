//! Sector geometry for rank-based retrieval (paper §V-B).
//!
//! A camera's viewable scene is the circular sector with apex `p`, axis
//! `θ`, half-angle `α` and radius `R`. Retrieval needs two predicates on
//! that sector:
//!
//! * does it **contain** a point (used by accuracy ground truth), and
//! * does it **intersect** the querier's circular area (the *covering* test
//!   the paper's filtering mechanism approximates with a distance sort and
//!   direction filter).

use swag_geo::{angle_diff_deg, lng_delta_deg, LatLon, Vec2, METERS_PER_DEG};

use crate::fov::{CameraProfile, Fov};
use crate::similarity::{COS_SLACK, HALF_DEG_RAD};

/// Whether the FoV's view sector contains a geographic point.
pub fn sector_contains(fov: &Fov, cam: &CameraProfile, point: LatLon) -> bool {
    let d = fov.p.displacement_to(point);
    let dist = d.norm();
    if dist > cam.view_radius_m {
        return false;
    }
    if dist < 1e-9 {
        return true; // the apex itself
    }
    angle_diff_deg(d.azimuth_deg(), fov.theta) <= cam.half_angle_deg
}

/// Whether the FoV's view sector intersects the disc of radius `radius_m`
/// centred at `center` — i.e. whether this video segment can **cover** any
/// part of the query area.
///
/// Exact for `α < 90°` (the sector is convex): the nearest sector point to
/// the disc centre lies on the axis ray, on the bounding arc, or on one of
/// the two straight edges.
pub fn sector_intersects_circle(
    fov: &Fov,
    cam: &CameraProfile,
    center: LatLon,
    radius_m: f64,
) -> bool {
    debug_assert!(radius_m >= 0.0);
    let c = fov.p.displacement_to(center);
    let dist = c.norm();

    // Disc covers the apex.
    if dist <= radius_m {
        return true;
    }

    let bearing = c.azimuth_deg();
    if angle_diff_deg(bearing, fov.theta) <= cam.half_angle_deg {
        // Centre lies inside the cone of directions: the nearest sector
        // point sits on the ray towards the centre, clipped at radius R.
        return dist - cam.view_radius_m <= radius_m;
    }

    // Centre lies outside the cone: nearest point is on one of the two
    // straight edges.
    let (lo, hi) = fov.coverage_deg(cam);
    let edge_a = Vec2::from_azimuth_deg(lo) * cam.view_radius_m;
    let edge_b = Vec2::from_azimuth_deg(hi) * cam.view_radius_m;
    let d = point_segment_distance(c, Vec2::ZERO, edge_a).min(point_segment_distance(
        c,
        Vec2::ZERO,
        edge_b,
    ));
    d <= radius_m
}

/// Whether the FoV is oriented towards `target` — the paper's direction
/// filter (§V-B step 3) that discards retrieved FoVs with an "improper
/// direction".
///
/// `tolerance_deg` widens the accepted cone beyond `α` to absorb sensor
/// noise; pass `0.0` for the strict test.
pub fn points_toward(fov: &Fov, cam: &CameraProfile, target: LatLon, tolerance_deg: f64) -> bool {
    let d = fov.p.displacement_to(target);
    let limit_deg = cam.half_angle_deg + tolerance_deg;
    if let Some(verdict) = clear_verdict(d, fov.theta, limit_deg, ATAN_MARGIN_DEG) {
        return verdict;
    }
    if d.norm() < 1e-9 {
        return true; // standing on the target: any direction shows it
    }
    angle_diff_deg(d.azimuth_deg(), fov.theta) <= limit_deg
}

/// [`points_toward`] compiled for one target and tolerance, so that a
/// query testing many FoVs pays no transcendental per FoV.
///
/// [`accepts`](Self::accepts) equals `points_toward` for every input. It
/// scales `Δlng` by the target's `cos lat_c`, computed once, in place of
/// the exact test's `cos(mean lat)`, and widens `clear_verdict`'s margin
/// by what that substitution can move the bearing:
///
/// - `|cos m − cos lat_c| ≤ |m − lat_c| = |Δlat|/2` (radians), the bound
///   [`SimAnchor`](crate::SimAnchor) uses, so the east offset is off by a
///   relative `e ≤ (|Δlat|·π/360 + slack) / cos lat_c`;
/// - scaling one leg of the displacement by `r ∈ [1 − e, 1 + e]` turns
///   its bearing by at most `|ln r|/2 ≤ e/(2(1 − e)) ≤ e` radians while
///   `e ≤ 1/2` (the derivative of `atan(eˢ·t)` in `s` is at most 1/2).
///
/// Outside the widened margin the verdict is final; inside it, for
/// `e > 1/2` and for non-finite or out-of-range input, `accepts` calls
/// `points_toward` itself. See DESIGN.md, "Reconstructed formulas".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectionTest {
    target: LatLon,
    tolerance_deg: f64,
    /// `cos lat_c`.
    cos_lat: f64,
    /// `1 / cos lat_c`, or `+∞` unless `cos lat_c > 0` (every `e` then
    /// exceeds 1/2 and the exact test decides).
    sec_lat: f64,
}

impl DirectionTest {
    /// The direction filter towards `target`, the camera's half-angle
    /// widened by `tolerance_deg`.
    pub fn new(target: LatLon, tolerance_deg: f64) -> Self {
        let cos_lat = target.lat.to_radians().cos();
        let sec_lat = if cos_lat > 0.0 {
            1.0 / cos_lat
        } else {
            f64::INFINITY
        };
        DirectionTest {
            target,
            tolerance_deg,
            cos_lat,
            sec_lat,
        }
    }

    /// Whether a FoV at `(lng, lat)` with axis `theta` points toward the
    /// target: `points_toward(&Fov { p: LatLon { lat, lng }, theta }, cam,
    /// target, tolerance_deg)`, from the raw fields.
    #[inline]
    pub fn accepts(&self, cam: &CameraProfile, lng: f64, lat: f64, theta: f64) -> bool {
        let c = self.target;
        // The exact test's very differences: `dy` is bit for bit its own.
        let dlat = c.lat - lat;
        let dlng = lng_delta_deg(lng, c.lng);
        let e = (dlat.abs() * HALF_DEG_RAD + COS_SLACK) * self.sec_lat;
        if e <= 0.5 && dlng.abs() <= 180.0 {
            let d = Vec2::new(METERS_PER_DEG * self.cos_lat * dlng, METERS_PER_DEG * dlat);
            let limit_deg = cam.half_angle_deg + self.tolerance_deg;
            let margin_deg = ATAN_MARGIN_DEG + e.to_degrees();
            if let Some(verdict) = clear_verdict(d, theta, limit_deg, margin_deg) {
                return verdict;
            }
        }
        let fov = Fov {
            p: LatLon { lat, lng },
            theta,
        };
        points_toward(&fov, cam, c, self.tolerance_deg)
    }
}

/// [`clear_verdict`]'s margin on an exact displacement: it clears the
/// ≤ 7e-4° error of the polynomial arctangent (Abramowitz & Stegun
/// 4.4.49, |ε| ≤ 1.2e-5 rad) and the bearing's rounding many times over.
const ATAN_MARGIN_DEG: f64 = 0.01;

/// The cheap half of [`points_toward`]: its verdict when the axis `theta`
/// is off the bearing of `d` by more or less than `limit_deg` by over
/// `margin_deg` — at least [`ATAN_MARGIN_DEG`], plus however far the
/// caller's `d` may turn from the exact test's. The bearing comes from a
/// polynomial arctangent. Near the limit, and for degenerate input,
/// `None` leaves it to the exact test, so the verdicts are the exact
/// test's.
fn clear_verdict(d: Vec2, theta: f64, limit_deg: f64, margin_deg: f64) -> Option<bool> {
    use std::f64::consts::{FRAC_PI_2, PI, TAU};
    let (ax, ay) = (d.x.abs(), d.y.abs());
    if !(ax.max(ay) > 1e-6 && (0.0..360.0).contains(&theta)) {
        return None;
    }
    let atan = atan_unit(ax.min(ay) / ax.max(ay));
    // Clockwise from north within the quadrant, then unfolded into the
    // southern and western halves (plain selects, no branches).
    let bearing = if ax <= ay { atan } else { FRAC_PI_2 - atan };
    let bearing = if d.y < 0.0 { PI - bearing } else { bearing };
    let bearing = if d.x < 0.0 { TAU - bearing } else { bearing };
    let off = (bearing.to_degrees() - theta).abs();
    let off = off.min(360.0 - off);
    if off > limit_deg + margin_deg {
        Some(false)
    } else if off < limit_deg - margin_deg {
        Some(true)
    } else {
        None
    }
}

/// arctan on `[0, 1]`, Abramowitz & Stegun 4.4.49: |error| ≤ 1.2e-5 rad.
fn atan_unit(t: f64) -> f64 {
    let t2 = t * t;
    t * (0.999_866 + t2 * (-0.330_299_5 + t2 * (0.180_141 + t2 * (-0.085_133 + t2 * 0.020_835_1))))
}

/// Euclidean distance from point `p` to the segment `a..b`.
fn point_segment_distance(p: Vec2, a: Vec2, b: Vec2) -> f64 {
    let ab = b - a;
    let len_sq = ab.norm_sq();
    if len_sq < 1e-18 {
        return p.distance(a);
    }
    let t = ((p - a).dot(ab) / len_sq).clamp(0.0, 1.0);
    p.distance(a + ab * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> CameraProfile {
        CameraProfile::new(30.0, 100.0)
    }

    fn origin() -> LatLon {
        LatLon::new(40.0, 116.32)
    }

    fn north_fov() -> Fov {
        Fov::new(origin(), 0.0)
    }

    #[test]
    fn contains_point_on_axis_inside_radius() {
        let f = north_fov();
        assert!(sector_contains(&f, &cam(), origin().offset(0.0, 50.0)));
        assert!(sector_contains(&f, &cam(), origin().offset(0.0, 99.0)));
        assert!(!sector_contains(&f, &cam(), origin().offset(0.0, 101.0)));
    }

    #[test]
    fn contains_respects_half_angle() {
        let f = north_fov();
        assert!(sector_contains(&f, &cam(), origin().offset(29.0, 50.0)));
        assert!(!sector_contains(&f, &cam(), origin().offset(31.0, 50.0)));
        // Behind the camera.
        assert!(!sector_contains(&f, &cam(), origin().offset(180.0, 10.0)));
    }

    #[test]
    fn contains_apex() {
        assert!(sector_contains(&north_fov(), &cam(), origin()));
    }

    #[test]
    fn circle_on_axis_intersections() {
        let f = north_fov();
        // Disc fully inside the sector.
        assert!(sector_intersects_circle(
            &f,
            &cam(),
            origin().offset(0.0, 50.0),
            10.0
        ));
        // Disc just beyond the arc but within its radius.
        assert!(sector_intersects_circle(
            &f,
            &cam(),
            origin().offset(0.0, 105.0),
            10.0
        ));
        // Disc far beyond reach.
        assert!(!sector_intersects_circle(
            &f,
            &cam(),
            origin().offset(0.0, 150.0),
            10.0
        ));
    }

    #[test]
    fn circle_covering_apex_intersects_even_from_behind() {
        let f = north_fov();
        assert!(sector_intersects_circle(
            &f,
            &cam(),
            origin().offset(180.0, 5.0),
            10.0
        ));
        assert!(!sector_intersects_circle(
            &f,
            &cam(),
            origin().offset(180.0, 50.0),
            10.0
        ));
    }

    #[test]
    fn circle_near_edge_intersects_via_edge_distance() {
        let f = north_fov();
        // A disc centred 40° off-axis at 50 m: the edge ray is at 30°, so
        // the gap is roughly 50·sin(10°) ≈ 8.7 m.
        let c = origin().offset(40.0, 50.0);
        assert!(sector_intersects_circle(&f, &cam(), c, 10.0));
        assert!(!sector_intersects_circle(&f, &cam(), c, 5.0));
    }

    #[test]
    fn intersect_is_consistent_with_contains() {
        let f = north_fov();
        // Any contained point intersects with any radius.
        for (b, d) in [(0.0, 30.0), (25.0, 80.0), (-20.0, 10.0)] {
            let p = origin().offset(b, d);
            if sector_contains(&f, &cam(), p) {
                assert!(sector_intersects_circle(&f, &cam(), p, 0.001));
            }
        }
    }

    #[test]
    fn points_toward_filter() {
        let f = north_fov();
        let c = cam();
        assert!(points_toward(&f, &c, origin().offset(0.0, 500.0), 0.0));
        assert!(points_toward(&f, &c, origin().offset(29.0, 500.0), 0.0));
        assert!(!points_toward(&f, &c, origin().offset(45.0, 500.0), 0.0));
        // Tolerance widens the cone.
        assert!(points_toward(&f, &c, origin().offset(45.0, 500.0), 20.0));
        // Standing on the target always passes.
        assert!(points_toward(&f, &c, origin(), 0.0));
    }

    /// The pre-fast-path [`points_toward`], verbatim.
    fn points_toward_exact(fov: &Fov, cam: &CameraProfile, target: LatLon, tol: f64) -> bool {
        let d = fov.p.displacement_to(target);
        if d.norm() < 1e-9 {
            return true;
        }
        angle_diff_deg(d.azimuth_deg(), fov.theta) <= cam.half_angle_deg + tol
    }

    #[test]
    fn polynomial_arctangent_stays_inside_its_error_bound() {
        for i in 0..=100_000 {
            let t = f64::from(i) / 100_000.0;
            assert!((atan_unit(t) - t.atan()).abs() <= 1.2e-5, "t = {t}");
        }
    }

    mod fast_path {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            /// The fast path never changes a verdict: random bearings, and
            /// bearings placed at the cone's edge, where it must defer.
            #[test]
            fn fast_direction_verdicts_equal_the_exact_test(
                bearing in 0.0..360.0f64,
                dist in prop_oneof![1e-12..1e-6f64, 1e-6..1.0f64, 1.0..5_000.0f64],
                theta in prop_oneof![0.0..360.0f64, Just(0.0), Just(359.999_999_999)],
                tol in prop_oneof![0.0..45.0f64, Just(0.0), Just(150.0)],
                at_edge in any::<bool>(),
                left in any::<bool>(),
                eps in -1e-3..1e-3f64,
            ) {
                let c = cam();
                let bearing = if at_edge {
                    let off = c.half_angle_deg + tol + eps;
                    if left { theta - off } else { theta + off }
                } else {
                    bearing
                };
                let f = Fov::new(origin(), theta);
                let target = origin().offset(bearing, dist);
                prop_assert_eq!(
                    points_toward(&f, &c, target, tol),
                    points_toward_exact(&f, &c, target, tol)
                );
            }
        }
    }

    #[test]
    fn point_segment_distance_basics() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(10.0, 0.0);
        assert!((point_segment_distance(Vec2::new(5.0, 3.0), a, b) - 3.0).abs() < 1e-12);
        assert!((point_segment_distance(Vec2::new(-4.0, 0.0), a, b) - 4.0).abs() < 1e-12);
        assert!((point_segment_distance(Vec2::new(13.0, 4.0), a, b) - 5.0).abs() < 1e-12);
        // Degenerate segment.
        assert!((point_segment_distance(Vec2::new(3.0, 4.0), a, a) - 5.0).abs() < 1e-12);
    }
}
