//! Latitude/longitude coordinates on a spherical earth.
//!
//! The paper (§VI-A) models the earth as a regular sphere of radius
//! `r_e = 6 378 140 m` and treats FoV-scale displacements as planar. We keep
//! that model: [`LatLon::displacement_to`] is the equirectangular projection
//! with the standard `cos(mean latitude)` longitude scaling (the paper's
//! eq. 12 prints `cos((Lng₂−Lng₁)/2)`, a typo for the latitude correction —
//! see `DESIGN.md`). A paper-faithful variant and a haversine cross-check
//! are provided for validation.

use serde::{Deserialize, Serialize};

use crate::angle::normalize_deg;
use crate::vec2::Vec2;

/// Earth radius in metres, as used by the paper (§VI-A).
pub const EARTH_RADIUS_M: f64 = 6_378_140.0;

/// Metres per degree of latitude (and of longitude at the equator).
pub const METERS_PER_DEG: f64 = 2.0 * std::f64::consts::PI * EARTH_RADIUS_M / 360.0;

/// A geographic position in degrees.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatLon {
    /// Latitude in degrees, positive north, in `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, positive east, in `[-180, 180)`.
    pub lng: f64,
}

impl LatLon {
    /// Creates a position, normalising the longitude to `[-180, 180)` and
    /// clamping the latitude to `[-90, 90]`.
    pub fn new(lat: f64, lng: f64) -> Self {
        let lat = lat.clamp(-90.0, 90.0);
        let lng = normalize_deg(lng + 180.0) - 180.0;
        LatLon { lat, lng }
    }

    /// Planar displacement from `self` to `other`, in metres east/north.
    ///
    /// Valid for FoV-scale separations (up to a few kilometres), where the
    /// paper's planar approximation holds. The longitude difference is
    /// taken the short way round ([`lng_delta_deg`]), so two points either
    /// side of the ±180° antimeridian are metres apart, not a globe.
    pub fn displacement_to(self, other: LatLon) -> Vec2 {
        let mean_lat = 0.5 * (self.lat + other.lat);
        let dlng = lng_delta_deg(self.lng, other.lng);
        let dx = METERS_PER_DEG * mean_lat.to_radians().cos() * dlng;
        let dy = METERS_PER_DEG * (other.lat - self.lat);
        Vec2::new(dx, dy)
    }

    /// Paper-faithful variant of eq. 12, scaling longitude by
    /// `cos((Lng₂ − Lng₁)/2)` exactly as printed. Kept only to document the
    /// erratum; at small longitude separations near the equator it agrees
    /// with [`Self::displacement_to`], but it ignores latitude entirely.
    pub fn displacement_to_paper(self, other: LatLon) -> Vec2 {
        let dx = METERS_PER_DEG
            * (0.5 * (other.lng - self.lng)).to_radians().cos()
            * (other.lng - self.lng);
        let dy = METERS_PER_DEG * (other.lat - self.lat);
        Vec2::new(dx, dy)
    }

    /// Planar distance in metres (`δ_p` in the paper's eq. 2/12).
    #[inline]
    pub fn distance_m(self, other: LatLon) -> f64 {
        self.displacement_to(other).norm()
    }

    /// Great-circle distance in metres (haversine), used as a cross-check of
    /// the planar approximation in tests.
    pub fn haversine_m(self, other: LatLon) -> f64 {
        let (lat1, lat2) = (self.lat.to_radians(), other.lat.to_radians());
        let dlat = lat2 - lat1;
        let dlng = (other.lng - self.lng).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlng / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Compass azimuth from `self` towards `other`, degrees in `[0, 360)`
    /// (`θ_p` in the paper's eq. 12).
    #[inline]
    pub fn bearing_to_deg(self, other: LatLon) -> f64 {
        self.displacement_to(other).azimuth_deg()
    }

    /// Returns the position reached by moving `meters` along compass azimuth
    /// `bearing_deg` (planar model).
    pub fn offset(self, bearing_deg: f64, meters: f64) -> LatLon {
        self.offset_by(Vec2::from_azimuth_deg(bearing_deg) * meters)
    }

    /// Returns the position displaced by a local east/north vector in metres.
    pub fn offset_by(self, d: Vec2) -> LatLon {
        let lat = self.lat + d.y / METERS_PER_DEG;
        let coslat = lat.to_radians().cos().max(1e-9);
        let lng = self.lng + d.x / (METERS_PER_DEG * coslat);
        LatLon::new(lat, lng)
    }
}

/// Relative margin of [`DistanceBound`]: it covers the rounding of the
/// bound's own arithmetic and libm's `cos` and `hypot` whenever each is
/// within 2⁻⁴⁴ (256 ulps) of the exact value (DESIGN.md, "Reconstructed
/// formulas").
const BOUND_MARGIN: f64 = 1.0 - 1.0 / (1u64 << 40) as f64;

/// Absolute slack of [`DistanceBound`], metres: the relative argument
/// fails only where a square underflows, which moves the root by less
/// than 2⁻⁵³⁶ ≈ 1.1e-161.
const BOUND_SLACK_M: f64 = 1e-150;

/// A lower bound on the distance from a centre to the points of a
/// (longitude, latitude) rectangle, compiled once per centre and latitude
/// band.
///
/// [`Self::rect_m`] never exceeds `p.distance_m(center)` as computed in
/// floating point, for any `p` in the rectangle and the band:
/// - `Δlat` and `Δlng` are the very differences [`LatLon::displacement_to`]
///   takes, at the rectangle's nearest edge; both are monotone in `p`
///   (rounding is), and `Δlng` is taken the short way
///   ([`lng_delta_deg`]), so a rectangle across ±180° is near a centre on
///   the other side. A rectangle spanning 180° of longitude or more
///   counts as `Δlng = 0`.
/// - The longitude scale is `cos` at the band's largest |mean latitude|
///   with the centre, the smallest any point of the band gets, computed
///   once here: `p` outside the band is not covered.
/// - The result is shrunk by a relative margin of 2⁻⁴⁰ (`cos` and `hypot`
///   are not monotone in floating point) plus 1e-150 m.
///
/// Near a pole `cos` tends to 0 and the bound falls back to `Δlat`
/// alone; a band reaching beyond ±90° (never a valid position) does the
/// same. Non-finite input gives 0, which never prunes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceBound {
    center: LatLon,
    band: [f64; 2],
    /// `METERS_PER_DEG · cos(largest |mean latitude|)`, or NaN when the
    /// centre or band is not finite.
    scale: f64,
}

impl DistanceBound {
    /// The bound around `center` for points with latitude in `band`
    /// (`[min, max]`).
    pub fn new(center: LatLon, band: [f64; 2]) -> Self {
        let finite = [center.lat, center.lng, band[0], band[1]]
            .iter()
            .all(|x| x.is_finite());
        // `displacement_to`'s mean latitude, at each end of the band: in
        // between, the mean is monotone in the point's latitude.
        let mean = |lat: f64| (0.5 * (lat + center.lat)).abs();
        let widest = mean(band[0]).max(mean(band[1]));
        let scale = if !finite {
            f64::NAN
        } else if widest <= 90.0 {
            METERS_PER_DEG * widest.to_radians().cos().max(0.0)
        } else {
            0.0
        };
        DistanceBound {
            center,
            band,
            scale,
        }
    }

    /// The bound for the rectangle `lng × lat` (closed ranges, `[min,
    /// max]`), restricted to the band; 0 for non-finite input or an empty
    /// restriction.
    #[inline]
    pub fn rect_m(&self, lng: [f64; 2], lat: [f64; 2]) -> f64 {
        let c = self.center;
        let finite = [lng[0], lng[1], lat[0], lat[1]]
            .iter()
            .all(|x| x.is_finite());
        let lat = [lat[0].max(self.band[0]), lat[1].min(self.band[1])];
        if !finite || !self.scale.is_finite() || lat[0] > lat[1] || lng[0] > lng[1] {
            return 0.0;
        }
        // `c.lat − p.lat` over the rectangle spans [c − lat₁, c − lat₀].
        let dlat = (c.lat - lat[1]).max(lat[0] - c.lat).max(0.0);
        let dlng = if lng[1] - lng[0] >= 180.0 {
            0.0
        } else {
            // `c.lng − p.lng` spans [a, b]; its short-way wrap is its
            // distance to the nearest of −360°, 0 and 360°.
            let (a, b) = (c.lng - lng[1], c.lng - lng[0]);
            let gap = |z: f64| (a - z).max(z - b).max(0.0);
            gap(0.0).min(gap(360.0)).min(gap(-360.0))
        };
        let dx = self.scale * dlng;
        let dy = METERS_PER_DEG * dlat;
        // `hypot` costs a libm call; its root form only where that overflows.
        let d = (dx * dx + dy * dy).sqrt();
        let d = if d.is_finite() { d } else { dx.hypot(dy) };
        (d * BOUND_MARGIN - BOUND_SLACK_M).max(0.0)
    }
}

/// `to − from` in degrees of longitude, wrapped once into `[−180°, 180°]`:
/// the short way round the ±180° antimeridian. Bit for bit the raw
/// difference wherever that lies within ±180°; NaN stays NaN.
#[inline]
pub fn lng_delta_deg(from: f64, to: f64) -> f64 {
    let d = to - from;
    if d > 180.0 {
        d - 360.0
    } else if d < -180.0 {
        d + 360.0
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tsinghua campus, roughly where the paper's traces were recorded.
    const BEIJING: LatLon = LatLon {
        lat: 40.0,
        lng: 116.32,
    };

    #[test]
    fn constructor_normalises() {
        let p = LatLon::new(95.0, 185.0);
        assert_eq!(p.lat, 90.0);
        assert_eq!(p.lng, -175.0);
        let q = LatLon::new(-30.0, -180.0);
        assert_eq!(q.lng, -180.0);
    }

    #[test]
    fn displacement_north_is_pure_y() {
        let a = BEIJING;
        let b = LatLon::new(a.lat + 0.001, a.lng);
        let d = a.displacement_to(b);
        assert!(d.x.abs() < 1e-9);
        assert!((d.y - 0.001 * METERS_PER_DEG).abs() < 1e-6);
    }

    #[test]
    fn displacement_east_scales_with_latitude() {
        let a = BEIJING;
        let b = LatLon::new(a.lat, a.lng + 0.001);
        let d = a.displacement_to(b);
        let expected = 0.001 * METERS_PER_DEG * a.lat.to_radians().cos();
        assert!((d.x - expected).abs() < 1e-6);
        assert!(d.y.abs() < 1e-9);
    }

    #[test]
    fn displacement_is_antisymmetric() {
        let a = BEIJING;
        let b = LatLon::new(40.001, 116.3215);
        let ab = a.displacement_to(b);
        let ba = b.displacement_to(a);
        assert!((ab + ba).norm() < 1e-9);
    }

    #[test]
    fn planar_distance_matches_haversine_at_fov_scale() {
        let a = BEIJING;
        for (dlat, dlng) in [(0.001, 0.002), (-0.003, 0.001), (0.005, -0.004)] {
            let b = LatLon::new(a.lat + dlat, a.lng + dlng);
            let planar = a.distance_m(b);
            let sphere = a.haversine_m(b);
            // Sub-0.1% agreement at sub-kilometre scale.
            assert!(
                (planar - sphere).abs() / sphere < 1e-3,
                "planar {planar} vs haversine {sphere}"
            );
        }
    }

    #[test]
    fn offset_round_trips_through_displacement() {
        let a = BEIJING;
        for bearing in [0.0, 37.0, 90.0, 135.0, 270.0] {
            let b = a.offset(bearing, 250.0);
            let d = a.displacement_to(b);
            assert!((d.norm() - 250.0).abs() < 0.05, "bearing {bearing}");
            assert!(
                crate::angle::angle_diff_deg(d.azimuth_deg(), bearing) < 0.05,
                "bearing {bearing} -> {}",
                d.azimuth_deg()
            );
        }
    }

    #[test]
    fn bearing_to_cardinal_neighbours() {
        let a = BEIJING;
        assert!((a.bearing_to_deg(a.offset(0.0, 100.0)) - 0.0).abs() < 0.01);
        assert!((a.bearing_to_deg(a.offset(90.0, 100.0)) - 90.0).abs() < 0.01);
        assert!((a.bearing_to_deg(a.offset(180.0, 100.0)) - 180.0).abs() < 0.01);
    }

    #[test]
    fn displacement_takes_the_short_way_across_the_antimeridian() {
        let west = LatLon::new(10.0, 179.9995);
        let east = LatLon::new(10.0, -179.9995);
        let d = east.displacement_to(west);
        let expected = 0.001 * METERS_PER_DEG * 10f64.to_radians().cos();
        assert!((d.x + expected).abs() < 1e-6, "{d:?}");
        assert!((west.displacement_to(east).x - expected).abs() < 1e-6);
        assert!(east.distance_m(west) < 110.0);
        // Within ±180° the raw difference is kept bit for bit.
        for (a, b) in [(-180.0, 0.0), (0.0, 180.0), (116.32, 116.33), (-0.0, 0.0)] {
            assert_eq!(lng_delta_deg(a, b).to_bits(), (b - a).to_bits());
        }
        assert_eq!(lng_delta_deg(-180.0, 180.0), 0.0);
        assert!(lng_delta_deg(f64::NAN, 0.0).is_nan());
    }

    #[test]
    fn paper_formula_agrees_near_equator() {
        let a = LatLon::new(0.0, 10.0);
        let b = LatLon::new(0.001, 10.001);
        let ours = a.displacement_to(b);
        let paper = a.displacement_to_paper(b);
        assert!((ours - paper).norm() < 0.01);
    }
}
