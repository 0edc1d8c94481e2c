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
