//! A local planar frame anchored at a reference position.
//!
//! Several subsystems (the synthetic-world renderer, the mobility models)
//! work in flat metre coordinates; [`LocalFrame`] converts between those and
//! geographic coordinates consistently, using the same spherical model as
//! [`crate::LatLon`].

use serde::{Deserialize, Serialize};

use crate::latlon::{lng_delta_deg, LatLon, METERS_PER_DEG};
use crate::vec2::Vec2;

/// An east-north planar frame centred on `origin`.
///
/// The longitude scale is frozen at the origin's latitude, so round trips
/// are exact and the frame is rigid — appropriate for the city-scale areas
/// the paper works with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalFrame {
    origin: LatLon,
    meters_per_deg_lng: f64,
}

impl LocalFrame {
    /// Creates a frame centred on `origin`.
    pub fn new(origin: LatLon) -> Self {
        LocalFrame {
            origin,
            meters_per_deg_lng: METERS_PER_DEG * origin.lat.to_radians().cos().max(1e-9),
        }
    }

    /// The frame's origin.
    #[inline]
    pub fn origin(&self) -> LatLon {
        self.origin
    }

    /// Projects a geographic position into local metres, its longitude
    /// difference taken the short way round ±180° ([`lng_delta_deg`]).
    pub fn to_local(&self, p: LatLon) -> Vec2 {
        Vec2::new(
            lng_delta_deg(self.origin.lng, p.lng) * self.meters_per_deg_lng,
            (p.lat - self.origin.lat) * METERS_PER_DEG,
        )
    }

    /// Lifts local metres back to geographic coordinates.
    pub fn from_local(&self, v: Vec2) -> LatLon {
        LatLon::new(
            self.origin.lat + v.y / METERS_PER_DEG,
            self.origin.lng + v.x / self.meters_per_deg_lng,
        )
    }

    /// Converts a metre length to degrees of latitude.
    #[inline]
    pub fn meters_to_deg_lat(&self, meters: f64) -> f64 {
        meters / METERS_PER_DEG
    }

    /// Converts a metre length to degrees of longitude at the frame origin.
    ///
    /// This is the server's `r̂ → r̂_Lng` conversion from §V-B.
    #[inline]
    pub fn meters_to_deg_lng(&self, meters: f64) -> f64 {
        meters / self.meters_per_deg_lng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ORIGIN: LatLon = LatLon {
        lat: 40.0,
        lng: 116.32,
    };

    #[test]
    fn origin_maps_to_zero() {
        let f = LocalFrame::new(ORIGIN);
        assert!(f.to_local(ORIGIN).norm() < 1e-12);
        let back = f.from_local(Vec2::ZERO);
        assert!((back.lat - ORIGIN.lat).abs() < 1e-12);
        assert!((back.lng - ORIGIN.lng).abs() < 1e-12);
    }

    #[test]
    fn round_trip_is_exact() {
        let f = LocalFrame::new(ORIGIN);
        for v in [
            Vec2::new(123.0, -456.0),
            Vec2::new(-2000.0, 3000.0),
            Vec2::new(0.5, 0.25),
        ] {
            let back = f.to_local(f.from_local(v));
            assert!((back - v).norm() < 1e-6, "{v:?} -> {back:?}");
        }
    }

    #[test]
    fn agrees_with_displacement_at_small_scale() {
        let f = LocalFrame::new(ORIGIN);
        let p = ORIGIN.offset(63.0, 300.0);
        let via_frame = f.to_local(p);
        let via_disp = ORIGIN.displacement_to(p);
        assert!((via_frame - via_disp).norm() < 0.05);
    }

    #[test]
    fn seam_round_trip_stays_local() {
        // Either side of ±180°: the raw difference put the east point
        // 39 466 km west of the origin.
        let f = LocalFrame::new(LatLon::new(10.0, 179.9995));
        let east = LatLon::new(10.0, -179.9995);
        let v = f.to_local(east);
        let expected = 0.001 * METERS_PER_DEG * 10f64.to_radians().cos();
        assert!((v.x - expected).abs() < 1e-6, "{v:?}");
        assert!(v.y.abs() < 1e-9);
        let back = f.from_local(v);
        assert!((back.lng - east.lng).abs() < 1e-9, "{back:?}");
        assert!((back.lat - east.lat).abs() < 1e-12);
        for v in [Vec2::new(-250.0, 40.0), Vec2::new(250.0, -40.0)] {
            assert!((f.to_local(f.from_local(v)) - v).norm() < 1e-6, "{v:?}");
        }
    }

    #[test]
    fn radius_conversion_matches_scales() {
        let f = LocalFrame::new(ORIGIN);
        let r = 100.0;
        let east = f.from_local(Vec2::new(r, 0.0));
        assert!((east.lng - ORIGIN.lng - f.meters_to_deg_lng(r)).abs() < 1e-12);
        let north = f.from_local(Vec2::new(0.0, r));
        assert!((north.lat - ORIGIN.lat - f.meters_to_deg_lat(r)).abs() < 1e-12);
    }
}
