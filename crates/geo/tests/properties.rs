//! Property-based tests for the geodesy substrate.

use proptest::prelude::*;
use swag_geo::{angle_diff_deg, normalize_deg, LatLon, LocalFrame, Vec2};

proptest! {
    #[test]
    fn normalize_always_in_range(deg in -1e6f64..1e6) {
        let n = normalize_deg(deg);
        prop_assert!((0.0..360.0).contains(&n));
    }

    #[test]
    fn normalize_is_idempotent(deg in -1e6f64..1e6) {
        let n = normalize_deg(deg);
        prop_assert!((normalize_deg(n) - n).abs() < 1e-9);
    }

    #[test]
    fn angle_diff_symmetric_and_bounded(a in -720.0f64..720.0, b in -720.0f64..720.0) {
        let d1 = angle_diff_deg(a, b);
        let d2 = angle_diff_deg(b, a);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!((0.0..=180.0).contains(&d1));
    }

    #[test]
    fn angle_diff_shift_invariant(a in 0.0f64..360.0, b in 0.0f64..360.0, s in -360.0f64..360.0) {
        let d1 = angle_diff_deg(a, b);
        let d2 = angle_diff_deg(a + s, b + s);
        prop_assert!((d1 - d2).abs() < 1e-6);
    }

    #[test]
    fn displacement_antisymmetric(
        lat in -60.0f64..60.0, lng in -179.0f64..179.0,
        dlat in -0.01f64..0.01, dlng in -0.01f64..0.01,
    ) {
        let a = LatLon::new(lat, lng);
        let b = LatLon::new(lat + dlat, lng + dlng);
        let fwd = a.displacement_to(b);
        let back = b.displacement_to(a);
        prop_assert!((fwd + back).norm() < 1e-6);
    }

    #[test]
    fn planar_close_to_haversine_at_small_scale(
        lat in -60.0f64..60.0, lng in -179.0f64..179.0,
        bearing in 0.0f64..360.0, dist in 1.0f64..2000.0,
    ) {
        let a = LatLon::new(lat, lng);
        let b = a.offset(bearing, dist);
        let planar = a.distance_m(b);
        let sphere = a.haversine_m(b);
        prop_assert!((planar - sphere).abs() < 0.01 * sphere + 0.01,
            "planar {planar} sphere {sphere}");
    }

    #[test]
    fn local_frame_round_trip(
        lat in -60.0f64..60.0, lng in -179.0f64..179.0,
        x in -5000.0f64..5000.0, y in -5000.0f64..5000.0,
    ) {
        let f = LocalFrame::new(LatLon::new(lat, lng));
        let v = Vec2::new(x, y);
        let back = f.to_local(f.from_local(v));
        prop_assert!((back - v).norm() < 1e-5);
    }

    #[test]
    fn azimuth_round_trip(az in 0.0f64..360.0) {
        let v = Vec2::from_azimuth_deg(az);
        prop_assert!(angle_diff_deg(v.azimuth_deg(), az) < 1e-6);
    }

    #[test]
    fn offset_distance_consistent(
        lat in -60.0f64..60.0, lng in -179.0f64..179.0,
        bearing in 0.0f64..360.0, dist in 0.1f64..3000.0,
    ) {
        let a = LatLon::new(lat, lng);
        let b = a.offset(bearing, dist);
        prop_assert!((a.distance_m(b) - dist).abs() < 0.01 * dist + 0.01);
    }
}
