//! Equivalence of the segmenter's cut test with the full similarity:
//! `SimAnchor::is_below(f, trig, thresh)` must equal
//! `similarity_trig(anchor, f, trig) < thresh` for every input — near the
//! threshold to the last ulp, across the 0°/360° and ±180° seams, and for
//! non-finite coordinates.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use swag_core::{similarity_trig, CamTrig, CameraProfile, Fov, SimAnchor};
use swag_geo::{LatLon, Vec2};

fn arb_camera() -> impl Strategy<Value = CameraProfile> {
    (
        prop_oneof![0.01f64..89.99, Just(45.0), Just(89.9), Just(0.5)],
        prop_oneof![0.01f64..5_000.0, Just(20.0), Just(100.0)],
    )
        .prop_map(|(a, r)| CameraProfile::new(a, r))
}

fn arb_latlon() -> impl Strategy<Value = LatLon> {
    (-89.9f64..89.9, -180.0f64..180.0).prop_map(|(lat, lng)| LatLon::new(lat, lng))
}

/// Distances from centimetres to kilometres, denser near the camera scale.
fn arb_distance() -> impl Strategy<Value = f64> {
    prop_oneof![0.0f64..3.0, 0.0f64..300.0, 0.0f64..5_000.0, Just(0.0)]
}

/// Compares the two tests' outcomes. A NaN coordinate makes the full
/// formula NaN (no cut) in debug and release builds alike.
fn agrees(anchor: &Fov, f: &Fov, cam: &CameraProfile, thresh: f64) -> Result<(), TestCaseError> {
    let trig = CamTrig::new(cam);
    let sim = similarity_trig(anchor, f, &trig);
    let cut = SimAnchor::new(*anchor).is_below(f, &trig, thresh);
    prop_assert_eq!(
        cut,
        sim < thresh,
        "anchor {:?} frame {:?} cam {:?} thresh {:e} sim {:?}",
        anchor,
        f,
        cam,
        thresh,
        sim
    );
    Ok(())
}

/// Moves `k` ulps from `x` (towards +∞ for positive `k`).
fn ulps(mut x: f64, k: i32) -> f64 {
    for _ in 0..k.abs() {
        x = if k > 0 { x.next_up() } else { x.next_down() };
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn cut_test_equals_full_similarity(
        cam in arb_camera(),
        p in arb_latlon(),
        theta in -720.0f64..720.0,
        bearing in 0.0f64..360.0,
        d in arb_distance(),
        dtheta in prop_oneof![-5.0f64..5.0, -180.0f64..180.0],
        thresh in 0.0f64..=1.0,
    ) {
        let anchor = Fov::new(p, theta);
        let f = Fov::new(p.offset(bearing, d), theta + dtheta);
        agrees(&anchor, &f, &cam, thresh)?;
        for t in [0.0, 1.0] {
            agrees(&anchor, &f, &cam, t)?;
        }
    }

    #[test]
    fn cut_test_agrees_within_ulps_of_thresh(
        cam in arb_camera(),
        p in arb_latlon(),
        theta in 0.0f64..360.0,
        bearing in 0.0f64..360.0,
        d in arb_distance(),
        dtheta in -60.0f64..60.0,
    ) {
        // The threshold sits on the similarity itself and a few ulps
        // either side: the shortcuts must all defer to the full formula.
        let anchor = Fov::new(p, theta);
        let f = Fov::new(p.offset(bearing, d), theta + dtheta);
        let sim = similarity_trig(&anchor, &f, &CamTrig::new(&cam));
        for k in -4..=4 {
            let t = ulps(sim, k).clamp(0.0, 1.0);
            agrees(&anchor, &f, &cam, t)?;
        }
    }

    #[test]
    fn cut_test_agrees_on_bisected_boundary(
        cam in arb_camera(),
        p in arb_latlon(),
        theta in 0.0f64..360.0,
        bearing in 0.0f64..360.0,
        turn in -1.0f64..1.0,
        thresh in 0.05f64..0.95,
    ) {
        // Walk away from the anchor along `bearing`, turning `turn`° per
        // metre, and bisect the distance where Sim crosses `thresh`; the
        // frames on both sides of the crossing sit within ulps of it.
        let trig = CamTrig::new(&cam);
        let anchor = Fov::new(p, theta);
        let at = |s: f64| Fov::new(p.offset(bearing, s), theta + turn * s);
        let sim = |s: f64| similarity_trig(&anchor, &at(s), &trig);
        let (mut lo, mut hi) = (0.0f64, 4.0 * cam.view_radius_m);
        prop_assume!(sim(lo) >= thresh && sim(hi) < thresh);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if sim(mid) >= thresh {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        for s in [lo, hi, ulps(lo, -1), ulps(hi, 1)] {
            agrees(&anchor, &at(s), &cam, thresh)?;
        }
    }

    #[test]
    fn cut_test_agrees_across_seams(
        cam in arb_camera(),
        lat in -89.0f64..89.0,
        lng_eps in 0.0f64..1e-3,
        theta_eps in 0.0f64..2.0,
        raw_theta in prop_oneof![Just(-0.0f64), Just(360.0), Just(720.5), Just(-359.5), Just(1e6)],
        thresh in 0.0f64..=1.0,
    ) {
        // Longitudes either side of the antimeridian, azimuths either side
        // of north, and azimuths outside [0, 360) built without `Fov::new`.
        let east = LatLon::new(lat, 180.0 - lng_eps);
        let west = LatLon::new(lat, -180.0 + lng_eps);
        let a = Fov::new(east, 360.0 - theta_eps);
        let b = Fov::new(west, theta_eps);
        agrees(&a, &b, &cam, thresh)?;
        agrees(&b, &a, &cam, thresh)?;
        let north = Fov::new(LatLon::new(lat, 10.0), 360.0 - theta_eps);
        let ahead = Fov::new(north.p.offset(0.0, 10.0 * theta_eps), theta_eps);
        agrees(&north, &ahead, &cam, thresh)?;
        let raw = Fov { p: ahead.p, theta: raw_theta };
        agrees(&north, &raw, &cam, thresh)?;
        agrees(&raw, &north, &cam, thresh)?;
    }

    #[test]
    fn cut_test_agrees_on_non_finite_coordinates(
        cam in arb_camera(),
        p in arb_latlon(),
        theta in 0.0f64..360.0,
        which in 0usize..7,
        bad in prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(1e308), Just(-1e308)],
        thresh in 0.0f64..=1.0,
    ) {
        // One coordinate of the anchor or the frame is non-finite or huge;
        // both are built as raw structs, past `LatLon::new`'s clamping.
        let good = Fov::new(p.offset_by(Vec2::new(3.0, 4.0)), theta + 1.0);
        let mut anchor = Fov::new(p, theta);
        let mut f = good;
        match which {
            0 => f.p.lat = bad,
            1 => f.p.lng = bad,
            2 => f.theta = bad,
            3 => anchor.p.lat = bad,
            4 => anchor.p.lng = bad,
            5 => anchor.theta = bad,
            _ => (anchor.theta, f.theta) = (bad, -bad),
        }
        agrees(&anchor, &f, &cam, thresh)?;
    }
}

#[test]
fn cut_test_agrees_at_extreme_camera_profiles() {
    // Tiny and huge angles and radii: the bounds' rounding margins must
    // hold wherever `CameraProfile::new` accepts the camera.
    let p = LatLon::new(40.0, 116.32);
    for (alpha, r) in [
        (1e-9, 100.0),
        (89.999_999, 100.0),
        (25.0, 1e-9),
        (25.0, 1e12),
    ] {
        let cam = CameraProfile::new(alpha, r);
        for d in [0.0, 1e-10, 1e-3, 1.0, 50.0, 1e4] {
            for dth in [0.0, 1e-9, 0.5, 30.0] {
                let anchor = Fov::new(p, 10.0);
                let f = Fov::new(p.offset(33.0, d), 10.0 + dth);
                let sim = similarity_trig(&anchor, &f, &CamTrig::new(&cam));
                for t in [0.0, 0.3, 0.5, 0.9, 1.0, sim, sim.next_up(), sim.next_down()] {
                    agrees(&anchor, &f, &cam, t.clamp(0.0, 1.0)).unwrap();
                }
            }
        }
    }
}
