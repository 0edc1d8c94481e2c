//! Equivalence of the compiled direction filter with the exact one:
//! `DirectionTest::new(target, tol).accepts(cam, lng, lat, θ)` must equal
//! `points_toward(&Fov { p: LatLon { lat, lng }, theta: θ }, cam, target,
//! tol)` for every input — axes bisected to the last ulp of the limit,
//! targets near the poles and the ±180° antimeridian, θ at the 0°/360°
//! seam or un-normalised, FoVs far from any query box, and non-finite
//! coordinates.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use swag_core::{points_toward, CameraProfile, DirectionTest, Fov};
use swag_geo::{LatLon, Vec2};

fn arb_camera() -> impl Strategy<Value = CameraProfile> {
    prop_oneof![0.01f64..89.99, Just(25.0), Just(89.99), Just(0.01)]
        .prop_map(|a| CameraProfile::new(a, 100.0))
}

fn arb_tolerance() -> impl Strategy<Value = f64> {
    prop_oneof![0.0f64..180.0, Just(0.0), Just(10.0), Just(180.0)]
}

/// Targets anywhere, and crowded against the poles and the antimeridian.
fn arb_target() -> impl Strategy<Value = LatLon> {
    let near = |edge: f64| prop_oneof![Just(edge), (0.0f64..1e-3).prop_map(move |x| edge - x)];
    prop_oneof![
        (-90.0f64..90.0, -180.0f64..180.0),
        (near(90.0), -180.0f64..180.0),
        (near(90.0).prop_map(|x| -x), -180.0f64..180.0),
        (-90.0f64..90.0, near(180.0)),
        (-90.0f64..90.0, near(180.0).prop_map(|x| -x)),
    ]
    .prop_map(|(lat, lng)| LatLon { lat, lng })
}

/// Where a FoV sits: mostly at `(bearing, distance)` from the target
/// (centimetres to thousands of kilometres, across seams); one draw in
/// five at the uniform `(lat, lng)` beside it, anywhere on the globe.
type Place = (u8, (f64, f64), (f64, f64));

fn arb_place() -> impl Strategy<Value = Place> {
    (
        0u8..5,
        (
            0.0f64..360.0,
            prop_oneof![1e-9f64..1e-5, 1e-3f64..3.0, 1.0f64..2_000.0, 1e3f64..5e6],
        ),
        (-90.0f64..90.0, -180.0f64..180.0),
    )
}

fn position(target: LatLon, (pick, (bearing, dist), (lat, lng)): Place) -> LatLon {
    if pick > 0 {
        target.offset(bearing, dist)
    } else {
        LatLon { lat, lng }
    }
}

fn agrees(
    cam: &CameraProfile,
    target: LatLon,
    tol: f64,
    p: LatLon,
    theta: f64,
) -> Result<(), TestCaseError> {
    let fast = DirectionTest::new(target, tol).accepts(cam, p.lng, p.lat, theta);
    let fov = Fov { p, theta };
    let exact = points_toward(&fov, cam, target, tol);
    prop_assert_eq!(
        fast,
        exact,
        "target {:?} fov {:?} cam {:?} tol {}",
        target,
        fov,
        cam,
        tol
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

/// The axis `off` degrees clockwise of the bearing from `p` to `target`,
/// normalised to `[0, 360)`.
fn axis_off_bearing(p: LatLon, target: LatLon, off: f64) -> f64 {
    (p.displacement_to(target).azimuth_deg() + off).rem_euclid(360.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn compiled_test_equals_points_toward(
        cam in arb_camera(),
        tol in arb_tolerance(),
        target in arb_target(),
        place in arb_place(),
        theta in prop_oneof![
            0.0f64..360.0,
            Just(0.0),
            Just(-0.0),
            Just(359.999_999_999_999_94),
            -720.0f64..1080.0,
        ],
    ) {
        agrees(&cam, target, tol, position(target, place), theta)?;
    }

    /// Axes placed at the cone's edge: within a few degrees (where the
    /// cos-substitution margin matters far from the target) and within
    /// a few ulps of the limit.
    #[test]
    fn compiled_test_equals_points_toward_at_the_edge(
        cam in arb_camera(),
        tol in arb_tolerance(),
        target in arb_target(),
        place in arb_place(),
        left in any::<bool>(),
        near in prop_oneof![-3.0f64..3.0, -0.02f64..0.02, Just(0.0)],
        k in -6i32..=6,
    ) {
        let p = position(target, place);
        let off = ulps(cam.half_angle_deg + tol + near, k);
        let theta = axis_off_bearing(p, target, if left { -off } else { off });
        agrees(&cam, target, tol, p, theta)?;
        agrees(&cam, target, tol, p, ulps(theta, k))?;
    }

    /// Bisects the axis to the exact test's flip, then checks both sides
    /// of it to the ulp.
    #[test]
    fn compiled_test_equals_points_toward_across_the_flip(
        cam in arb_camera(),
        tol in 0.0f64..60.0,
        target in arb_target(),
        bearing in 0.0f64..360.0,
        dist in prop_oneof![0.5f64..50.0, 50.0f64..5_000.0, 5e3f64..5e5],
    ) {
        let p = target.offset(bearing, dist);
        let exact = |theta: f64| points_toward(&Fov { p, theta }, &cam, target, tol);
        // Inside the cone on-axis, outside it straight behind.
        let (mut lo, mut hi) = (0.0, 180.0);
        let at = |off: f64| axis_off_bearing(p, target, off);
        if exact(at(lo)) == exact(at(hi)) {
            return Ok(());
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if exact(at(mid)) == exact(at(lo)) { lo = mid } else { hi = mid }
        }
        for off in [lo, hi, ulps(lo, -2), ulps(hi, 2)] {
            agrees(&cam, target, tol, p, at(off))?;
        }
    }

    #[test]
    fn compiled_test_equals_points_toward_on_non_finite_input(
        cam in arb_camera(),
        tol in arb_tolerance(),
        target in arb_target(),
        bad in prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(1e308), Just(-1e308)],
        which in 0usize..5,
        theta in 0.0f64..360.0,
        d in (-1e4f64..1e4, -1e4f64..1e4),
    ) {
        let mut p = target.offset_by(Vec2::new(d.0, d.1));
        let mut target = target;
        let mut theta = theta;
        match which {
            0 => p.lat = bad,
            1 => p.lng = bad,
            2 => theta = bad,
            3 => target.lat = bad,
            _ => target.lng = bad,
        }
        agrees(&cam, target, tol, p, theta)?;
    }
}

#[test]
fn compiled_test_equals_points_toward_across_the_antimeridian() {
    // 110 m apart across ±180°: looking west at the centre passes,
    // looking east fails, on both tests.
    let cam = CameraProfile::smartphone();
    let target = LatLon::new(10.0, 179.9995);
    let p = LatLon::new(10.0, -179.9995);
    let test = DirectionTest::new(target, 0.0);
    assert!(test.accepts(&cam, p.lng, p.lat, 270.0));
    assert!(!test.accepts(&cam, p.lng, p.lat, 90.0));
    for theta in [0.0, 90.0, 180.0, 270.0, 359.0] {
        let exact = points_toward(&Fov { p, theta }, &cam, target, 0.0);
        assert_eq!(test.accepts(&cam, p.lng, p.lat, theta), exact, "{theta}");
    }
}
