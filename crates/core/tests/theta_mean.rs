//! The representative azimuth θ̄ of eq. 11: an arithmetic mean of the
//! members' azimuths, each unwrapped to within 180° of the segment's first
//! frame. For every segment Alg. 1 emits with `thresh > 0` this checks
//! that
//!
//! * (a) each finite member lies within `2α(1 − thresh)` of the first
//!   frame, the bound that makes the unwrap well defined (DESIGN.md,
//!   "Reconstructed formulas");
//! * (b) θ̄ equals the plain arithmetic mean, bit for bit, when no member
//!   lies more than 180° from the first;
//! * (c) θ̄ lies inside the members' unwrapped arc;
//! * (d) for the smartphone's `α = 25°` at `thresh ≥ 0.5`, θ̄ is within
//!   0.1° of the circular (sin/cos) mean;
//!
//! over traces that pan across north, walk across the antimeridian, carry
//! compass noise and NaN frames, with and without smoothing and a segment
//! duration bound. At `thresh = 0` (no cut) θ̄ only has to be a finite
//! azimuth.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use swag_core::{abstract_segment, CameraProfile, Fov, FovSmoother, Segment, Segmenter, TimedFov};
use swag_geo::angle::arithmetic_mean_deg;
use swag_geo::{angle_diff_deg, normalize_deg, LatLon};

/// Absolute slack on angles, degrees: the cut test's rounding is of order
/// 1e-12° at most.
const EPS: f64 = 1e-9;

fn arb_camera() -> impl Strategy<Value = CameraProfile> {
    prop_oneof![
        Just(CameraProfile::smartphone()),
        Just(CameraProfile::residential()),
        (0.5f64..89.9, 1.0f64..500.0).prop_map(|(a, r)| CameraProfile::new(a, r)),
    ]
}

/// A walk that turns at a steady rate plus compass noise, starting either
/// side of north and, optionally, either side of the antimeridian. A NaN
/// frame has a NaN azimuth or a NaN latitude.
fn arb_trace() -> impl Strategy<Value = Vec<TimedFov>> {
    (
        prop_oneof![350.0f64..360.0, 0.0f64..10.0, 0.0f64..360.0],
        prop_oneof![Just(116.32f64), 179.999f64..180.0, -180.0f64..-179.999],
        -2.0f64..2.0,
        prop_oneof![Just(0.0f64), Just(5.0), Just(20.0)],
        prop_oneof![Just(0.0f64), Just(0.0), Just(0.0), Just(0.02)],
        prop::collection::vec(
            (-1.0f64..1.0, 0.0f64..3.0, 0.0f64..1.0, any::<bool>()),
            1..300,
        ),
    )
        .prop_map(|(theta0, lng0, turn, noise, nan_share, steps)| {
            let mut pos = LatLon::new(10.0, lng0);
            let mut heading = theta0;
            steps
                .iter()
                .enumerate()
                .map(|(i, &(jitter, step, nan_draw, nan_theta))| {
                    heading += turn;
                    pos = pos.offset(heading, step);
                    let mut f = Fov::new(pos, heading + noise * jitter);
                    if nan_draw < nan_share {
                        if nan_theta {
                            f.theta = f64::NAN;
                        } else {
                            f.p.lat = f64::NAN;
                        }
                    }
                    TimedFov::new(i as f64 * 0.04, f)
                })
                .collect()
        })
}

fn maybe(values: impl Strategy<Value = f64> + 'static) -> impl Strategy<Value = Option<f64>> {
    prop_oneof![Just(None), values.prop_map(Some)]
}

/// Runs Alg. 1 as the client pipeline does: smoothing first, if any.
fn segments(
    trace: &[TimedFov],
    cam: CameraProfile,
    thresh: f64,
    alpha: Option<f64>,
    max_s: Option<f64>,
) -> Vec<Segment> {
    let frames = match alpha {
        Some(a) => FovSmoother::smooth_trace(a, trace),
        None => trace.to_vec(),
    };
    let mut segmenter = Segmenter::new(cam, thresh);
    if let Some(max_s) = max_s {
        segmenter = segmenter.with_max_segment_s(max_s);
    }
    segmenter.segment(&frames)
}

fn finite(f: &TimedFov) -> bool {
    f.fov.p.lat.is_finite() && f.fov.p.lng.is_finite() && f.fov.theta.is_finite()
}

/// `θ` shifted by ∓360° to within 180° of `first`, as the accumulator
/// sums it.
fn unwrap(theta: f64, first: f64) -> f64 {
    match theta - first {
        d if d > 180.0 => theta - 360.0,
        d if d < -180.0 => theta + 360.0,
        _ => theta,
    }
}

fn circular_mean(thetas: &[f64]) -> f64 {
    let (s, c) = thetas.iter().fold((0.0f64, 0.0f64), |(s, c), t| {
        let r = t.to_radians();
        (s + r.sin(), c + r.cos())
    });
    normalize_deg(s.atan2(c).to_degrees())
}

fn check_segment(seg: &Segment, cam: &CameraProfile, thresh: f64) -> Result<(), TestCaseError> {
    let rep = abstract_segment(seg).fov.theta;
    let first = seg.fovs[0];
    let thetas: Vec<f64> = seg.fovs.iter().map(|f| f.fov.theta).collect();

    // (a) The cut test's bound, for every finite member of a finite start.
    let bound = cam.viewing_angle_deg() * (1.0 - thresh);
    if finite(&first) {
        for f in seg.fovs.iter().filter(|f| finite(f)) {
            let d = angle_diff_deg(first.fov.theta, f.fov.theta);
            prop_assert!(
                d <= bound + EPS,
                "member {:?} is {}° from first {:?}, bound {}",
                f,
                d,
                first,
                bound
            );
        }
    }
    if !thetas.iter().all(|t| t.is_finite()) {
        return Ok(());
    }

    // (b) No member crosses: the plain mean, bit for bit.
    let first_theta = first.fov.theta;
    if thetas.iter().all(|t| (t - first_theta).abs() <= 180.0) {
        let plain = arithmetic_mean_deg(&thetas).unwrap();
        prop_assert_eq!(
            rep.to_bits(),
            plain.to_bits(),
            "plain mean {}, rep {}",
            plain,
            rep
        );
    }

    // (c) Inside the unwrapped arc; the mean is read back in the same
    // frame, the copy of it nearest the arc's middle.
    let unwrapped: Vec<f64> = thetas.iter().map(|&t| unwrap(t, first_theta)).collect();
    let lo = unwrapped.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = unwrapped.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mid = 0.5 * (lo + hi);
    let t = [rep - 360.0, rep, rep + 360.0]
        .into_iter()
        .min_by(|a, b| (a - mid).abs().total_cmp(&(b - mid).abs()))
        .unwrap();
    prop_assert!(
        lo - EPS <= t && t <= hi + EPS,
        "rep {} outside the arc [{}, {}]",
        rep,
        lo,
        hi
    );

    // (d) Next to the circular mean on the smartphone's camera.
    if cam.half_angle_deg == 25.0 && thresh >= 0.5 && seg.fovs.iter().all(finite) {
        let circular = circular_mean(&thetas);
        prop_assert!(
            angle_diff_deg(rep, circular) <= 0.1,
            "rep {} vs circular mean {} over {:?}",
            rep,
            circular,
            thetas
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn theta_mean_holds_for_every_segment(
        trace in arb_trace(),
        cam in arb_camera(),
        thresh in prop_oneof![1e-9f64..=1.0, 0.5f64..=1.0, Just(1.0)],
        alpha in maybe(0.05f64..=1.0),
        max_s in maybe(0.1f64..5.0),
    ) {
        for seg in segments(&trace, cam, thresh, alpha, max_s) {
            check_segment(&seg, &cam, thresh)?;
        }
    }

    #[test]
    fn theta_mean_is_an_azimuth_when_nothing_cuts(
        trace in arb_trace(),
        cam in arb_camera(),
        alpha in maybe(0.05f64..=1.0),
    ) {
        for seg in segments(&trace, cam, 0.0, alpha, None) {
            let rep = abstract_segment(&seg).fov.theta;
            if seg.fovs.iter().all(|f| f.fov.theta.is_finite()) {
                prop_assert!(rep.is_finite() && (0.0..360.0).contains(&rep), "rep {}", rep);
            }
        }
    }
}

#[test]
fn two_point_worst_case_over_the_smartphone_arc() {
    // Two frames 25° apart (the bound at thresh 0.5), one of them repeated:
    // the arithmetic and circular means part furthest here, by < 0.1°.
    let p = LatLon::new(40.0, 116.32);
    let mut worst = 0.0f64;
    for n in 1..40 {
        let mut fovs = vec![TimedFov::new(0.0, Fov::new(p, 350.0))];
        fovs.extend((0..n).map(|i| TimedFov::new(f64::from(i + 1), Fov::new(p, 15.0))));
        let thetas: Vec<f64> = fovs.iter().map(|f| f.fov.theta).collect();
        let rep = abstract_segment(&Segment { fovs }).fov.theta;
        worst = worst.max(angle_diff_deg(rep, circular_mean(&thetas)));
    }
    assert!(worst > 0.05 && worst < 0.1, "worst gap {worst}°");
}
