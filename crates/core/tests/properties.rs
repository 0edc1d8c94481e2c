//! Property-based tests for the FoV similarity measurement, segmentation
//! and descriptor codec.

use bytes::BytesMut;
use proptest::prelude::*;
use swag_core::similarity::{sim_parallel, sim_perp, sim_rotation, sim_translation};
use swag_core::{
    abstract_segment, sector_contains, sector_intersects_circle, segment_video, similarity,
    CameraProfile, DescriptorCodec, Fov, RepFov, Segment, Segmenter, TimedFov,
};
use swag_geo::LatLon;

fn arb_camera() -> impl Strategy<Value = CameraProfile> {
    (5.0f64..44.0, 5.0f64..500.0).prop_map(|(a, r)| CameraProfile::new(a, r))
}

fn arb_fov_near(lat: f64, lng: f64) -> impl Strategy<Value = Fov> {
    (-500.0f64..500.0, -500.0f64..500.0, 0.0f64..360.0).prop_map(move |(dx, dy, theta)| {
        Fov::new(
            LatLon::new(lat, lng).offset_by(swag_geo::Vec2::new(dx, dy)),
            theta,
        )
    })
}

proptest! {
    #[test]
    fn similarity_in_unit_interval(
        cam in arb_camera(),
        f1 in arb_fov_near(40.0, 116.32),
        f2 in arb_fov_near(40.0, 116.32),
    ) {
        let s = similarity(&f1, &f2, &cam);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&s), "sim = {s}");
    }

    #[test]
    fn similarity_symmetric(
        cam in arb_camera(),
        f1 in arb_fov_near(40.0, 116.32),
        f2 in arb_fov_near(40.0, 116.32),
    ) {
        let a = similarity(&f1, &f2, &cam);
        let b = similarity(&f2, &f1, &cam);
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn self_similarity_is_one(cam in arb_camera(), f in arb_fov_near(40.0, 116.32)) {
        prop_assert!((similarity(&f, &f, &cam) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rotation_monotone_decreasing(cam in arb_camera(), a in 0.0f64..180.0, b in 0.0f64..180.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(sim_rotation(lo, &cam) >= sim_rotation(hi, &cam) - 1e-12);
    }

    #[test]
    fn translation_monotone_decreasing_in_distance(
        cam in arb_camera(),
        a in 0.0f64..2000.0,
        b in 0.0f64..2000.0,
        theta_p in 0.0f64..90.0,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            sim_translation(lo, theta_p, &cam) >= sim_translation(hi, theta_p, &cam) - 1e-12
        );
    }

    #[test]
    fn translation_monotone_in_direction(
        cam in arb_camera(),
        d in 0.0f64..2000.0,
        a in 0.0f64..90.0,
        b in 0.0f64..90.0,
    ) {
        // More perpendicular ⇒ not more similar (for α ≤ 44° the parallel
        // component dominates; the interpolation is linear in θ_p so
        // monotonicity follows from Sim_∥ ≥ Sim_⊥... which requires
        // α < arctan(1/2) in general. Restrict to that regime.
        prop_assume!(cam.half_angle_deg < 26.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(sim_translation(d, lo, &cam) >= sim_translation(d, hi, &cam) - 1e-9);
    }

    #[test]
    fn perp_zero_beyond_cutoff(cam in arb_camera(), extra in 0.0f64..1000.0) {
        prop_assert_eq!(sim_perp(cam.perp_cutoff_m() + extra, &cam), 0.0);
    }

    #[test]
    fn parallel_always_positive(cam in arb_camera(), d in 0.0f64..1e6) {
        prop_assert!(sim_parallel(d, &cam) > 0.0);
    }

    #[test]
    fn streaming_equals_offline(
        thetas in prop::collection::vec(0.0f64..360.0, 1..200),
        thresh in 0.0f64..1.0,
    ) {
        let cam = CameraProfile::smartphone();
        let frames: Vec<TimedFov> = thetas
            .iter()
            .enumerate()
            .map(|(i, &th)| TimedFov::new(i as f64 * 0.04, Fov::new(LatLon::new(40.0, 116.32), th)))
            .collect();
        let offline = segment_video(&frames, &cam, thresh);

        // Streaming opens a segment at exactly the frames where the
        // offline segments start.
        let mut seg = Segmenter::new(cam, thresh);
        let opened: Vec<usize> = (0..frames.len()).filter(|&i| seg.push(frames[i])).collect();
        let starts: Vec<usize> = offline
            .iter()
            .scan(0, |at, s| {
                let start = *at;
                *at += s.len();
                Some(start)
            })
            .collect();
        prop_assert_eq!(opened, starts);
    }

    #[test]
    fn segmentation_partitions_input(
        steps in prop::collection::vec((-10.0f64..10.0, -5.0f64..5.0), 1..300),
        thresh in 0.0f64..=1.0,
    ) {
        let cam = CameraProfile::smartphone();
        let mut pos = LatLon::new(40.0, 116.32);
        let mut theta = 0.0;
        let mut frames = Vec::with_capacity(steps.len());
        for (i, (dth, step)) in steps.iter().enumerate() {
            theta += dth;
            pos = pos.offset(theta, *step);
            frames.push(TimedFov::new(i as f64 * 0.04, Fov::new(pos, theta)));
        }
        let segs = segment_video(&frames, &cam, thresh);
        let rebuilt: Vec<TimedFov> = segs.iter().flat_map(|s| s.fovs.iter().copied()).collect();
        prop_assert_eq!(rebuilt, frames);
        for s in &segs {
            prop_assert!(!s.is_empty());
            prop_assert!(s.end_t() >= s.start_t());
        }
    }

    #[test]
    fn within_segment_similarity_respects_threshold(
        steps in prop::collection::vec((-10.0f64..10.0, 0.0f64..5.0), 2..200),
        thresh in 0.1f64..0.9,
    ) {
        // Every frame in a segment is ≥ thresh similar to the segment's
        // first frame — the defining invariant of Algorithm 1.
        let cam = CameraProfile::smartphone();
        let mut pos = LatLon::new(40.0, 116.32);
        let mut theta = 0.0;
        let mut frames = Vec::new();
        for (i, (dth, step)) in steps.iter().enumerate() {
            theta += dth;
            pos = pos.offset(theta, *step);
            frames.push(TimedFov::new(i as f64 * 0.04, Fov::new(pos, theta)));
        }
        for s in segment_video(&frames, &cam, thresh) {
            let anchor = s.fovs[0].fov;
            for f in &s.fovs {
                prop_assert!(similarity(&anchor, &f.fov, &cam) >= thresh);
            }
        }
    }

    #[test]
    fn representative_fov_is_centroid(
        offsets in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0, -20.0f64..20.0), 1..50),
    ) {
        let base = LatLon::new(40.0, 116.32);
        let fovs: Vec<TimedFov> = offsets
            .iter()
            .enumerate()
            .map(|(i, (dx, dy, dth))| {
                TimedFov::new(
                    i as f64,
                    Fov::new(base.offset_by(swag_geo::Vec2::new(*dx, *dy)), 90.0 + dth),
                )
            })
            .collect();
        let seg = Segment { fovs: fovs.clone() };
        let rep = abstract_segment(&seg);
        // Representative position is inside the bounding box of members.
        let lats: Vec<f64> = fovs.iter().map(|f| f.fov.p.lat).collect();
        let lngs: Vec<f64> = fovs.iter().map(|f| f.fov.p.lng).collect();
        let eps = 1e-12;
        prop_assert!(rep.fov.p.lat >= lats.iter().cloned().fold(f64::INFINITY, f64::min) - eps);
        prop_assert!(rep.fov.p.lat <= lats.iter().cloned().fold(f64::NEG_INFINITY, f64::max) + eps);
        prop_assert!(rep.fov.p.lng >= lngs.iter().cloned().fold(f64::INFINITY, f64::min) - eps);
        prop_assert!(rep.fov.p.lng <= lngs.iter().cloned().fold(f64::NEG_INFINITY, f64::max) + eps);
        // Orientation stays within the (non-wrapping) spread of members.
        prop_assert!(rep.fov.theta >= 60.0 && rep.fov.theta <= 120.0);
        prop_assert_eq!(rep.t_start, 0.0);
    }

    #[test]
    fn codec_round_trip(
        lat in -80.0f64..80.0,
        lng in -179.0f64..179.0,
        theta in 0.0f64..360.0,
        t0 in 0.0f64..1e9,
        dur in 0.0f64..86_400.0,
    ) {
        let rep = RepFov::new(t0, t0 + dur, Fov::new(LatLon::new(lat, lng), theta));
        let mut buf = BytesMut::new();
        DescriptorCodec::encode_rep(&rep, &mut buf).unwrap();
        let d = DescriptorCodec::decode_rep(&mut buf.freeze()).unwrap();
        prop_assert!((d.fov.p.lat - rep.fov.p.lat).abs() < 1e-6);
        prop_assert!((d.fov.p.lng - rep.fov.p.lng).abs() < 1e-6);
        prop_assert!(swag_geo::angle_diff_deg(d.fov.theta, rep.fov.theta) < 0.006);
        prop_assert!((d.t_start - rep.t_start).abs() < 0.002);
        prop_assert!((d.duration() - rep.duration()).abs() < 0.002);
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        // Malformed wire input must produce errors, not panics.
        let _ = DescriptorCodec::decode_batch(&bytes[..]);
        let mut cursor = &bytes[..];
        let _ = DescriptorCodec::decode_rep(&mut cursor);
    }

    #[test]
    fn trace_csv_reader_never_panics(text in "\\PC{0,400}") {
        let _ = swag_core::read_trace_csv(text.as_bytes());
        let _ = swag_core::read_reps_csv(text.as_bytes());
    }

    #[test]
    fn contained_point_implies_sector_intersection(
        cam in arb_camera(),
        f in arb_fov_near(40.0, 116.32),
        bearing in 0.0f64..360.0,
        dist in 0.0f64..600.0,
        radius in 0.1f64..100.0,
    ) {
        let p = f.p.offset(bearing, dist);
        if sector_contains(&f, &cam, p) {
            prop_assert!(sector_intersects_circle(&f, &cam, p, radius));
        }
    }

    #[test]
    fn far_away_circle_never_intersects(
        cam in arb_camera(),
        f in arb_fov_near(40.0, 116.32),
        bearing in 0.0f64..360.0,
        radius in 0.1f64..100.0,
    ) {
        // Place the disc strictly farther than R + radius from the apex.
        let dist = cam.view_radius_m + radius + 10.0;
        let p = f.p.offset(bearing, dist);
        prop_assert!(!sector_intersects_circle(&f, &cam, p, radius));
    }

    /// Every record inside the wire format's documented bounds encodes and
    /// round-trips within quantisation error; nothing in the bounded
    /// domain is rejected.
    #[test]
    fn codec_round_trip_over_full_encodable_domain(
        lat in -90.0f64..=90.0,
        lng in -180.0f64..=180.0,
        theta in 0.0f64..360.0,
        t0 in 0.0f64..4.0e9,                 // beyond year 2096 in seconds
        dur in 0.0f64..(u32::MAX as f64 / 1000.0 - 1.0),
    ) {
        let rep = RepFov::new(t0, t0 + dur, Fov::new(LatLon::new(lat, lng), theta));
        let mut buf = BytesMut::new();
        DescriptorCodec::encode_rep(&rep, &mut buf).unwrap();
        let d = DescriptorCodec::decode_rep(&mut buf.freeze()).unwrap();
        prop_assert!((d.fov.p.lat - rep.fov.p.lat).abs() < 1e-6);
        prop_assert!((d.fov.p.lng - rep.fov.p.lng).abs() < 1e-6);
        prop_assert!((d.t_start - rep.t_start).abs() < 0.002);
        prop_assert!((d.duration() - rep.duration()).abs() < 0.002);
    }

    /// Records outside the encodable bounds error instead of silently
    /// clamping (regression for the old clamp-to-zero / saturate paths).
    #[test]
    fn codec_rejects_unencodable_records(
        t0 in -1.0e6f64..-0.001,
        extra_days in 50.0f64..500.0,
    ) {
        let neg = RepFov::new(t0, t0.abs(), Fov::new(LatLon::new(40.0, 116.3), 0.0));
        let mut buf = BytesMut::new();
        prop_assert_eq!(
            DescriptorCodec::encode_rep(&neg, &mut buf).unwrap_err(),
            swag_core::descriptor::CodecError::OutOfRange("t_start")
        );
        prop_assert!(buf.is_empty());

        let long = RepFov::new(0.0, extra_days * 86_400.0, Fov::new(LatLon::new(40.0, 116.3), 0.0));
        prop_assert_eq!(
            DescriptorCodec::encode_rep(&long, &mut buf).unwrap_err(),
            swag_core::descriptor::CodecError::OutOfRange("duration")
        );
    }
}
