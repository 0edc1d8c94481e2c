//! Golden digests of the client pipeline's output.
//!
//! A fixed set of noisy sensor traces runs through [`ClientPipeline`]
//! under every combination of threshold, smoothing and segment-duration
//! bound. Each combination's representative FoVs are
//! hashed bit by bit (FNV-1a over `t_start`, `t_end`, `lat`, `lng`,
//! `theta`) and compared, with the segment count, against constants
//! recorded from the reference implementation. Any change to where Alg. 1
//! cuts or to a single bit of eq. 11 shows up here.

use swag_client::ClientPipeline;
use swag_core::{CameraProfile, RepFov, TimedFov};
use swag_sensors::scenarios::{
    bike_ride_with_turn, city_walk, drive_straight, rotate_in_place, walk_parallel,
    walk_perpendicular,
};
use swag_sensors::SensorNoise;

/// The traces: walking (both directions), driving, a bike ride with a
/// right turn, a city stroll, and a rotation in place that crosses the
/// 0°/360° seam several times (as does the compass noise on every
/// north-facing trace).
fn traces() -> Vec<Vec<TimedFov>> {
    let noise = SensorNoise::smartphone();
    vec![
        walk_parallel(120.0, &noise, 1),
        walk_perpendicular(60.0, &noise, 2),
        drive_straight(90.0, 13.9, &noise, 3),
        bike_ride_with_turn(150.0, 4.5, &noise, 4),
        rotate_in_place(40.0, 30.0, &noise, 5),
        city_walk(6, 8, &noise),
    ]
}

fn fnv(mut h: u64, x: f64) -> u64 {
    for b in x.to_bits().to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(reps: &[RepFov], mut h: u64) -> u64 {
    for r in reps {
        for x in [r.t_start, r.t_end, r.fov.p.lat, r.fov.p.lng, r.fov.theta] {
            h = fnv(h, x);
        }
    }
    h
}

/// `(thresh, smoothing alpha, max segment s) → (segments, digest)`.
type Golden = (f64, Option<f64>, Option<f64>, usize, u64);

const GOLDEN: [Golden; 8] = [
    (0.5, None, None, 263, 0x1dcb_9fa1_e648_c3a4),
    (0.5, None, Some(5.0), 272, 0x6cea_3621_0126_fdf7),
    (0.5, Some(0.3), None, 102, 0x4038_7b08_325b_342a),
    (0.5, Some(0.3), Some(5.0), 245, 0xebd2_3a7c_963c_d910),
    (0.6, None, None, 709, 0x0524_763f_3197_558e),
    (0.6, None, Some(5.0), 632, 0x2d4f_ca8e_5d74_8776),
    (0.6, Some(0.3), None, 141, 0xdd16_6586_04f1_a609),
    (0.6, Some(0.3), Some(5.0), 269, 0x5bbe_6c8d_f619_f3f3),
];

#[test]
fn pipeline_reps_match_golden_digests() {
    let cam = CameraProfile::smartphone();
    let traces = traces();
    let mut mismatches = Vec::new();
    for &(thresh, smoothing, max_s, want_segments, want_digest) in &GOLDEN {
        let (mut segments, mut h) = (0usize, 0xcbf2_9ce4_8422_2325u64);
        for trace in &traces {
            let mut p = ClientPipeline::new(cam, thresh);
            if let Some(alpha) = smoothing {
                p = p.with_smoothing(alpha);
            }
            if let Some(max_s) = max_s {
                p = p.with_max_segment_s(max_s);
            }
            for &f in trace {
                p.push(f);
            }
            let result = p.finish();
            assert_eq!(result.frames, trace.len() as u64);
            segments += result.reps.len();
            h = digest(&result.reps, h);
        }
        if (segments, h) != (want_segments, want_digest) {
            mismatches.push(format!(
                "({thresh}, {smoothing:?}, {max_s:?}) → {segments}, {h:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatch:\n{}",
        mismatches.join("\n")
    );
}
