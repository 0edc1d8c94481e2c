//! Golden digests of the client pipeline's output.
//!
//! A fixed set of noisy sensor traces runs through [`ClientPipeline`]
//! under every combination of threshold, averaging rule, smoothing and
//! segment-duration bound. Each combination's representative FoVs are
//! hashed bit by bit (FNV-1a over `t_start`, `t_end`, `lat`, `lng`,
//! `theta`) and compared, with the segment count, against constants
//! recorded from the reference implementation. Any change to where Alg. 1
//! cuts or to a single bit of eq. 11 shows up here.

use swag_client::ClientPipeline;
use swag_core::{AveragingRule, CameraProfile, RepFov, TimedFov};
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

/// `(thresh, rule, smoothing alpha, max segment s) → (segments, digest)`.
type Golden = (f64, AveragingRule, Option<f64>, Option<f64>, usize, u64);

const GOLDEN: [Golden; 16] = {
    use AveragingRule::{Arithmetic as A, Circular as C};
    [
        (0.5, C, None, None, 263, 0xd4fa_2309_3346_8106),
        (0.5, C, None, Some(5.0), 272, 0x3aa7_e52e_8c6d_aa8c),
        (0.5, C, Some(0.3), None, 102, 0xb305_9c21_0183_445b),
        (0.5, C, Some(0.3), Some(5.0), 245, 0x081e_6975_efdc_240e),
        (0.5, A, None, None, 263, 0x3949_2a69_3f55_0c70),
        (0.5, A, None, Some(5.0), 272, 0xe650_bb62_6c8d_f329),
        (0.5, A, Some(0.3), None, 102, 0xdc28_d540_25f4_6845),
        (0.5, A, Some(0.3), Some(5.0), 245, 0x661d_36a7_3423_dd73),
        (0.6, C, None, None, 709, 0x8b6c_0636_b323_ddb5),
        (0.6, C, None, Some(5.0), 632, 0xf963_3e6b_6f5c_02b3),
        (0.6, C, Some(0.3), None, 141, 0x89d0_0224_b92c_78b7),
        (0.6, C, Some(0.3), Some(5.0), 269, 0xd007_2687_2c98_7957),
        (0.6, A, None, None, 709, 0xc5b1_abd2_119e_5479),
        (0.6, A, None, Some(5.0), 632, 0x3c95_dff0_7182_459f),
        (0.6, A, Some(0.3), None, 141, 0xa799_ef2d_5651_355d),
        (0.6, A, Some(0.3), Some(5.0), 269, 0x8ad8_5b91_82af_73cb),
    ]
};

#[test]
fn pipeline_reps_match_golden_digests() {
    let cam = CameraProfile::smartphone();
    let traces = traces();
    let mut mismatches = Vec::new();
    for &(thresh, rule, smoothing, max_s, want_segments, want_digest) in &GOLDEN {
        let (mut segments, mut h) = (0usize, 0xcbf2_9ce4_8422_2325u64);
        for trace in &traces {
            let mut p = ClientPipeline::with_rule(cam, thresh, rule);
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
                "({thresh}, {rule:?}, {smoothing:?}, {max_s:?}) → {segments}, {h:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatch:\n{}",
        mismatches.join("\n")
    );
}
