//! Segment abstraction (paper §IV-B, eq. 11).
//!
//! Each segment is condensed into a single **representative FoV**: the
//! average position and orientation of its member frames, together with the
//! segment's time interval `[t_s, t_e]`. Only representative FoVs are
//! uploaded to the server, which minimises client traffic and keeps the
//! index compact.
//!
//! The paper's eq. 11 averages orientations arithmetically, which breaks at
//! the 0°/360° wrap (the mean of `{350°, 10°}` would be `180°` — the exact
//! opposite direction). We default to the circular mean and keep the
//! arithmetic rule behind [`AveragingRule::Arithmetic`] for the ablation.

use serde::{Deserialize, Serialize};
use swag_geo::{normalize_deg, CircularMean, LatLon};

use crate::fov::{Fov, TimedFov};
use crate::segmentation::Segment;

/// How segment orientations are averaged into the representative azimuth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AveragingRule {
    /// Paper-faithful arithmetic mean of `θ` values (eq. 11). Wraps
    /// incorrectly across 0°/360°.
    Arithmetic,
    /// Circular (directional) mean — the default. Falls back to the first
    /// frame's orientation when the directions cancel exactly.
    Circular,
}

/// A representative FoV: one uploaded record per video segment
/// (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RepFov {
    /// Segment start time `t_s`, seconds.
    pub t_start: f64,
    /// Segment end time `t_e`, seconds.
    pub t_end: f64,
    /// The averaged FoV `f_r = (p̄, θ̄)`.
    pub fov: Fov,
}

impl RepFov {
    /// Creates a representative FoV record.
    ///
    /// # Panics
    /// Panics if `t_end < t_start`.
    pub fn new(t_start: f64, t_end: f64, fov: Fov) -> Self {
        assert!(
            t_end >= t_start,
            "segment end time {t_end} precedes start time {t_start}"
        );
        RepFov {
            t_start,
            t_end,
            fov,
        }
    }

    /// Segment duration in seconds.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.t_end - self.t_start
    }

    /// Whether the segment's time interval overlaps `[t_start, t_end]`.
    #[inline]
    pub fn overlaps_time(&self, t_start: f64, t_end: f64) -> bool {
        self.t_start <= t_end && t_start <= self.t_end
    }
}

/// Extracts the representative FoV of a segment (paper eq. 11):
/// `p̄ = Σp / |s|`, `θ̄ = mean of θ` under the chosen rule, with the
/// segment's `[t_s, t_e]` interval attached. A fold over
/// [`RepAccumulator`].
///
/// # Panics
/// Panics if the segment is empty (segments produced by
/// [`crate::segmentation`] never are).
pub fn abstract_segment(segment: &Segment, rule: AveragingRule) -> RepFov {
    let (first, rest) = segment
        .fovs
        .split_first()
        .expect("cannot abstract an empty segment");
    let mut acc = RepAccumulator::new(*first, rule);
    for &f in rest {
        acc.push(f);
    }
    acc.rep()
}

/// Eq. 11 as running sums: a segment's representative FoV, built one
/// frame at a time in O(1) state.
///
/// Frames are added in capture order, so every sum is the same
/// floating-point sum a pass over the segment's frames computes and
/// [`rep`](Self::rep) is bit-identical to averaging the frames at once.
///
/// Longitudes are averaged the short way round, as
/// [`LatLon::displacement_to`] measures them: a frame more than 180° of
/// longitude from the first frame is summed shifted by ∓360°, so a
/// segment that crosses the ±180° antimeridian gets its rep at the seam,
/// not on the far side of the globe. A segment that does not cross sums
/// its raw longitudes, bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct RepAccumulator {
    frames: u64,
    lat_sum: f64,
    /// `Σ lng`, each unwrapped to within 180° of `first_lng`.
    lng_sum: f64,
    first_lng: f64,
    theta: ThetaSum,
    t_start: f64,
    t_end: f64,
    /// The first frame's azimuth: the circular rule's answer when the
    /// directions cancel exactly.
    first_theta: f64,
}

/// The orientation sums one [`AveragingRule`] needs.
#[derive(Debug, Clone, Copy)]
enum ThetaSum {
    /// `Σθ`, started at `−0.0` as `Iterator::<f64>::sum` starts, so a lone
    /// `−0.0` azimuth keeps its sign bit.
    Arithmetic(f64),
    /// `Σ sin θ` and `Σ cos θ`.
    Circular(CircularMean),
}

impl RepAccumulator {
    /// Opens a segment at its first frame.
    pub fn new(first: TimedFov, rule: AveragingRule) -> Self {
        let mut acc = RepAccumulator {
            frames: 0,
            lat_sum: 0.0,
            lng_sum: 0.0,
            theta: match rule {
                AveragingRule::Arithmetic => ThetaSum::Arithmetic(-0.0),
                AveragingRule::Circular => ThetaSum::Circular(CircularMean::default()),
            },
            t_start: first.t,
            t_end: first.t,
            first_lng: first.fov.p.lng,
            first_theta: first.fov.theta,
        };
        acc.push(first);
        acc
    }

    /// Adds the segment's next frame.
    #[inline]
    pub fn push(&mut self, f: TimedFov) {
        self.frames += 1;
        self.lat_sum += f.fov.p.lat;
        let lng = f.fov.p.lng;
        self.lng_sum += match lng - self.first_lng {
            d if d > 180.0 => lng - 360.0,
            d if d < -180.0 => lng + 360.0,
            _ => lng,
        };
        match &mut self.theta {
            ThetaSum::Arithmetic(sum) => *sum += f.fov.theta,
            ThetaSum::Circular(mean) => mean.push(f.fov.theta),
        }
        self.t_end = f.t;
    }

    /// The representative FoV of the frames added so far.
    ///
    /// # Panics
    /// Panics if the frames' timestamps run backwards (see [`RepFov::new`]).
    pub fn rep(&self) -> RepFov {
        let n = self.frames as f64;
        // `LatLon::new` wraps a mean unwrapped past ±180° back into range.
        let p_bar = LatLon::new(self.lat_sum / n, self.lng_sum / n);
        let theta_bar = match self.theta {
            ThetaSum::Arithmetic(sum) => normalize_deg(sum / n),
            ThetaSum::Circular(mean) => mean.mean().unwrap_or(self.first_theta),
        };
        RepFov::new(self.t_start, self.t_end, Fov::new(p_bar, theta_bar))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin() -> LatLon {
        LatLon::new(40.0, 116.32)
    }

    fn seg(fovs: Vec<TimedFov>) -> Segment {
        Segment { fovs }
    }

    #[test]
    fn single_frame_segment_is_identity() {
        let f = Fov::new(origin(), 42.0);
        let s = seg(vec![TimedFov::new(3.0, f)]);
        let r = abstract_segment(&s, AveragingRule::Circular);
        assert_eq!(r.t_start, 3.0);
        assert_eq!(r.t_end, 3.0);
        assert_eq!(r.fov, f);
    }

    #[test]
    fn positions_average_arithmetically() {
        let a = Fov::new(LatLon::new(40.0, 116.0), 10.0);
        let b = Fov::new(LatLon::new(40.002, 116.004), 20.0);
        let s = seg(vec![TimedFov::new(0.0, a), TimedFov::new(1.0, b)]);
        let r = abstract_segment(&s, AveragingRule::Circular);
        assert!((r.fov.p.lat - 40.001).abs() < 1e-12);
        assert!((r.fov.p.lng - 116.002).abs() < 1e-12);
        assert!((r.fov.theta - 15.0).abs() < 1e-9);
        assert_eq!((r.t_start, r.t_end), (0.0, 1.0));
    }

    #[test]
    fn positions_average_the_short_way_across_the_antimeridian() {
        let east = Fov::new(LatLon::new(10.0, 179.9995), 90.0);
        let west = Fov::new(LatLon::new(10.0, -179.9995), 90.0);
        let s = seg(vec![TimedFov::new(0.0, east), TimedFov::new(1.0, west)]);
        let r = abstract_segment(&s, AveragingRule::Circular);
        assert!(r.fov.p.lng.abs() > 179.9999, "rep at lng {}", r.fov.p.lng);
        assert!((-180.0..180.0).contains(&r.fov.p.lng));
        assert!(r.fov.p.distance_m(east.p) < 60.0);

        let s = seg(vec![TimedFov::new(0.0, west), TimedFov::new(1.0, east)]);
        let r = abstract_segment(&s, AveragingRule::Circular);
        assert!(r.fov.p.lng.abs() > 179.9999, "rep at lng {}", r.fov.p.lng);
        assert!(r.fov.p.distance_m(west.p) < 60.0);
    }

    #[test]
    fn circular_mean_survives_wraparound() {
        let s = seg(vec![
            TimedFov::new(0.0, Fov::new(origin(), 350.0)),
            TimedFov::new(1.0, Fov::new(origin(), 10.0)),
        ]);
        let circular = abstract_segment(&s, AveragingRule::Circular);
        assert!(circular.fov.theta < 1e-6 || circular.fov.theta > 359.999);

        // The paper-faithful rule points the representative FoV backwards.
        let arithmetic = abstract_segment(&s, AveragingRule::Arithmetic);
        assert!((arithmetic.fov.theta - 180.0).abs() < 1e-9);
    }

    #[test]
    fn cancelling_directions_fall_back_to_first_frame() {
        let s = seg(vec![
            TimedFov::new(0.0, Fov::new(origin(), 0.0)),
            TimedFov::new(1.0, Fov::new(origin(), 180.0)),
        ]);
        let r = abstract_segment(&s, AveragingRule::Circular);
        assert_eq!(r.fov.theta, 0.0);
    }

    #[test]
    fn time_overlap_predicate() {
        let r = RepFov::new(10.0, 20.0, Fov::new(origin(), 0.0));
        assert!(r.overlaps_time(15.0, 25.0));
        assert!(r.overlaps_time(0.0, 10.0)); // touching counts
        assert!(r.overlaps_time(20.0, 30.0));
        assert!(!r.overlaps_time(20.1, 30.0));
        assert!(!r.overlaps_time(0.0, 9.9));
        assert_eq!(r.duration(), 10.0);
    }

    #[test]
    #[should_panic(expected = "empty segment")]
    fn empty_segment_panics() {
        abstract_segment(&seg(vec![]), AveragingRule::Circular);
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn inverted_interval_panics() {
        RepFov::new(2.0, 1.0, Fov::new(origin(), 0.0));
    }
}
