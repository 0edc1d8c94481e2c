//! Segment abstraction (paper §IV-B, eq. 11).
//!
//! Each segment is condensed into a single **representative FoV**: the
//! average position and orientation of its member frames, together with the
//! segment's time interval `[t_s, t_e]`. Only representative FoVs are
//! uploaded to the server, which minimises client traffic and keeps the
//! index compact.
//!
//! The paper's eq. 11 averages orientations arithmetically. Taken
//! literally that breaks at the 0°/360° wrap (the mean of `{350°, 10°}`
//! would be `180°`, the exact opposite direction), so each azimuth is
//! first unwrapped to within 180° of the segment's first frame, as
//! longitudes are. The unwrapped arithmetic mean is well defined for every
//! segment Alg. 1 cuts with `thresh > 0`: each member passed the cut test
//! against the first frame, which keeps it within `2α(1 − thresh) < 180°`
//! of that frame (DESIGN.md, "Reconstructed formulas").

use serde::{Deserialize, Serialize};
use swag_geo::{normalize_deg, LatLon};

use crate::fov::{Fov, TimedFov};
use crate::segmentation::Segment;

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
/// `p̄ = Σp / |s|`, `θ̄ = Σθ / |s|` (each unwrapped to within 180° of the
/// first frame), with the segment's `[t_s, t_e]` interval attached. A fold
/// over [`RepAccumulator`].
///
/// # Panics
/// Panics if the segment is empty (segments produced by
/// [`crate::segmentation`] never are).
pub fn abstract_segment(segment: &Segment) -> RepFov {
    let (first, rest) = segment
        .fovs
        .split_first()
        .expect("cannot abstract an empty segment");
    let mut acc = RepAccumulator::new(*first);
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
/// Longitudes and azimuths are averaged the short way round, as
/// [`LatLon::displacement_to`] and the cut test measure them: a frame more
/// than 180° from the first frame is summed shifted by ∓360°, so a
/// segment that crosses the ±180° antimeridian gets its rep at the seam
/// and one that pans across north gets its rep near 0°, not on the far
/// side. A segment that crosses neither seam sums its raw values, bit for
/// bit.
#[derive(Debug, Clone, Copy)]
pub struct RepAccumulator {
    frames: u64,
    lat_sum: f64,
    /// `Σ lng`, each unwrapped to within 180° of `first_lng`.
    lng_sum: f64,
    first_lng: f64,
    /// `Σ θ`, each unwrapped to within 180° of `first_theta`; started at
    /// `−0.0` as `Iterator::<f64>::sum` starts, so a lone `−0.0` azimuth
    /// keeps its sign bit.
    theta_sum: f64,
    first_theta: f64,
    t_start: f64,
    t_end: f64,
}

impl RepAccumulator {
    /// Opens a segment at its first frame.
    pub fn new(first: TimedFov) -> Self {
        let mut acc = RepAccumulator {
            frames: 0,
            lat_sum: 0.0,
            lng_sum: 0.0,
            theta_sum: -0.0,
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
        self.lng_sum += unwrap_near(f.fov.p.lng, self.first_lng);
        self.theta_sum += unwrap_near(f.fov.theta, self.first_theta);
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
        let theta_bar = normalize_deg(self.theta_sum / n);
        RepFov::new(self.t_start, self.t_end, Fov::new(p_bar, theta_bar))
    }
}

/// `deg` shifted by ∓360° when it lies more than 180° above or below
/// `first`; unchanged otherwise, bit for bit.
#[inline]
fn unwrap_near(deg: f64, first: f64) -> f64 {
    match deg - first {
        d if d > 180.0 => deg - 360.0,
        d if d < -180.0 => deg + 360.0,
        _ => deg,
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
        let r = abstract_segment(&s);
        assert_eq!(r.t_start, 3.0);
        assert_eq!(r.t_end, 3.0);
        assert_eq!(r.fov, f);
        // The azimuth survives bit for bit, sign of zero included.
        for theta in [-0.0, 0.0, 42.0, 180.0, 359.999_999_999_999_94] {
            let f = Fov::new(origin(), theta);
            let r = abstract_segment(&seg(vec![TimedFov::new(3.0, f)]));
            assert_eq!(r.fov.theta.to_bits(), f.theta.to_bits(), "{theta}");
        }
    }

    #[test]
    fn positions_average_arithmetically() {
        let a = Fov::new(LatLon::new(40.0, 116.0), 10.0);
        let b = Fov::new(LatLon::new(40.002, 116.004), 20.0);
        let s = seg(vec![TimedFov::new(0.0, a), TimedFov::new(1.0, b)]);
        let r = abstract_segment(&s);
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
        let r = abstract_segment(&s);
        assert!(r.fov.p.lng.abs() > 179.9999, "rep at lng {}", r.fov.p.lng);
        assert!((-180.0..180.0).contains(&r.fov.p.lng));
        assert!(r.fov.p.distance_m(east.p) < 60.0);

        let s = seg(vec![TimedFov::new(0.0, west), TimedFov::new(1.0, east)]);
        let r = abstract_segment(&s);
        assert!(r.fov.p.lng.abs() > 179.9999, "rep at lng {}", r.fov.p.lng);
        assert!(r.fov.p.distance_m(west.p) < 60.0);
    }

    #[test]
    fn orientation_averages_the_short_way_across_north() {
        // A plain mean of {350°, 10°} would point the rep south (180°).
        for (first, second) in [(350.0, 10.0), (10.0, 350.0)] {
            let s = seg(vec![
                TimedFov::new(0.0, Fov::new(origin(), first)),
                TimedFov::new(1.0, Fov::new(origin(), second)),
            ]);
            let theta = abstract_segment(&s).fov.theta;
            assert!(
                swag_geo::angle_diff_deg(theta, 0.0) < 1e-9,
                "{first}, {second} → {theta}"
            );
        }
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
        abstract_segment(&seg(vec![]));
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn inverted_interval_panics() {
        RepFov::new(2.0, 1.0, Fov::new(origin(), 0.0));
    }
}
