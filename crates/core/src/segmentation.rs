//! Real-time FoV-based video segmentation (paper §IV-A, Algorithm 1).
//!
//! While recording, each incoming frame record `(t_i, p_i, θ_i)` is compared
//! against the **initial FoV** `f_s` of the current segment. When
//! `Sim(f_s, f_i) < thresh` the current segment is closed and a new one is
//! started at `f_i`. The algorithm is O(1) per frame in time *and* state:
//! one cut test against the anchor, which mostly decides from cheap exact
//! bounds ([`SimAnchor::is_below`]), and no buffered frames — so it runs
//! comfortably inside a capture loop.
//!
//! Two entry points are provided:
//!
//! * [`Segmenter`] — the streaming state machine used by the client while
//!   recording; it reports where segments start;
//! * [`segment_video`] / [`Segmenter::segment`] — the offline batch
//!   edition (Algorithm 1 verbatim), which slices its input at those cuts
//!   into [`Segment`]s for the offline users (CV baseline, figures).
//!
//! A property test asserts the two produce identical segmentations.

use serde::{Deserialize, Serialize};

use crate::fov::{CameraProfile, TimedFov};
use crate::similarity::{CamTrig, SimAnchor};

/// A contiguous run of video frames whose FoVs stay similar to the
/// segment's initial FoV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// The member frames, in capture order. Never empty.
    pub fovs: Vec<TimedFov>,
}

impl Segment {
    /// Segment start time `t_s` (timestamp of the first frame).
    #[inline]
    pub fn start_t(&self) -> f64 {
        self.fovs[0].t
    }

    /// Segment end time `t_e` (timestamp of the last frame).
    #[inline]
    pub fn end_t(&self) -> f64 {
        self.fovs[self.fovs.len() - 1].t
    }

    /// Duration in seconds.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.end_t() - self.start_t()
    }

    /// Number of frames.
    #[inline]
    pub fn len(&self) -> usize {
        self.fovs.len()
    }

    /// Whether the segment has no frames (never true for segments produced
    /// by this module).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fovs.is_empty()
    }

    /// Abstracts the segment into its representative FoV (eq. 11, azimuths
    /// unwrapped around the first frame's). See
    /// [`crate::abstraction::abstract_segment`].
    pub fn abstract_default(&self) -> crate::abstraction::RepFov {
        crate::abstraction::abstract_segment(self)
    }
}

/// Streaming segmenter: the client-side real-time edition of Algorithm 1.
///
/// Feed frames with [`push`](Segmenter::push); each call reports whether
/// the frame opens a new segment (the first frame always does). The
/// segmenter keeps no frames: only the open segment's anchor, its start
/// time and a frame counter. Whoever needs the segment's content keeps it —
/// [`segment_video`] slices its input at the cuts, the client pipeline
/// folds frames into a [`RepAccumulator`](crate::RepAccumulator).
#[derive(Debug, Clone)]
pub struct Segmenter {
    /// Camera trigonometry, precomputed once — the per-frame cut test is
    /// the segmenter's entire hot path.
    trig: CamTrig,
    thresh: f64,
    /// Optional upper bound on segment duration, seconds.
    max_segment_s: Option<f64>,
    /// Initial FoV `f_s` of the open segment, prepared for the cut test;
    /// `None` before the first frame.
    anchor: Option<SimAnchor>,
    /// Start time `t_s` of the open segment.
    t_s: f64,
    /// Total frames consumed (for statistics).
    frames_seen: u64,
}

impl Segmenter {
    /// Creates a segmenter with the given camera profile and similarity
    /// threshold `thresh ∈ [0, 1]`.
    ///
    /// Larger thresholds cut sooner and produce denser segmentations
    /// (paper §VII).
    ///
    /// # Panics
    /// Panics if `thresh` is outside `[0, 1]` or not finite.
    pub fn new(cam: CameraProfile, thresh: f64) -> Self {
        assert!(
            thresh.is_finite() && (0.0..=1.0).contains(&thresh),
            "segmentation threshold must be in [0, 1], got {thresh}"
        );
        Segmenter {
            trig: CamTrig::new(&cam),
            thresh,
            max_segment_s: None,
            anchor: None,
            t_s: 0.0,
            frames_seen: 0,
        }
    }

    /// Bounds segment duration: a segment is force-closed once the next
    /// frame would stretch it past `max_segment_s` seconds, even while the
    /// FoV stays similar. A stationary camera otherwise produces one
    /// unbounded segment, which hurts retrieval granularity and the §VII
    /// temporal-utility accounting.
    ///
    /// # Panics
    /// Panics if `max_segment_s` is not positive.
    pub fn with_max_segment_s(mut self, max_segment_s: f64) -> Self {
        assert!(
            max_segment_s > 0.0,
            "max segment duration must be positive, got {max_segment_s}"
        );
        self.max_segment_s = Some(max_segment_s);
        self
    }

    /// Number of frames consumed so far.
    #[inline]
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }

    /// Consumes one frame record; returns whether it opens a new segment,
    /// closing the previous one (if any) at the frame before.
    pub fn push(&mut self, frame: TimedFov) -> bool {
        self.frames_seen += 1;
        let opens = match &self.anchor {
            None => true,
            Some(anchor) => {
                self.max_segment_s
                    .is_some_and(|max| frame.t - self.t_s > max)
                    || anchor.is_below(&frame.fov, &self.trig, self.thresh)
            }
        };
        if opens {
            self.anchor = Some(SimAnchor::new(frame.fov));
            self.t_s = frame.t;
        }
        opens
    }

    /// Offline edition: runs `frames` through this segmenter and slices
    /// them into segments at the cuts it reports.
    ///
    /// Returns an empty vector for an empty input. The concatenation of the
    /// returned segments' frames equals the input sequence.
    pub fn segment(mut self, frames: &[TimedFov]) -> Vec<Segment> {
        let mut out = Vec::new();
        let mut start = 0;
        for (i, &f) in frames.iter().enumerate() {
            if self.push(f) && i > start {
                out.push(Segment {
                    fovs: frames[start..i].to_vec(),
                });
                start = i;
            }
        }
        if start < frames.len() {
            out.push(Segment {
                fovs: frames[start..].to_vec(),
            });
        }
        out
    }
}

/// Offline batch segmentation: the paper's Algorithm 1 applied to a whole
/// FoV sequence at once.
///
/// Returns an empty vector for an empty input. The concatenation of the
/// returned segments' frames equals the input sequence.
pub fn segment_video(frames: &[TimedFov], cam: &CameraProfile, thresh: f64) -> Vec<Segment> {
    Segmenter::new(*cam, thresh).segment(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fov::Fov;
    use swag_geo::LatLon;

    fn cam() -> CameraProfile {
        CameraProfile::smartphone()
    }

    fn origin() -> LatLon {
        LatLon::new(40.0, 116.32)
    }

    /// A stationary camera rotating at `deg_per_frame`.
    fn rotating_trace(n: usize, deg_per_frame: f64) -> Vec<TimedFov> {
        (0..n)
            .map(|i| {
                TimedFov::new(
                    i as f64 / 25.0,
                    Fov::new(origin(), deg_per_frame * i as f64),
                )
            })
            .collect()
    }

    #[test]
    fn empty_input_gives_no_segments() {
        assert!(segment_video(&[], &cam(), 0.5).is_empty());
        assert!(Segmenter::new(cam(), 0.5).segment(&[]).is_empty());
    }

    #[test]
    fn single_frame_gives_single_segment() {
        let frames = rotating_trace(1, 0.0);
        let segs = segment_video(&frames, &cam(), 0.5);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len(), 1);
        assert_eq!(segs[0].start_t(), segs[0].end_t());
    }

    #[test]
    fn stationary_camera_never_cuts() {
        let frames = rotating_trace(500, 0.0);
        let segs = segment_video(&frames, &cam(), 0.99);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len(), 500);
    }

    #[test]
    fn rotation_cuts_at_predictable_angle() {
        // Sim_R = (2α − δθ)/2α < 0.5  ⇔  δθ > α = 25°.
        // At 1°/frame the anchor is at 0°, so the first cut happens at
        // frame 26 (δθ = 26°), giving segments of 26 frames.
        let frames = rotating_trace(100, 1.0);
        let segs = segment_video(&frames, &cam(), 0.5);
        assert_eq!(segs[0].len(), 26);
        assert_eq!(segs[1].len(), 26);
        // Frame sequence is preserved and partitioned.
        let total: usize = segs.iter().map(Segment::len).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn segments_partition_input_in_order() {
        let frames = rotating_trace(237, 0.7);
        let segs = segment_video(&frames, &cam(), 0.6);
        let rebuilt: Vec<TimedFov> = segs.iter().flat_map(|s| s.fovs.iter().copied()).collect();
        assert_eq!(rebuilt, frames);
        // Segment boundaries are monotone in time.
        for w in segs.windows(2) {
            assert!(w[0].end_t() < w[1].start_t());
        }
    }

    #[test]
    fn higher_threshold_cuts_more_densely() {
        // §VII: "when threshold gets bigger, the segmentation of video
        // would be denser."
        let frames = rotating_trace(400, 0.5);
        let loose = segment_video(&frames, &cam(), 0.3).len();
        let tight = segment_video(&frames, &cam(), 0.8).len();
        assert!(tight > loose, "tight {tight} loose {loose}");
    }

    #[test]
    fn threshold_zero_never_cuts() {
        // Sim ≥ 0 always, so Sim < 0 never holds.
        let frames = rotating_trace(300, 5.0);
        let segs = segment_video(&frames, &cam(), 0.0);
        assert_eq!(segs.len(), 1);
    }

    #[test]
    fn streaming_matches_offline() {
        let frames = rotating_trace(321, 0.9);
        let offline = segment_video(&frames, &cam(), 0.55);

        // The streaming segmenter opens a segment exactly where each
        // offline segment starts.
        let mut seg = Segmenter::new(cam(), 0.55);
        let opened: Vec<f64> = frames
            .iter()
            .filter(|f| seg.push(**f))
            .map(|f| f.t)
            .collect();
        let starts: Vec<f64> = offline.iter().map(Segment::start_t).collect();
        assert_eq!(opened, starts);
        assert_eq!(seg.frames_seen(), 321);
    }

    #[test]
    fn walking_translation_eventually_cuts() {
        // Walk north at 1.4 m/s looking north: Sim_∥ decays slowly but the
        // anchor similarity eventually crosses a strict threshold.
        let frames: Vec<TimedFov> = (0..2000)
            .map(|i| {
                let t = i as f64 / 25.0;
                TimedFov::new(t, Fov::new(origin().offset(0.0, 1.4 * t), 0.0))
            })
            .collect();
        let segs = segment_video(&frames, &cam(), 0.7);
        assert!(segs.len() > 1);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_out_of_range_threshold() {
        Segmenter::new(cam(), 1.5);
    }

    #[test]
    fn max_duration_bounds_stationary_segments() {
        // A stationary camera: without a bound, one giant segment.
        let frames = rotating_trace(500, 0.0); // 20 s at 25 fps
        let unbounded = segment_video(&frames, &cam(), 0.9);
        assert_eq!(unbounded.len(), 1);

        let out = Segmenter::new(cam(), 0.9)
            .with_max_segment_s(5.0)
            .segment(&frames);
        assert!(out.len() >= 3, "got {} segments", out.len());
        for s in &out {
            assert!(s.duration() <= 5.0 + 0.05, "segment of {} s", s.duration());
        }
        // Still a partition.
        let total: usize = out.iter().map(Segment::len).sum();
        assert_eq!(total, 500);
    }

    #[test]
    #[should_panic(expected = "max segment duration")]
    fn rejects_non_positive_max_duration() {
        let _ = Segmenter::new(cam(), 0.5).with_max_segment_s(0.0);
    }
}
