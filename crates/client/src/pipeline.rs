//! The real-time recording pipeline: sensor stream → segments →
//! representative FoVs.

use std::sync::Arc;

use swag_core::{CameraProfile, FovSmoother, RepAccumulator, RepFov, Segmenter, TimedFov};
use swag_obs::{Counter, Histogram, Registry};

/// Metric handles for an instrumented pipeline (`swag_client_*`).
#[derive(Debug, Clone)]
struct PipelineObs {
    frames: Arc<Counter>,
    segments: Arc<Counter>,
    segment_duration_ms: Arc<Histogram>,
}

/// Output of one recording session.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordingResult {
    /// One representative FoV per detected segment, in time order.
    pub reps: Vec<RepFov>,
    /// Total frames processed.
    pub frames: u64,
}

impl RecordingResult {
    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.reps.len()
    }
}

/// Streaming client pipeline: feed frame records while recording, call
/// [`finish`](ClientPipeline::finish) when the user stops the camera.
///
/// Each frame is folded into the open segment's eq. 11 sums as it
/// arrives, so the pipeline holds no frames: its state per open segment
/// is constant, and beyond that it keeps only the finished reps.
#[derive(Debug, Clone)]
pub struct ClientPipeline {
    segmenter: Segmenter,
    smoother: Option<FovSmoother>,
    /// Eq. 11 sums of the open segment; `None` before the first frame.
    open: Option<RepAccumulator>,
    reps: Vec<RepFov>,
    obs: Option<PipelineObs>,
}

impl ClientPipeline {
    /// Creates a pipeline with the paper's defaults (eq. 11's arithmetic
    /// mean, azimuths unwrapped around each segment's first frame; no
    /// smoothing).
    pub fn new(cam: CameraProfile, thresh: f64) -> Self {
        ClientPipeline {
            segmenter: Segmenter::new(cam, thresh),
            smoother: None,
            open: None,
            reps: Vec::new(),
            obs: None,
        }
    }

    /// Enables EMA sensor smoothing ahead of the segmenter (see
    /// [`FovSmoother`]); suppresses spurious cuts from GPS/compass jitter.
    pub fn with_smoothing(mut self, alpha: f64) -> Self {
        self.smoother = Some(FovSmoother::new(alpha));
        self
    }

    /// Bounds segment duration (see [`Segmenter::with_max_segment_s`]).
    pub fn with_max_segment_s(mut self, max_segment_s: f64) -> Self {
        self.segmenter = self.segmenter.with_max_segment_s(max_segment_s);
        self
    }

    /// Wires frame/segment counters (`swag_client_*`) to `registry`.
    pub fn with_observability(mut self, registry: &Registry) -> Self {
        self.obs = Some(PipelineObs {
            frames: registry.counter("swag_client_frames_total"),
            segments: registry.counter("swag_client_segments_total"),
            segment_duration_ms: registry.histogram("swag_client_segment_duration_ms"),
        });
        self
    }

    /// Consumes one frame record.
    pub fn push(&mut self, frame: TimedFov) {
        let frame = match &mut self.smoother {
            Some(s) => s.push(frame),
            None => frame,
        };
        if let Some(obs) = &self.obs {
            obs.frames.inc();
        }
        if self.segmenter.push(frame) {
            let opened = RepAccumulator::new(frame);
            if let Some(done) = self.open.replace(opened) {
                self.close(done);
            }
        } else if let Some(open) = &mut self.open {
            open.push(frame);
        }
    }

    fn close(&mut self, segment: RepAccumulator) {
        let rep = segment.rep();
        if let Some(obs) = &self.obs {
            obs.segments.inc();
            obs.segment_duration_ms
                .record(((rep.t_end - rep.t_start).max(0.0) * 1000.0) as u64);
        }
        self.reps.push(rep);
    }

    /// Segments finalised so far (excludes the in-progress one).
    pub fn completed(&self) -> &[RepFov] {
        &self.reps
    }

    /// Stops recording, flushing the final segment.
    pub fn finish(mut self) -> RecordingResult {
        if let Some(done) = self.open.take() {
            self.close(done);
        }
        RecordingResult {
            reps: self.reps,
            frames: self.segmenter.frames_seen(),
        }
    }

    /// Convenience: run a whole pre-recorded trace through the pipeline.
    pub fn process_trace(cam: CameraProfile, thresh: f64, trace: &[TimedFov]) -> RecordingResult {
        let mut p = ClientPipeline::new(cam, thresh);
        for &f in trace {
            p.push(f);
        }
        p.finish()
    }

    /// [`Self::process_trace`] with EMA smoothing enabled.
    pub fn process_trace_smoothed(
        cam: CameraProfile,
        thresh: f64,
        alpha: f64,
        trace: &[TimedFov],
    ) -> RecordingResult {
        let mut p = ClientPipeline::new(cam, thresh).with_smoothing(alpha);
        for &f in trace {
            p.push(f);
        }
        p.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_core::{segment_video, Fov};
    use swag_geo::LatLon;

    fn cam() -> CameraProfile {
        CameraProfile::smartphone()
    }

    fn rotating_trace(n: usize, deg_per_frame: f64) -> Vec<TimedFov> {
        (0..n)
            .map(|i| {
                TimedFov::new(
                    i as f64 / 25.0,
                    Fov::new(LatLon::new(40.0, 116.32), deg_per_frame * i as f64),
                )
            })
            .collect()
    }

    #[test]
    fn pipeline_matches_offline_segmentation() {
        let trace = rotating_trace(500, 0.8);
        let result = ClientPipeline::process_trace(cam(), 0.5, &trace);
        let offline = segment_video(&trace, &cam(), 0.5);
        assert_eq!(result.segment_count(), offline.len());
        assert_eq!(result.frames, 500);
        for (rep, seg) in result.reps.iter().zip(&offline) {
            assert_eq!(rep.t_start, seg.start_t());
            assert_eq!(rep.t_end, seg.end_t());
        }
    }

    #[test]
    fn completed_lags_finish_by_one_segment() {
        let trace = rotating_trace(100, 1.0);
        let mut p = ClientPipeline::new(cam(), 0.5);
        for &f in &trace {
            p.push(f);
        }
        let mid_count = p.completed().len();
        let result = p.finish();
        assert_eq!(result.segment_count(), mid_count + 1);
    }

    #[test]
    fn empty_recording() {
        let p = ClientPipeline::new(cam(), 0.5);
        let r = p.finish();
        assert_eq!(r.segment_count(), 0);
        assert_eq!(r.frames, 0);
    }

    #[test]
    fn smoothing_reduces_segments_on_noisy_trace() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use swag_sensors::{generate_trace, DeviceClock, Look, Mobility, SensorNoise, TraceConfig};

        let frame = swag_geo::LocalFrame::new(LatLon::new(40.0, 116.32));
        let mobility = Mobility::StraightLine {
            start: swag_geo::Vec2::ZERO,
            heading_deg: 0.0,
            speed_mps: 1.4,
            look: Look::Heading,
        };
        let mut rng = StdRng::seed_from_u64(8);
        let trace = generate_trace(
            &mobility,
            &frame,
            &TraceConfig::new(25.0, 60.0),
            &SensorNoise {
                gps_sigma_m: 5.0,
                compass_sigma_deg: 8.0,
                dropout_prob: 0.0,
            },
            &DeviceClock::PERFECT,
            &mut rng,
        );
        let raw = ClientPipeline::process_trace(cam(), 0.6, &trace);
        let smoothed = ClientPipeline::process_trace_smoothed(cam(), 0.6, 0.15, &trace);
        assert!(
            smoothed.segment_count() * 2 <= raw.segment_count(),
            "smoothing did not help: {} vs {}",
            smoothed.segment_count(),
            raw.segment_count()
        );
        assert_eq!(smoothed.frames, raw.frames);
    }

    #[test]
    fn observability_counts_frames_and_segments() {
        let reg = Registry::new();
        let trace = rotating_trace(500, 0.8);
        let mut p = ClientPipeline::new(cam(), 0.5).with_observability(&reg);
        for &f in &trace {
            p.push(f);
        }
        let result = p.finish();
        assert_eq!(reg.counter("swag_client_frames_total").get(), 500);
        assert_eq!(
            reg.counter("swag_client_segments_total").get(),
            result.segment_count() as u64
        );
        let durations = reg.histogram("swag_client_segment_duration_ms").snapshot();
        assert_eq!(durations.count, result.segment_count() as u64);
        assert!(durations.max > 0);
    }

    #[test]
    fn segment_across_the_antimeridian_keeps_its_rep_at_the_seam() {
        // Walking east at 1.4 m/s, looking east, from 30 m west of ±180°.
        let start = LatLon::new(10.0, 180.0).offset(270.0, 30.0);
        let trace: Vec<TimedFov> = (0..1500)
            .map(|i| {
                let t = i as f64 / 25.0;
                TimedFov::new(t, Fov::new(start.offset(90.0, 1.4 * t), 90.0))
            })
            .collect();
        let crossing = trace.iter().position(|f| f.fov.p.lng < 0.0).unwrap();
        let t_cross = trace[crossing].t;

        let result = ClientPipeline::process_trace(cam(), 0.5, &trace);
        let seam = LatLon::new(10.0, -180.0);
        assert!(
            result
                .reps
                .iter()
                .any(|r| r.t_start < t_cross && t_cross <= r.t_end),
            "no segment spans the crossing at t = {t_cross}"
        );
        for r in &result.reps {
            // Haversine is periodic in longitude, so it measures the
            // short way round independently of the planar formula.
            let d = r.fov.p.haversine_m(seam);
            assert!(d < 60.0, "rep at {:?} is {d} m from the seam", r.fov.p);
        }
    }

    #[test]
    fn pan_across_north_keeps_its_rep_facing_north() {
        // Standing still, panning 350° → 10° at 0.5° per frame: one
        // segment, whose plain mean of raw azimuths would face south.
        let trace: Vec<TimedFov> = (0..41)
            .map(|i| {
                let theta = 350.0 + 0.5 * f64::from(i);
                TimedFov::new(
                    f64::from(i) / 25.0,
                    Fov::new(LatLon::new(40.0, 116.32), theta),
                )
            })
            .collect();
        let result = ClientPipeline::process_trace(cam(), 0.5, &trace);
        assert_eq!(result.segment_count(), 1);
        let theta = result.reps[0].fov.theta;
        assert!(
            swag_geo::angle_diff_deg(theta, 0.0) < 1.0,
            "rep faces {theta}°"
        );
    }

    #[test]
    fn reps_are_time_ordered_and_disjoint() {
        let trace = rotating_trace(1000, 0.6);
        let result = ClientPipeline::process_trace(cam(), 0.6, &trace);
        assert!(result.segment_count() > 2);
        for w in result.reps.windows(2) {
            assert!(w[0].t_end < w[1].t_start);
        }
    }
}
