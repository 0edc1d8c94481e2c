//! Property tests for the client pipeline: streaming/offline agreement,
//! wire-format round trips, architecture-cost monotonicity.

use proptest::prelude::*;
use swag_client::{compare_architectures, ClientPipeline, CrowdScenario, Uploader, VideoProfile};
use swag_core::{
    abstract_segment, segment_video, CameraProfile, DescriptorCodec, Fov, RepFov, TimedFov,
};
use swag_geo::LatLon;

fn arb_trace() -> impl Strategy<Value = Vec<TimedFov>> {
    prop::collection::vec((-8.0f64..8.0, 0.0f64..4.0), 1..250).prop_map(|steps| {
        let mut pos = LatLon::new(40.0, 116.32);
        let mut theta = 0.0f64;
        steps
            .iter()
            .enumerate()
            .map(|(i, (dth, step))| {
                theta += dth;
                pos = pos.offset(theta, *step);
                TimedFov::new(i as f64 * 0.04, Fov::new(pos, theta))
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn pipeline_equals_offline_segmentation(trace in arb_trace(), thresh in 0.0f64..=1.0) {
        // The streaming pipeline (running sums, no frame buffer) produces
        // exactly the reps of segmenting offline and averaging each
        // segment's frames, bit for bit.
        let cam = CameraProfile::smartphone();
        let offline = segment_video(&trace, &cam, thresh);
        let mut pipeline = ClientPipeline::new(cam, thresh);
        for &f in &trace {
            pipeline.push(f);
        }
        let result = pipeline.finish();
        prop_assert_eq!(result.frames, trace.len() as u64);
        let expected: Vec<RepFov> = offline.iter().map(abstract_segment).collect();
        prop_assert_eq!(result.reps.len(), expected.len());
        for (got, want) in result.reps.iter().zip(&expected) {
            let bits = |r: &RepFov| {
                [r.t_start, r.t_end, r.fov.p.lat, r.fov.p.lng, r.fov.theta].map(f64::to_bits)
            };
            prop_assert_eq!(bits(got), bits(want));
        }
    }

    #[test]
    fn smoothed_pipeline_never_loses_frames(
        trace in arb_trace(),
        thresh in 0.1f64..0.9,
        alpha in 0.05f64..1.0,
    ) {
        let cam = CameraProfile::smartphone();
        let result = ClientPipeline::process_trace_smoothed(cam, thresh, alpha, &trace);
        prop_assert_eq!(result.frames, trace.len() as u64);
        // Segments partition the timeline.
        for w in result.reps.windows(2) {
            prop_assert!(w[0].t_end <= w[1].t_start + 1e-12);
        }
    }

    #[test]
    fn upload_wire_size_matches_formula(trace in arb_trace(), thresh in 0.2f64..0.8) {
        let cam = CameraProfile::smartphone();
        let result = ClientPipeline::process_trace(cam, thresh, &trace);
        let n = result.reps.len();
        let mut uploader = Uploader::new(7);
        let (wire, batch) = uploader.upload(result.reps).unwrap();
        prop_assert_eq!(wire.len(), DescriptorCodec::batch_size(n));
        let decoded = DescriptorCodec::decode_batch(wire).unwrap();
        prop_assert_eq!(decoded.reps.len(), batch.reps.len());
        prop_assert_eq!(uploader.traffic().messages_up, 1);
    }

    #[test]
    fn architecture_costs_scale_sanely(
        providers in 1usize..500,
        minutes in 1.0f64..120.0,
        hits in 0usize..50,
    ) {
        let s = CrowdScenario {
            providers,
            video_seconds_per_provider: minutes * 60.0,
            video_profile: VideoProfile::P720,
            fps: 25.0,
            segments_per_provider: 40,
            hit_segments_per_query: hits,
            mean_segment_s: 8.0,
            cv_match_cost_per_frame_s: 1e-4,
            fov_query_cost_s: 1e-6,
            query_bytes: 64,
        };
        let [dc, qc, cf] = compare_architectures(&s);
        // Content-free always has the (weakly) smallest upfront and
        // server cost among upload-based designs.
        prop_assert!(cf.upfront_upload_bytes <= dc.upfront_upload_bytes);
        prop_assert!(cf.per_query_server_cpu_s <= dc.per_query_server_cpu_s);
        // Query-centric moves all CPU to clients.
        prop_assert_eq!(qc.per_query_server_cpu_s, 0.0);
        prop_assert!(qc.per_query_client_cpu_s >= dc.per_query_server_cpu_s - 1e-9);
        // Everyone ships the same hit clips.
        let fetch = s.hit_segments_per_query as u64
            * s.video_profile.encoded_bytes(s.mean_segment_s);
        for a in [&dc, &qc, &cf] {
            prop_assert!(a.per_query_bytes >= fetch);
        }
    }
}
