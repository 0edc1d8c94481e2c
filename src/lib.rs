//! # SWAG — *Scan Without a Glance*
//!
//! A from-scratch Rust reproduction of **"Scan Without a Glance: Towards
//! Content-Free Crowd-Sourced Mobile Video Retrieval System"**
//! (ICPP 2015).
//!
//! Instead of comparing video *content* (pixels, SIFT features), SWAG
//! describes each video frame by its **Field of View** — the camera's GPS
//! position and compass azimuth — and builds the whole retrieval pipeline
//! on that 18-byte descriptor:
//!
//! 1. **Similarity** ([`swag_core::similarity`](mod@swag_core::similarity)): camera motion decomposed
//!    into rotation and translation, combined multiplicatively.
//! 2. **Real-time segmentation** ([`swag_core::Segmenter`]): videos are
//!    cut into segments of similar FoV in O(1) per frame on the device.
//! 3. **Abstraction** ([`swag_core::abstract_segment`]): one
//!    representative FoV per segment is uploaded — kilobytes instead of
//!    gigabytes.
//! 4. **Indexing** ([`swag_server::FovIndex`]): the server stores each
//!    representative FoV as a 3-D segment `[lng, lat, tₛ..tₑ]` in an
//!    R-tree built from scratch ([`swag_rtree`]).
//! 5. **Rank-based retrieval** ([`swag_server::CloudServer`]): a
//!    spatio-temporal query returns direction-filtered, distance-ranked
//!    top-N video segments in sub-millisecond time.
//!
//! The workspace also contains every substrate needed to reproduce the
//! paper's evaluation without phones or OpenCV: a sensor/mobility
//! simulator ([`swag_sensors`]), a synthetic-world renderer with CV
//! baselines ([`swag_vision`]), a network model ([`swag_net`]), and the
//! §VII utility/incentive mechanism ([`swag_utility`]).
//!
//! ## Quickstart
//!
//! ```
//! use swag::prelude::*;
//!
//! // 1. A provider records a video; sensors produce (t, p, θ) records.
//! let noise = SensorNoise::smartphone();
//! let trace = swag_sensors::scenarios::bike_ride_with_turn(80.0, 4.0, &noise, 7);
//!
//! // 2. The client pipeline segments in real time and uploads descriptors.
//! let cam = CameraProfile::smartphone();
//! let result = ClientPipeline::process_trace(cam, 0.5, &trace);
//! let mut uploader = Uploader::new(1001);
//! let (wire_bytes, batch) = uploader.upload(result.reps).expect("in range");
//! assert!(wire_bytes.len() < 1000); // descriptors, not video
//!
//! // 3. The server indexes the batch and answers a spatio-temporal query.
//! let server = CloudServer::new(cam);
//! server.ingest_batch(&batch);
//! // Search a spot the ride was filming (60 m up the road), t = 0..60 s.
//! let spot = swag_sensors::scenarios::default_origin().offset(0.0, 60.0);
//! let q = Query::new(0.0, 60.0, spot, 100.0);
//! let hits = server.query(&q, &QueryOptions::default());
//! assert!(!hits.is_empty());
//! ```

pub mod geojson;

pub use swag_client as client;
pub use swag_core as core;
pub use swag_geo as geo;
pub use swag_net as net;
pub use swag_rtree as rtree;
pub use swag_sensors as sensors;
pub use swag_server as server;
pub use swag_sim as sim;
pub use swag_utility as utility;
pub use swag_vision as vision;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use swag_client::{ClientPipeline, Uploader, VideoProfile};
    pub use swag_core::{
        abstract_segment, segment_video, similarity, similarity_parts, CameraProfile,
        DescriptorCodec, Fov, FovSmoother, RepFov, Segment, Segmenter, TimedFov, UploadBatch,
    };
    pub use swag_geo::{LatLon, LocalFrame, Trajectory, Vec2};
    pub use swag_net::{Connectivity, DataPlan, NetworkLink, TrafficMeter, UploadPolicy};
    pub use swag_sensors::{DeviceClock, Mobility, SensorNoise, TraceConfig};
    pub use swag_server::{
        CloudServer, FovIndex, IndexKind, Query, QueryOptions, SearchHit, SegmentId, SegmentRef,
    };
    pub use swag_utility::{greedy_select, utility_of_set, CoverageGrid, OnlineSelector, Priced};
    pub use swag_vision::{site_survey, suggest_view_radius, Frame, Renderer, Resolution, World};
}
