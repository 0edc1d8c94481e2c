//! SWAG core: the content-free Field-of-View (FoV) video descriptor.
//!
//! This crate implements the primary contribution of *"Scan Without a
//! Glance: Towards Content-Free Crowd-Sourced Mobile Video Retrieval
//! System"* (ICPP 2015):
//!
//! * the **FoV model** — each video frame is described by the camera pose
//!   `f = (p, θ)` instead of its pixels ([`fov`]);
//! * the **similarity measurement** over FoVs, decomposing camera motion
//!   into a rotation and a translation component ([`similarity`](mod@similarity),
//!   paper §III);
//! * the **real-time video segmentation** algorithm (paper §IV, Alg. 1) and
//!   **segment abstraction** into representative FoVs ([`segmentation`],
//!   [`abstraction`]);
//! * the supporting **sector geometry** used by rank-based retrieval
//!   ([`sector`], paper §V-B) and a compact **wire codec** for descriptors
//!   ([`descriptor`]).
//!
//! The crate is deliberately free of any indexing, networking or CV code —
//! those live in the substrate crates (`swag-rtree`, `swag-server`,
//! `swag-client`, `swag-net`, `swag-vision`).
//!
//! # Quickstart
//!
//! ```
//! use swag_core::{segment_video, CameraProfile, Fov, Segmenter, TimedFov};
//! use swag_geo::LatLon;
//!
//! let camera = CameraProfile::default();
//! // A phone panning right while walking north: one FoV sample per frame.
//! let frames: Vec<TimedFov> = (0..100)
//!     .map(|i| {
//!         let t = i as f64 / 25.0; // 25 fps
//!         let pos = LatLon::new(40.0, 116.32).offset(0.0, 1.4 * t);
//!         TimedFov::new(t, Fov::new(pos, 3.0 * t))
//!     })
//!     .collect();
//!
//! // Segment in real time with the paper's Algorithm 1: `push` reports
//! // whether a frame opens a new segment.
//! let mut seg = Segmenter::new(camera, 0.5);
//! let opened = frames.iter().filter(|f| seg.push(**f)).count();
//!
//! // The offline edition slices the frames at the same cuts.
//! let segments = segment_video(&frames, &camera, 0.5);
//! assert_eq!(segments.len(), opened);
//!
//! // Each segment is abstracted into a single representative FoV.
//! let reps: Vec<_> = segments.iter().map(|s| s.abstract_default()).collect();
//! assert_eq!(reps.len(), segments.len());
//! ```

pub mod abstraction;
pub mod descriptor;
pub mod fov;
pub mod interpolation;
pub mod sector;
pub mod segmentation;
pub mod similarity;
pub mod smoothing;
pub mod trace_io;

pub use abstraction::{abstract_segment, RepAccumulator, RepFov};
pub use descriptor::{DescriptorCodec, UploadBatch};
pub use fov::{CameraProfile, Fov, TimedFov};
pub use interpolation::{interpolate_trace, sample_at};
pub use sector::{points_toward, sector_contains, sector_intersects_circle, DirectionTest};
pub use segmentation::{segment_video, Segment, Segmenter};
pub use similarity::{
    similarity, similarity_parts, similarity_parts_trig, similarity_trig, vector_model_similarity,
    CamTrig, SimAnchor, SimilarityBreakdown,
};
pub use smoothing::FovSmoother;
pub use trace_io::{read_reps_csv, read_trace_csv, write_reps_csv, write_trace_csv, TraceIoError};
