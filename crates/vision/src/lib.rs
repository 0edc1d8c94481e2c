//! Computer-vision substrate for SWAG.
//!
//! The paper compares FoV-based similarity and segmentation against
//! content-based (CV) methods applied to real footage with OpenCV. This
//! crate replaces both the footage and OpenCV with a fully self-contained
//! pipeline:
//!
//! * a **synthetic world** of coloured landmarks ([`world`]) standing in
//!   for the street scene;
//! * a **ray-casting renderer** ([`camera`]) that produces real `W×H` RGB
//!   frame buffers from a camera pose, so CV costs are genuinely
//!   resolution-dependent (the property the paper's Fig. 6(a) measures);
//! * **frame differencing** ([`diff`]) — the paper's representative CV
//!   similarity;
//! * a **colour-histogram** global descriptor ([`hist`]) and a SIFT-like
//!   **grid gradient descriptor** ([`keypoints`]) as content-descriptor
//!   baselines for the size/extract/match cost comparison;
//! * **CV-based video segmentation** ([`segmentation`]) mirroring the
//!   paper's Algorithm 1 with frame-diff similarity, for the cost and
//!   agreement experiments.
//!
//! Rendering parallelises across rows with `std::thread::scope`.

pub mod camera;
pub mod diff;
pub mod frame;
pub mod hist;
pub mod keypoints;
pub mod motion;
pub mod ppm;
pub mod segmentation;
pub mod survey;
pub mod world;

pub use camera::Renderer;
pub use diff::frame_diff_similarity;
pub use frame::{Frame, Resolution};
pub use hist::ColorHistogram;
pub use keypoints::GridDescriptor;
pub use motion::{estimate_rotation_deg, estimate_shift_px};
pub use ppm::{read_ppm, write_ppm};
pub use survey::{site_survey, suggest_view_radius, SurveyResult};
pub use world::{Landmark, World};
