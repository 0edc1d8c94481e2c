//! Simulated network substrate.
//!
//! The paper's motivation (§I) is that uploading raw crowd-sourced video
//! over cellular links is "extremely time-consuming and money-consuming".
//! This crate provides the models the traffic experiments use to quantify
//! that: link bandwidth/latency ([`NetworkLink`]), per-megabyte data cost
//! ([`DataPlan`]) and byte accounting ([`TrafficMeter`]).

pub mod cost;
pub mod link;
pub mod scheduler;
pub mod traffic;

pub use cost::DataPlan;
pub use link::NetworkLink;
pub use scheduler::{
    observe_plan, plan_uploads, Connectivity, PlannedUpload, UploadPlan, UploadPolicy,
};
pub use traffic::TrafficMeter;
