//! Descriptor upload: batching, encoding, traffic accounting.

use std::sync::Arc;

use bytes::Bytes;
use swag_core::descriptor::CodecError;
use swag_core::{DescriptorCodec, RepFov, UploadBatch};
use swag_net::{NetworkLink, TrafficMeter};
use swag_obs::{Counter, Registry};

use crate::video::VideoProfile;

/// Metric handles for an instrumented uploader (`swag_client_*`).
#[derive(Debug, Clone)]
struct UploadObs {
    batches: Arc<Counter>,
    descriptor_bytes: Arc<Counter>,
}

/// Builds and accounts descriptor uploads for one provider device.
#[derive(Debug, Clone)]
pub struct Uploader {
    provider_id: u64,
    next_video_id: u64,
    meter: TrafficMeter,
    obs: Option<UploadObs>,
}

impl Uploader {
    /// Creates an uploader for a provider.
    pub fn new(provider_id: u64) -> Self {
        Uploader {
            provider_id,
            next_video_id: 0,
            meter: TrafficMeter::new(),
            obs: None,
        }
    }

    /// Wires upload counters (`swag_client_upload_*`) to `registry`.
    pub fn attach_observability(&mut self, registry: &Registry) {
        self.obs = Some(UploadObs {
            batches: registry.counter("swag_client_upload_batches_total"),
            descriptor_bytes: registry.counter("swag_client_descriptor_bytes_total"),
        });
    }

    /// The provider id.
    pub fn provider_id(&self) -> u64 {
        self.provider_id
    }

    /// Packages a recording's representative FoVs as an upload message,
    /// recording its size in the traffic meter. Returns the wire bytes and
    /// the logical batch.
    ///
    /// Errors with [`CodecError::OutOfRange`] if a record cannot be
    /// represented on the wire (nothing is metered in that case; the
    /// video id is not consumed).
    pub fn upload(&mut self, reps: Vec<RepFov>) -> Result<(Bytes, UploadBatch), CodecError> {
        let batch = UploadBatch {
            provider_id: self.provider_id,
            video_id: self.next_video_id,
            reps,
        };
        let bytes = DescriptorCodec::encode_batch(&batch)?;
        self.next_video_id += 1;
        self.meter.record_up(bytes.len());
        if let Some(obs) = &self.obs {
            obs.batches.inc();
            obs.descriptor_bytes.add(bytes.len() as u64);
        }
        Ok((bytes, batch))
    }

    /// Accumulated traffic.
    pub fn traffic(&self) -> &TrafficMeter {
        &self.meter
    }

    /// Expected wall-clock time to push this device's accumulated uploads
    /// over a link.
    pub fn upload_time_s(&self, link: &NetworkLink) -> f64 {
        link.transfer_time_s(self.meter.bytes_up as usize)
    }

    /// Ratio of raw-video bytes to descriptor bytes for a recording of
    /// `duration_s` seconds — the headline traffic-saving factor.
    pub fn savings_factor(descriptor_bytes: usize, profile: VideoProfile, duration_s: f64) -> f64 {
        profile.encoded_bytes(duration_s) as f64 / descriptor_bytes.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_core::Fov;
    use swag_geo::LatLon;

    fn reps(n: usize) -> Vec<RepFov> {
        (0..n)
            .map(|i| {
                RepFov::new(
                    i as f64 * 10.0,
                    i as f64 * 10.0 + 8.0,
                    Fov::new(LatLon::new(40.0, 116.32), 25.0),
                )
            })
            .collect()
    }

    #[test]
    fn upload_meters_bytes_and_increments_video_id() {
        let mut u = Uploader::new(9);
        let (bytes1, batch1) = u.upload(reps(10)).unwrap();
        let (bytes2, batch2) = u.upload(reps(3)).unwrap();
        assert_eq!(batch1.video_id, 0);
        assert_eq!(batch2.video_id, 1);
        assert_eq!(batch1.provider_id, 9);
        assert_eq!(u.traffic().bytes_up as usize, bytes1.len() + bytes2.len());
        assert_eq!(u.traffic().messages_up, 2);
    }

    #[test]
    fn observability_tracks_descriptor_bytes() {
        let reg = Registry::new();
        let mut u = Uploader::new(4);
        u.attach_observability(&reg);
        let (b1, _) = u.upload(reps(5)).unwrap();
        let (b2, _) = u.upload(reps(2)).unwrap();
        assert_eq!(reg.counter("swag_client_upload_batches_total").get(), 2);
        assert_eq!(
            reg.counter("swag_client_descriptor_bytes_total").get(),
            (b1.len() + b2.len()) as u64
        );
    }

    #[test]
    fn wire_round_trip_preserves_count() {
        let mut u = Uploader::new(1);
        let (bytes, batch) = u.upload(reps(7)).unwrap();
        let decoded = DescriptorCodec::decode_batch(bytes).unwrap();
        assert_eq!(decoded.reps.len(), batch.reps.len());
        assert_eq!(decoded.provider_id, 1);
    }

    #[test]
    fn descriptor_upload_is_orders_of_magnitude_smaller_than_video() {
        // A 10-minute recording segmented into 100 segments.
        let mut u = Uploader::new(2);
        let (bytes, _) = u.upload(reps(100)).unwrap();
        let factor = Uploader::savings_factor(bytes.len(), VideoProfile::P720, 600.0);
        assert!(factor > 10_000.0, "savings factor only {factor}");
    }

    #[test]
    fn upload_time_is_subsecond_on_cellular() {
        let mut u = Uploader::new(3);
        u.upload(reps(1000)).unwrap(); // a very long recording's descriptors
        let t = u.upload_time_s(&NetworkLink::cellular_3g());
        assert!(t < 1.0, "descriptor upload took {t}s");
    }
}
