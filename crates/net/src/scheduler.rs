//! Upload scheduling policies: when to push descriptor batches.
//!
//! Descriptor uploads are tiny, but crowd deployments still care *when*
//! they move: cellular bytes cost money and WiFi comes and goes. The
//! scheduler plans upload times under a policy and reports the resulting
//! freshness/cost trade — the knob a deployment turns between "findable
//! now" and "free".

use serde::{Deserialize, Serialize};
use swag_obs::Registry;

use crate::cost::DataPlan;
use crate::link::NetworkLink;

/// When queued uploads are released.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum UploadPolicy {
    /// Send the moment the batch is ready, on whatever link is up.
    Immediate,
    /// Wait for WiFi up to `max_delay_s`; then fall back to cellular.
    WifiPreferred {
        /// Longest acceptable staleness, seconds.
        max_delay_s: f64,
    },
    /// Release queued uploads at fixed flush ticks (battery batching).
    Batched {
        /// Flush interval, seconds.
        interval_s: f64,
    },
}

/// WiFi availability as disjoint, sorted time windows.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Connectivity {
    windows: Vec<(f64, f64)>,
}

impl Connectivity {
    /// Builds a connectivity timeline from `(start, end)` WiFi windows.
    ///
    /// # Panics
    /// Panics if windows are unordered or overlapping.
    pub fn new(windows: Vec<(f64, f64)>) -> Self {
        for w in &windows {
            assert!(w.1 > w.0, "empty window {w:?}");
        }
        for pair in windows.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "windows overlap or unsorted");
        }
        Connectivity { windows }
    }

    /// Never on WiFi.
    pub fn cellular_only() -> Self {
        Connectivity::default()
    }

    /// Whether WiFi is up at time `t`.
    pub fn wifi_at(&self, t: f64) -> bool {
        self.windows.iter().any(|&(a, b)| (a..b).contains(&t))
    }

    /// Earliest time ≥ `t` with WiFi, if any.
    pub fn next_wifi_at(&self, t: f64) -> Option<f64> {
        self.windows
            .iter()
            .find_map(|&(a, b)| if t < b { Some(t.max(a)) } else { None })
    }
}

/// One planned upload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannedUpload {
    /// When the batch became ready.
    pub ready_at: f64,
    /// When it is transmitted.
    pub send_at: f64,
    /// When the server has it.
    pub arrival_at: f64,
    /// Whether it went over WiFi.
    pub used_wifi: bool,
    /// Monetary cost (0 on WiFi).
    pub cost: f64,
}

/// Aggregate plan results.
#[derive(Debug, Clone, PartialEq)]
pub struct UploadPlan {
    /// Per-upload schedule, in input order.
    pub uploads: Vec<PlannedUpload>,
    /// Total monetary cost.
    pub total_cost: f64,
    /// Mean seconds from ready to server arrival.
    pub mean_delay_s: f64,
    /// Fraction of bytes moved over WiFi.
    pub wifi_byte_fraction: f64,
}

/// Plans `(ready_at, bytes)` uploads under a policy.
pub fn plan_uploads(
    policy: UploadPolicy,
    connectivity: &Connectivity,
    uploads: &[(f64, usize)],
    cellular: &NetworkLink,
    wifi: &NetworkLink,
    plan: &DataPlan,
) -> UploadPlan {
    let mut planned = Vec::with_capacity(uploads.len());
    let (mut total_cost, mut delay_sum) = (0.0, 0.0);
    let (mut wifi_bytes, mut total_bytes) = (0u64, 0u64);

    for &(ready_at, bytes) in uploads {
        let send_at = match policy {
            UploadPolicy::Immediate => ready_at,
            UploadPolicy::WifiPreferred { max_delay_s } => {
                match connectivity.next_wifi_at(ready_at) {
                    Some(t) if t <= ready_at + max_delay_s => t,
                    _ => ready_at + max_delay_s,
                }
            }
            UploadPolicy::Batched { interval_s } => {
                assert!(interval_s > 0.0, "batch interval must be positive");
                (ready_at / interval_s).ceil() * interval_s
            }
        };
        let used_wifi = connectivity.wifi_at(send_at);
        let link = if used_wifi { wifi } else { cellular };
        let arrival_at = send_at + link.transfer_time_s(bytes);
        let cost = if used_wifi { 0.0 } else { plan.cost(bytes) };
        total_cost += cost;
        delay_sum += arrival_at - ready_at;
        total_bytes += bytes as u64;
        if used_wifi {
            wifi_bytes += bytes as u64;
        }
        planned.push(PlannedUpload {
            ready_at,
            send_at,
            arrival_at,
            used_wifi,
            cost,
        });
    }
    UploadPlan {
        total_cost,
        mean_delay_s: delay_sum / uploads.len().max(1) as f64,
        wifi_byte_fraction: if total_bytes == 0 {
            0.0
        } else {
            wifi_bytes as f64 / total_bytes as f64
        },
        uploads: planned,
    }
}

/// Records a plan's outcomes as `swag_net_*` metrics: bytes moved (total
/// and over WiFi), uploads planned, uploads deferred past their ready
/// time, and the ready-to-arrival delay distribution.
///
/// `uploads` must be the same `(ready_at, bytes)` slice the plan was built
/// from — [`UploadPlan`] deliberately does not retain payload sizes.
pub fn observe_plan(plan: &UploadPlan, uploads: &[(f64, usize)], registry: &Registry) {
    assert_eq!(
        plan.uploads.len(),
        uploads.len(),
        "plan and upload slice disagree"
    );
    let planned = registry.counter("swag_net_uploads_planned_total");
    let deferred = registry.counter("swag_net_uploads_deferred_total");
    let bytes_total = registry.counter("swag_net_bytes_planned_total");
    let bytes_wifi = registry.counter("swag_net_bytes_wifi_total");
    let delay_ms = registry.histogram("swag_net_upload_delay_ms");

    for (u, &(_, bytes)) in plan.uploads.iter().zip(uploads) {
        planned.inc();
        if u.send_at > u.ready_at {
            deferred.inc();
        }
        bytes_total.add(bytes as u64);
        if u.used_wifi {
            bytes_wifi.add(bytes as u64);
        }
        delay_ms.record(((u.arrival_at - u.ready_at).max(0.0) * 1000.0) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links() -> (NetworkLink, NetworkLink, DataPlan) {
        (
            NetworkLink::cellular_4g(),
            NetworkLink::wifi(),
            DataPlan::metered(),
        )
    }

    fn evening_wifi() -> Connectivity {
        // WiFi at home: 0-60 s and 600-1200 s.
        Connectivity::new(vec![(0.0, 60.0), (600.0, 1200.0)])
    }

    #[test]
    fn connectivity_queries() {
        let c = evening_wifi();
        assert!(c.wifi_at(30.0));
        assert!(!c.wifi_at(300.0));
        assert_eq!(c.next_wifi_at(30.0), Some(30.0));
        assert_eq!(c.next_wifi_at(100.0), Some(600.0));
        assert_eq!(c.next_wifi_at(2000.0), None);
        assert!(!Connectivity::cellular_only().wifi_at(0.0));
    }

    #[test]
    fn immediate_sends_at_ready_time() {
        let (cell, wifi, plan) = links();
        let p = plan_uploads(
            UploadPolicy::Immediate,
            &evening_wifi(),
            &[(30.0, 10_000), (300.0, 10_000)],
            &cell,
            &wifi,
            &plan,
        );
        assert_eq!(p.uploads[0].send_at, 30.0);
        assert!(p.uploads[0].used_wifi);
        assert_eq!(p.uploads[0].cost, 0.0);
        assert!(!p.uploads[1].used_wifi);
        assert!(p.uploads[1].cost > 0.0);
        assert!((p.wifi_byte_fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn wifi_preferred_waits_then_falls_back() {
        let (cell, wifi, plan) = links();
        // Ready at 100 s; WiFi returns at 600 s.
        let patient = plan_uploads(
            UploadPolicy::WifiPreferred {
                max_delay_s: 1000.0,
            },
            &evening_wifi(),
            &[(100.0, 50_000)],
            &cell,
            &wifi,
            &plan,
        );
        assert_eq!(patient.uploads[0].send_at, 600.0);
        assert!(patient.uploads[0].used_wifi);
        assert_eq!(patient.total_cost, 0.0);

        let impatient = plan_uploads(
            UploadPolicy::WifiPreferred { max_delay_s: 120.0 },
            &evening_wifi(),
            &[(100.0, 50_000)],
            &cell,
            &wifi,
            &plan,
        );
        assert_eq!(impatient.uploads[0].send_at, 220.0);
        assert!(!impatient.uploads[0].used_wifi);
        assert!(impatient.total_cost > 0.0);
        // The freshness/cost trade.
        assert!(patient.mean_delay_s > impatient.mean_delay_s);
        assert!(patient.total_cost < impatient.total_cost);
    }

    #[test]
    fn batched_aligns_to_flush_ticks() {
        let (cell, wifi, plan) = links();
        let p = plan_uploads(
            UploadPolicy::Batched { interval_s: 300.0 },
            &Connectivity::cellular_only(),
            &[(10.0, 1_000), (290.0, 1_000), (301.0, 1_000)],
            &cell,
            &wifi,
            &plan,
        );
        assert_eq!(p.uploads[0].send_at, 300.0);
        assert_eq!(p.uploads[1].send_at, 300.0);
        assert_eq!(p.uploads[2].send_at, 600.0);
        assert!(p.uploads.iter().all(|u| !u.used_wifi));
    }

    #[test]
    fn empty_plan_is_zeroed() {
        let (cell, wifi, plan) = links();
        let p = plan_uploads(
            UploadPolicy::Immediate,
            &Connectivity::cellular_only(),
            &[],
            &cell,
            &wifi,
            &plan,
        );
        assert!(p.uploads.is_empty());
        assert_eq!(p.total_cost, 0.0);
        assert_eq!(p.wifi_byte_fraction, 0.0);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_windows_rejected() {
        Connectivity::new(vec![(0.0, 100.0), (50.0, 200.0)]);
    }

    #[test]
    fn observe_plan_records_bytes_and_deferrals() {
        let (cell, wifi, plan) = links();
        let uploads = [(30.0, 10_000), (100.0, 50_000)];
        // Ready at 30 s sends immediately on WiFi; ready at 100 s waits
        // for the 600 s window.
        let p = plan_uploads(
            UploadPolicy::WifiPreferred {
                max_delay_s: 1000.0,
            },
            &evening_wifi(),
            &uploads,
            &cell,
            &wifi,
            &plan,
        );
        let reg = Registry::new();
        observe_plan(&p, &uploads, &reg);
        assert_eq!(reg.counter("swag_net_uploads_planned_total").get(), 2);
        assert_eq!(reg.counter("swag_net_uploads_deferred_total").get(), 1);
        assert_eq!(reg.counter("swag_net_bytes_planned_total").get(), 60_000);
        assert_eq!(reg.counter("swag_net_bytes_wifi_total").get(), 60_000);
        let delay = reg.histogram("swag_net_upload_delay_ms").snapshot();
        assert_eq!(delay.count, 2);
        // The deferred upload waited ~500 s.
        assert!(delay.max >= 500_000);
    }
}
