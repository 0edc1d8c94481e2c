//! Admission control: per-client token buckets plus a bounded in-flight
//! request budget, with load-shedding instead of queueing.
//!
//! The engine's query API is synchronous, so "bounded request queue"
//! means a hard in-flight cap: a request either takes a slot immediately
//! or is shed with [`ShedReason::Overloaded`]. There is deliberately no
//! wait list — under overload an unbounded queue converts excess offered
//! load into unbounded latency for *everyone*, while shedding keeps the
//! admitted requests' p99 bounded by actual service time.
//!
//! Rate policy is per client: each client id owns a token bucket
//! refilled at [`AdmissionConfig::rate_per_s`] with burst capacity
//! [`AdmissionConfig::burst`], so one hot client cannot starve the rest.
//! Buckets refill lazily from the engine's injectable
//! [`MonotonicClock`], making the policy deterministic under test. The
//! client table itself is bounded ([`AdmissionConfig::max_clients`]);
//! at capacity the stalest bucket is recycled, which at worst re-grants
//! a burst to a returning client — a deliberate fail-open bias.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use swag_obs::MonotonicClock;

/// Admission tuning, part of [`ServerConfig`](crate::server::ServerConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Master switch; disabled (the default) admits everything and the
    /// engine skips the controller entirely.
    pub enabled: bool,
    /// Steady-state queries per second granted to each client.
    pub rate_per_s: f64,
    /// Bucket depth: how far above the steady rate a client may burst.
    pub burst: f64,
    /// Hard cap on concurrently executing queries ("queue" depth for a
    /// synchronous API); excess requests are shed, not parked.
    pub max_inflight: usize,
    /// Bound on tracked client buckets.
    pub max_clients: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: false,
            rate_per_s: 2000.0,
            burst: 200.0,
            max_inflight: 256,
            max_clients: 4096,
        }
    }
}

/// Why a request was shed instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The client's token bucket is empty: it exceeded its admission
    /// budget. Retry after backoff.
    RateLimited,
    /// The server's in-flight budget is exhausted: global overload.
    Overloaded,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::RateLimited => write!(f, "rate limited (per-client admission budget)"),
            ShedReason::Overloaded => write!(f, "overloaded (in-flight request budget)"),
        }
    }
}

impl std::error::Error for ShedReason {}

struct TokenBucket {
    tokens: f64,
    refilled_micros: u64,
}

/// The controller the engine consults before executing a query.
pub(crate) struct AdmissionController {
    cfg: AdmissionConfig,
    clock: Arc<dyn MonotonicClock>,
    inflight: AtomicUsize,
    buckets: Mutex<HashMap<u64, TokenBucket>>,
}

/// RAII in-flight slot: dropping it (query finished or shed mid-way)
/// releases the slot.
pub(crate) struct InflightPermit<'a> {
    controller: &'a AdmissionController,
}

impl std::fmt::Debug for InflightPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InflightPermit").finish_non_exhaustive()
    }
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        self.controller.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

impl AdmissionController {
    pub(crate) fn new(cfg: AdmissionConfig, clock: Arc<dyn MonotonicClock>) -> Self {
        AdmissionController {
            cfg,
            clock,
            inflight: AtomicUsize::new(0),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Currently executing admitted queries (the queue-depth gauge).
    pub(crate) fn queue_depth(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Admits or sheds one request from `client_id`. On success the
    /// returned permit holds an in-flight slot until dropped.
    pub(crate) fn admit(&self, client_id: u64) -> Result<InflightPermit<'_>, ShedReason> {
        // Per-client rate policy first: a rate-limited client should see
        // RateLimited even while the server is also saturated.
        let now = self.clock.now_micros();
        {
            let mut buckets = self.buckets.lock();
            if buckets.len() >= self.cfg.max_clients && !buckets.contains_key(&client_id) {
                // Recycle the stalest bucket rather than grow unbounded.
                if let Some(stale) = buckets
                    .iter()
                    .min_by_key(|(_, b)| b.refilled_micros)
                    .map(|(id, _)| *id)
                {
                    buckets.remove(&stale);
                }
            }
            let bucket = buckets.entry(client_id).or_insert(TokenBucket {
                tokens: self.cfg.burst,
                refilled_micros: now,
            });
            let elapsed_s = now.saturating_sub(bucket.refilled_micros) as f64 / 1e6;
            bucket.tokens = (bucket.tokens + elapsed_s * self.cfg.rate_per_s).min(self.cfg.burst);
            bucket.refilled_micros = now;
            if bucket.tokens < 1.0 {
                return Err(ShedReason::RateLimited);
            }
            bucket.tokens -= 1.0;
        }
        // Then the global in-flight budget.
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.cfg.max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return Err(ShedReason::Overloaded);
        }
        Ok(InflightPermit { controller: self })
    }

    /// Tokens currently left in `client_id`'s bucket (the configured
    /// burst for a client with no bucket yet). Forensic annotation only
    /// — reads, never refills or spends — so the number is the balance
    /// as of the bucket's last [`Self::admit`] touch.
    pub(crate) fn tokens_remaining(&self, client_id: u64) -> f64 {
        self.buckets
            .lock()
            .get(&client_id)
            .map_or(self.cfg.burst, |b| b.tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_obs::ManualClock;

    fn controller(cfg: AdmissionConfig) -> (AdmissionController, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        (AdmissionController::new(cfg, clock.clone()), clock)
    }

    #[test]
    fn burst_then_rate_limit_then_refill() {
        let (ctl, clock) = controller(AdmissionConfig {
            enabled: true,
            rate_per_s: 10.0,
            burst: 3.0,
            ..AdmissionConfig::default()
        });
        for _ in 0..3 {
            assert!(ctl.admit(1).is_ok());
        }
        assert_eq!(
            ctl.admit(1)
                .expect_err("4th request must be shed: burst of 3 is spent"),
            ShedReason::RateLimited
        );
        // 100 ms at 10/s refills exactly one token.
        clock.advance_micros(100_000);
        assert!(ctl.admit(1).is_ok());
        assert_eq!(
            ctl.admit(1)
                .expect_err("refill granted exactly one token, already spent"),
            ShedReason::RateLimited
        );
    }

    #[test]
    fn clients_have_independent_buckets() {
        let (ctl, _clock) = controller(AdmissionConfig {
            enabled: true,
            rate_per_s: 1.0,
            burst: 1.0,
            ..AdmissionConfig::default()
        });
        assert!(ctl.admit(1).is_ok());
        assert_eq!(
            ctl.admit(1)
                .expect_err("client 1's single-token burst is spent"),
            ShedReason::RateLimited
        );
        assert!(
            ctl.admit(2).is_ok(),
            "client 2 must not share client 1's bucket"
        );
    }

    #[test]
    fn inflight_budget_sheds_overload_and_permits_release() {
        let (ctl, _clock) = controller(AdmissionConfig {
            enabled: true,
            rate_per_s: 1000.0,
            burst: 1000.0,
            max_inflight: 2,
            ..AdmissionConfig::default()
        });
        let a = ctl
            .admit(1)
            .expect("1st admit fits the max_inflight=2 budget");
        let b = ctl
            .admit(1)
            .expect("2nd admit fits the max_inflight=2 budget");
        assert_eq!(ctl.queue_depth(), 2);
        assert_eq!(
            ctl.admit(1)
                .expect_err("3rd concurrent admit must exceed max_inflight=2"),
            ShedReason::Overloaded
        );
        drop(a);
        assert_eq!(ctl.queue_depth(), 1);
        assert!(ctl.admit(1).is_ok());
        drop(b);
    }

    #[test]
    fn client_table_stays_bounded() {
        let (ctl, clock) = controller(AdmissionConfig {
            enabled: true,
            rate_per_s: 100.0,
            burst: 10.0,
            max_clients: 4,
            ..AdmissionConfig::default()
        });
        for id in 0..16 {
            clock.advance_micros(1_000);
            assert!(ctl.admit(id).is_ok());
        }
        assert!(ctl.buckets.lock().len() <= 4);
    }
}
