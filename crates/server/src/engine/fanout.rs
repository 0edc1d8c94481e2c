//! Adaptive fan-out: the per-query serial-vs-parallel cost model.
//!
//! Fanning a probe across the executor is not free — every chunk of
//! shards past the caller's own costs a scoped thread spawn and join
//! (≈ 25 µs on a 2-vCPU guest), and each chunk fills a private top-N
//! collector that the caller re-merges. For the common narrow query
//! (one or two small shards) that overhead exceeds the probe itself, and
//! on a host with fewer cores than threads the "parallel" path degrades
//! into context-switch churn that loses to the plain serial loop
//! outright.
//!
//! So the engine prices every plan before running it:
//!
//! * the sharded index estimates the probe cost — live shards in the
//!   window and their item counts, scaled by how much of each shard's
//!   time bucket the window actually overlaps (the temporal
//!   selectivity; see [`crate::shard::ShardedFovIndex::estimate_probe`]);
//! * the effective worker count is clamped to the machine's available
//!   parallelism, so an oversized executor on a small host never
//!   oversubscribes;
//! * the probe goes parallel only when at least
//!   [`PARALLEL_MIN_SHARDS`] shards are in play, more than one
//!   effective worker exists, and the selectivity-weighted work crosses
//!   [`PARALLEL_MIN_WORK`] items.
//!
//! Both probe paths are byte-identical by construction (every probe
//! ties on segment id, and collectors merge by the same key), so
//! the decision can change latency but never results — a property the
//! equivalence proptests pin. The decision taken is
//! visible in `swag explain` (the `fanout` line) and in the
//! `swag_server_fanout_total{mode=...}` counters next to the per-
//! operator `op_micros` telemetry.

use std::sync::OnceLock;

use swag_exec::Executor;

use crate::shard::ShardedFovIndex;

/// How the engine chooses between the serial and parallel probe path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FanoutMode {
    /// Price each plan with the cost model (the default).
    #[default]
    Adaptive,
    /// Always probe serially (deterministic latency, test pinning).
    Serial,
    /// Always fan out when structurally possible (≥ 2 shards and > 1
    /// effective worker) — the pre-cost-model behaviour.
    Parallel,
}

/// Fewest probed shards for which fanning out can pay: a single-shard
/// probe has nothing to distribute.
pub const PARALLEL_MIN_SHARDS: usize = 2;

/// Fewest selectivity-weighted index items for which fanning out pays.
/// Below this a thread spawn and join costs more than the traversal work
/// it takes off the caller. Measured with `swag_e2e` at 2 threads on a
/// 2-vCPU guest, the fanned-out wide query read 1.7–1.8× serial at
/// ≈ 8.8 k items (`fleet_ingest`), 1.14–1.21× at ≈ 35 k (`query_city`)
/// and 1.03–1.12× at ≈ 87 k (`mixed_live`): no wide query of the
/// benchmark repays a spawn there, so the threshold sits above the
/// largest (≈ 95 k), at 2¹⁷. Publish packs use it too
/// ([`crate::shard::ShardedFovIndex::bulk_insert_exec`]).
pub const PARALLEL_MIN_WORK: f64 = 131_072.0;

/// The machine's available parallelism, resolved once per process.
pub(crate) fn hw_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One priced plan: whether the index scan fans out, and the estimate
/// it was priced from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanoutDecision {
    /// Whether the shard probe fans out on scoped threads.
    pub parallel: bool,
    /// Live shards the window probes.
    pub shards: usize,
    /// Indexed items across those shards.
    pub items: usize,
    /// Selectivity-weighted items (each shard scaled by the fraction of
    /// its time bucket the window overlaps) — the cost-model input.
    pub estimated_work: f64,
    /// Threads the probe will use: the executor's clamped to the host's
    /// available parallelism, or 1 when serial.
    pub threads: usize,
}

impl FanoutDecision {
    /// Prices a `[t0, t1]` probe of `index` on `exec` under `mode`.
    pub fn decide(
        index: &ShardedFovIndex,
        t0: f64,
        t1: f64,
        exec: &Executor,
        mode: FanoutMode,
    ) -> Self {
        let est = index.estimate_probe(t0, t1);
        let workers = exec.threads().min(hw_threads());
        let eligible = est.shards >= PARALLEL_MIN_SHARDS && workers > 1;
        let parallel = match mode {
            FanoutMode::Serial => false,
            FanoutMode::Parallel => eligible,
            FanoutMode::Adaptive => eligible && est.work >= PARALLEL_MIN_WORK,
        };
        FanoutDecision {
            parallel,
            shards: est.shards,
            items: est.items,
            estimated_work: est.work,
            threads: if parallel { workers } else { 1 },
        }
    }

    /// One-line rendering for `swag explain`.
    pub(crate) fn render(&self) -> String {
        if self.parallel {
            format!(
                "parallel on {} threads ({} shards, ~{} of {} items est.)",
                self.threads, self.shards, self.estimated_work as u64, self.items
            )
        } else {
            format!(
                "serial ({} shard{}, ~{} of {} items est.)",
                self.shards,
                if self.shards == 1 { "" } else { "s" },
                self.estimated_work as u64,
                self.items
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;
    use crate::store::SegmentId;
    use swag_core::{Fov, RepFov};
    use swag_exec::{ExecConfig, Executor};
    use swag_geo::LatLon;

    fn index_with(shards: usize, per_shard: usize) -> ShardedFovIndex {
        let p = LatLon::new(40.0, 116.32);
        let items: Vec<(RepFov, SegmentId)> = (0..shards * per_shard)
            .map(|n| {
                let t0 = (n / per_shard) as f64 * 100.0 + (n % per_shard % 90) as f64;
                let rep = RepFov::new(t0, t0 + 1.0, Fov::new(p, 0.0));
                (rep, SegmentId(n as u32))
            })
            .collect();
        let mut idx = ShardedFovIndex::new(100.0, IndexKind::RTree);
        idx.bulk_insert(&items);
        idx
    }

    #[test]
    fn serial_executor_never_fans_out() {
        let idx = index_with(8, 10_000);
        let exec = Executor::serial();
        let d = FanoutDecision::decide(&idx, 0.0, 800.0, &exec, FanoutMode::Adaptive);
        assert!(!d.parallel);
        assert_eq!(d.threads, 1);
        assert_eq!(d.shards, 8);
    }

    #[test]
    fn small_probes_stay_serial_under_adaptive() {
        let idx = index_with(4, 8);
        let exec = Executor::new(ExecConfig::with_threads(4));
        let d = FanoutDecision::decide(&idx, 0.0, 400.0, &exec, FanoutMode::Adaptive);
        assert!(d.estimated_work < PARALLEL_MIN_WORK);
        assert!(!d.parallel, "{d:?}");
    }

    #[test]
    fn single_shard_probe_stays_serial_even_when_forced() {
        let idx = index_with(1, 10_000);
        let exec = Executor::new(ExecConfig::with_threads(4));
        for mode in [FanoutMode::Adaptive, FanoutMode::Parallel] {
            let d = FanoutDecision::decide(&idx, 0.0, 99.0, &exec, mode);
            assert!(!d.parallel, "{mode:?}: nothing to distribute");
        }
    }

    #[test]
    fn large_multi_shard_probes_fan_out() {
        let exec = Executor::new(ExecConfig::with_threads(2));
        // 1.5× the threshold fans out (on a multi-core host); half of it
        // does not repay a thread spawn and stays serial — the wide
        // query of a fleet-sized index is ≈ 8.8 k items.
        let per_shard = PARALLEL_MIN_WORK as usize / 4;
        let idx = index_with(6, per_shard);
        let d = FanoutDecision::decide(&idx, 0.0, 600.0, &exec, FanoutMode::Adaptive);
        assert!(d.estimated_work >= PARALLEL_MIN_WORK, "{d:?}");
        if hw_threads() > 1 {
            assert!(d.parallel, "{d:?}");
            assert!(d.threads >= 2);
        } else {
            assert!(!d.parallel, "single-core host must stay serial: {d:?}");
            assert_eq!(d.threads, 1);
        }
        let below = index_with(6, per_shard / 3);
        let b = FanoutDecision::decide(&below, 0.0, 600.0, &exec, FanoutMode::Adaptive);
        assert!(!b.parallel, "{b:?}");
        // Forcing serial overrides the cost model either way.
        let s = FanoutDecision::decide(&idx, 0.0, 600.0, &exec, FanoutMode::Serial);
        assert!(!s.parallel);
    }

    #[test]
    fn selectivity_scales_estimated_work() {
        let idx = index_with(4, 1_000);
        let exec = Executor::serial();
        // Full window sees all items; a window covering half of each
        // bucket prices roughly half the work.
        let full = FanoutDecision::decide(&idx, 0.0, 400.0, &exec, FanoutMode::Adaptive);
        let half = FanoutDecision::decide(&idx, 0.0, 150.0, &exec, FanoutMode::Adaptive);
        assert!(full.estimated_work > 3_500.0, "{full:?}");
        assert!(half.estimated_work < full.estimated_work, "{half:?}");
    }

    #[test]
    fn workers_clamp_to_available_parallelism() {
        let idx = index_with(8, 4_000);
        let exec = Executor::new(ExecConfig::with_threads(64));
        let d = FanoutDecision::decide(&idx, 0.0, 800.0, &exec, FanoutMode::Parallel);
        assert!(d.threads <= hw_threads().max(1));
    }

    #[test]
    fn render_names_the_mode() {
        let idx = index_with(2, 10);
        let d = FanoutDecision::decide(&idx, 0.0, 200.0, &Executor::serial(), FanoutMode::Serial);
        assert!(d.render().starts_with("serial"));
    }
}
