//! Stage probes: what the operator pipeline tells its observer.
//!
//! [`super::ops`] writes the pipeline once, generic over a
//! [`StageProbe`] and monomorphised per sink. [`NoProbe`] is zero-sized
//! with empty hooks and reads no clock — it *is* the disabled path, so
//! the unobserved baseline is the same code rather than a replica.
//! [`Measure`] fills one plain [`StageRecord`] per query; metrics
//! (`ServerObs::record`), the wide [`QueryEvent`](super::forensics::QueryEvent),
//! [`ColdScanMeasure`] and EXPLAIN ANALYZE are views computed from that
//! record after the pipeline returns.

use swag_obs::MonotonicClock;
use swag_rtree::SearchStats;

use super::forensics::{CacheOutcome, ColdScanMeasure};

/// The pipeline's observer. Every hook defaults to nothing, so a probe
/// implements only what it records.
pub(crate) trait StageProbe {
    /// The result cache resolved to `outcome`; `fingerprint` is the
    /// plan's, when the lookup had to compute it.
    fn cache(&mut self, _outcome: CacheOutcome, _fingerprint: Option<u64>) {}
    /// Storing this result evicted another entry.
    fn evicted(&mut self) {}
    /// The operators are about to run.
    fn begin(&mut self) {}
    /// Where the index scan accumulates traversal counters; `None`
    /// skips counting.
    fn search_stats(&mut self) -> Option<&mut SearchStats> {
        None
    }
    /// The index scan probed `shards` live shards and matched `rows_out`.
    fn index_scanned(&mut self, _shards: usize, _rows_out: usize) {}
    /// Called only on servers that hold cold runs.
    fn cold_scanned(&mut self, _rows_in: u64, _hits: usize) {}
    /// Index-tier filter survivors, and rows left after top-k.
    fn ranked(&mut self, _hits_index: usize, _rows_out: usize) {}
    /// Accounting closed at `t_done` (the engine's own clock read) as
    /// the `seq`-th query this server answered.
    fn done(&mut self, _t0: u64, _t_done: u64, _seq: u64) {}
}

/// The disabled path: no state, no clock.
pub(crate) struct NoProbe;

impl StageProbe for NoProbe {}

const _: () = assert!(std::mem::size_of::<NoProbe>() == 0);

/// Wall time and row flow of one operator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OpMeasure {
    pub(crate) micros: u64,
    pub(crate) rows_in: u64,
    pub(crate) rows_out: u64,
}

/// Everything one measured plan execution recorded.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageRecord {
    pub(crate) cache: CacheOutcome,
    /// The plan fingerprint, when the cache lookup computed it (saves
    /// the event view hashing the plan a second time).
    pub(crate) fingerprint: Option<u64>,
    pub(crate) evicted: bool,
    /// Live shards the index scan probed; `None` when no operator ran
    /// (cache hit).
    pub(crate) shards: Option<usize>,
    /// Index traversal counters.
    pub(crate) search: SearchStats,
    pub(crate) index: OpMeasure,
    /// `Some` whenever the server holds cold runs, even if zone maps
    /// pruned every one of them.
    pub(crate) cold: Option<ColdScanMeasure>,
    pub(crate) rank: OpMeasure,
    pub(crate) hits_index: u64,
    pub(crate) total_micros: u64,
    pub(crate) end_micros: u64,
    pub(crate) seq: u64,
}

/// The measuring probe: reads the clock at every stage boundary.
pub(crate) struct Measure<'a> {
    clock: &'a dyn MonotonicClock,
    /// The previous stage boundary.
    mark: u64,
    pub(crate) rec: StageRecord,
}

impl<'a> Measure<'a> {
    pub(crate) fn new(clock: &'a dyn MonotonicClock) -> Self {
        Measure {
            clock,
            mark: 0,
            rec: StageRecord::default(),
        }
    }

    /// Micros since the previous boundary; the boundary moves to now.
    fn lap(&mut self) -> u64 {
        let now = self.clock.now_micros();
        let dt = now - self.mark;
        self.mark = now;
        dt
    }
}

impl StageProbe for Measure<'_> {
    fn cache(&mut self, outcome: CacheOutcome, fingerprint: Option<u64>) {
        self.rec.cache = outcome;
        self.rec.fingerprint = fingerprint;
    }

    fn evicted(&mut self) {
        self.rec.evicted = true;
    }

    fn begin(&mut self) {
        self.mark = self.clock.now_micros();
    }

    fn search_stats(&mut self) -> Option<&mut SearchStats> {
        Some(&mut self.rec.search)
    }

    fn index_scanned(&mut self, shards: usize, rows_out: usize) {
        self.rec.shards = Some(shards);
        self.rec.index = OpMeasure {
            micros: self.lap(),
            rows_in: self.rec.search.items_tested,
            rows_out: rows_out as u64,
        };
    }

    fn cold_scanned(&mut self, rows_in: u64, hits: usize) {
        self.rec.cold = Some(ColdScanMeasure {
            micros: self.lap(),
            rows_in,
            hits: hits as u64,
        });
    }

    fn ranked(&mut self, hits_index: usize, rows_out: usize) {
        self.rec.hits_index = hits_index as u64;
        self.rec.rank.rows_in = self.rec.index.rows_out;
        self.rec.rank.rows_out = rows_out as u64;
    }

    fn done(&mut self, t0: u64, t_done: u64, seq: u64) {
        if self.rec.shards.is_some() {
            // Ranking is the last operator: it ends where the engine
            // read `t_done`, so the stage costs no clock read of its own.
            self.rec.rank.micros = t_done - self.mark;
        }
        self.rec.total_micros = t_done - t0;
        self.rec.end_micros = t_done;
        self.rec.seq = seq;
    }
}
