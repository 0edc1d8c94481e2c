//! Views over one measured execution: the wide event, the event log
//! emission, and EXPLAIN ANALYZE with its annotated-report rendering.
//!
//! The event *data model* (the 32-word [`QueryEvent`], its wire format,
//! the tail-sampling [`QueryEventLog`](super::forensics::QueryEventLog))
//! lives in [`super::forensics`]. Nothing here executes operators:
//! `query_analyzed` drives the one pipeline in [`super::ops`] under the
//! measuring probe and reads everything it reports off the resulting
//! [`StageRecord`], so an analyzed run cannot differ from a plain one.

use crate::query::{Query, QueryOptions};
use crate::ranking::SearchHit;

use super::epoch::Epoch;
use super::forensics::{result_digest, CacheOutcome, QueryEvent};
use super::plan::{QueryPlan, OP_COLD_SCAN, OP_INDEX_SCAN, OP_QUERY, OP_RANKING};
use super::probe::StageRecord;
use super::Engine;

/// What the cold-tier scan measured during one execution.
///
/// Kept out of [`QueryEvent`] so the wide-event wire format (a pinned
/// 32-word layout) is untouched by the durability layer; EXPLAIN
/// ANALYZE carries it alongside instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColdScanMeasure {
    /// Wall time spent scanning cold runs.
    pub micros: u64,
    /// Records read across all overlapping cold runs.
    pub rows_in: u64,
    /// Hits the cold scan contributed after filtering.
    pub hits: u64,
}

/// The annotated output of one analyzed execution.
pub struct AnalyzeReport {
    /// Everything measured, as the wide event records it.
    pub event: QueryEvent,
    /// Cold-tier scan measurements, when demoted shards were reachable.
    pub cold: Option<ColdScanMeasure>,
    /// The resolved plan listing (`swag explain` format) the
    /// annotations attach to.
    pub plan_text: String,
}

impl AnalyzeReport {
    /// Renders the annotated plan tree: the resolved plan, the epoch
    /// stamp it executed against, and the measured pipeline —
    /// per-operator wall time and rows in/out under the same `OP_*`
    /// names `explain` and the per-operator metrics use.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let e = &self.event;
        let mut out = String::with_capacity(self.plan_text.len() + 512);
        out.push_str("EXPLAIN ANALYZE\n");
        out.push_str(&self.plan_text);
        let _ = writeln!(out, "  stamp   : global_gen {}", e.global_gen);
        let _ = writeln!(
            out,
            "  measured: {OP_QUERY} {} us total, {} hits, digest {:#018x}",
            e.total_micros, e.hit_count, e.digest
        );
        if e.cache == CacheOutcome::Hit {
            let _ = writeln!(
                out,
                "    (served from the result cache — operators skipped)"
            );
            return out;
        }
        let _ = writeln!(
            out,
            "    ├─ {OP_INDEX_SCAN:<11} {:>6} us   rows {} -> {}   ({} shard probe{})",
            e.index_micros,
            e.index_rows_in,
            e.index_rows_out,
            e.shards_probed,
            if e.shards_probed == 1 { "" } else { "s" },
        );
        if let Some(cold) = &self.cold {
            let _ = writeln!(
                out,
                "    ├─ {OP_COLD_SCAN:<11} {:>6} us   rows {} -> {}",
                cold.micros, cold.rows_in, cold.hits
            );
        }
        let cold_hits_note = self
            .cold
            .map_or(String::new(), |c| format!(" + {} cold", c.hits));
        let _ = writeln!(
            out,
            "    └─ {OP_RANKING:<11} {:>6} us   rows {} -> {}   (hits: {} index{})",
            e.rank_micros, e.rank_rows_in, e.rank_rows_out, e.hits_index, cold_hits_note
        );
        out
    }
}

/// Result of [`CloudServer::query_analyzed`](crate::server::CloudServer::query_analyzed):
/// the hits (byte-identical to an unanalyzed run) plus the annotated
/// report.
pub struct AnalyzedQuery {
    pub hits: Vec<SearchHit>,
    pub report: AnalyzeReport,
}

impl StageRecord {
    /// The wide-event view of this execution of `plan` against `epoch`,
    /// which returned `hits`.
    pub(crate) fn event(&self, plan: &QueryPlan, epoch: &Epoch, hits: &[SearchHit]) -> QueryEvent {
        let fingerprint = self.fingerprint.unwrap_or_else(|| plan.fingerprint());
        let mut ev = QueryEvent::new(plan, epoch, fingerprint);
        ev.cache = self.cache;
        ev.shards_probed = self.shards.unwrap_or(0) as u64;
        ev.index_micros = self.index.micros;
        ev.index_rows_in = self.index.rows_in;
        ev.index_rows_out = self.index.rows_out;
        ev.rank_micros = self.rank.micros;
        ev.rank_rows_in = self.rank.rows_in;
        ev.rank_rows_out = self.rank.rows_out;
        ev.hits_index = self.hits_index;
        ev.total_micros = self.total_micros;
        ev.hit_count = hits.len() as u64;
        ev.digest = result_digest(hits);
        ev.end_micros = self.end_micros;
        ev
    }
}

impl Engine {
    /// Records `ev` into the event log (when present) and bumps the
    /// pushed/kept counters.
    pub(crate) fn emit_event(&self, ev: &QueryEvent) {
        if let Some(events) = &self.events {
            let kept = events.record(ev);
            if let Some(obs) = &self.obs {
                obs.events_pushed.inc();
                if kept {
                    obs.events_kept.inc();
                }
            }
        }
    }

    /// EXPLAIN ANALYZE: executes the query through the pipeline under
    /// the measuring probe and returns the hits plus the annotated report.
    /// Emits a wide event like any other query when the log is enabled.
    pub(crate) fn query_analyzed(&self, query: &Query, opts: &QueryOptions) -> AnalyzedQuery {
        let t0 = self.clock.now_micros();
        let epoch = self.epoch.read().clone();
        let plan = QueryPlan::compile(query, opts);
        let (hits, rec) = self.execute_measured(&epoch, t0, &plan);
        let event = rec.event(&plan, &epoch, &hits);
        self.emit_event(&event);
        // The normal `explain` body, its cache line replaced by what this
        // execution concretely decided.
        AnalyzedQuery {
            hits,
            report: AnalyzeReport {
                plan_text: self.explain_plan(&plan, &epoch, Some(rec.cache)),
                event,
                cold: rec.cold,
            },
        }
    }
}
