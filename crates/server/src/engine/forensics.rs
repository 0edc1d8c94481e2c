//! Query forensics: EXPLAIN ANALYZE, the wide-event query log, and
//! replayable capture.
//!
//! Three layers share one data model, the [`QueryEvent`] — a fixed
//! 32-word record of everything one query did: the plan fingerprint and
//! the full request (bit-exact, so a capture replays byte-identically),
//! the epoch stamp it executed against, the concrete cache decision and
//! the shards probed, per-operator wall time and rows in/out, the index hit
//! count, total latency, and an order-sensitive FNV digest of the result
//! set.
//!
//! * **EXPLAIN ANALYZE** (`Engine::query_analyzed`, in
//!   [`super::analyze`]) runs the one operator pipeline under the
//!   measuring probe and renders the plan tree annotated with what
//!   actually happened.
//! * The **wide-event log** ([`QueryEventLog`]) records one event per
//!   executed plan into per-thread lock-free seqlock rings
//!   (`swag-obs::EventLog`), with a tail-sampling policy: queries at or
//!   over `slow_micros` are always kept — the server's one slow-query
//!   policy — and ordinary traffic probabilistically.
//!   Disabled (the default),
//!   the query path pays one `Option` branch — no clock reads.
//! * **Replay**: a kept event carries the query, its options, and the
//!   epoch stamp, so `swag replay` can re-execute it under `--analyze`
//!   against a rebuilt engine and diff the result digest.
//!
//! This module holds the data model; the views over a measured
//! execution and the annotated-report rendering live in
//! [`super::analyze`].

use swag_obs::{EventClass, EventLog, EventLogStats};

use crate::query::{Query, QueryOptions, RankMode};
use crate::ranking::SearchHit;

use super::epoch::Epoch;
use super::plan::QueryPlan;

pub use super::analyze::{AnalyzeReport, AnalyzedQuery, ColdScanMeasure};

/// Words per encoded [`QueryEvent`].
pub const QUERY_EVENT_WORDS: usize = 32;

/// Per-thread ring capacity (recent events, sampled or not).
const EVENT_RING_CAPACITY: usize = 1024;

/// Event-log tuning, part of [`ServerConfig`](crate::server::ServerConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventLogConfig {
    /// Master switch; disabled (the default) the query path pays one
    /// load-and-branch and reads no clock for forensics.
    pub enabled: bool,
    /// Bound on the tail-sampled kept log.
    pub kept_capacity: usize,
    /// Fraction (out of 1000) of ordinary events the tail sampler keeps;
    /// slow events are always kept.
    pub keep_per_mille: u32,
    /// Latency at or above which an event is "slow" and always kept.
    /// `0` means no event is always kept: all are sampled.
    pub slow_micros: u64,
    /// Sampler seed, so a capture run is reproducible.
    pub seed: u64,
}

impl Default for EventLogConfig {
    fn default() -> Self {
        EventLogConfig {
            enabled: false,
            kept_capacity: 256,
            keep_per_mille: 100,
            slow_micros: 0,
            seed: 0,
        }
    }
}

impl EventLogConfig {
    /// A sensible enabled configuration (the CLI live stack uses this).
    pub fn enabled(slow_micros: u64, seed: u64) -> Self {
        EventLogConfig {
            enabled: true,
            slow_micros,
            seed,
            ..EventLogConfig::default()
        }
    }
}

/// What the result cache did for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheOutcome {
    /// No cache configured.
    #[default]
    Off,
    /// Plan spans too many shard buckets to be cacheable.
    Ineligible,
    /// Looked up, absent or invalidated — executed and stored.
    Miss,
    /// Served from the cache; no operators ran.
    Hit,
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheOutcome::Off => write!(f, "off"),
            CacheOutcome::Ineligible => write!(f, "ineligible"),
            CacheOutcome::Miss => write!(f, "miss"),
            CacheOutcome::Hit => write!(f, "hit"),
        }
    }
}

/// One query's wide event. All-numeric and `Copy` so it encodes to a
/// fixed `[u64; QUERY_EVENT_WORDS]` for the lock-free ring; float fields
/// round-trip bit-exactly (replay depends on it).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryEvent {
    /// Canonical plan fingerprint (the result-cache key).
    pub fingerprint: u64,
    // The request, bit-exact.
    pub t_start: f64,
    pub t_end: f64,
    pub lat: f64,
    pub lng: f64,
    pub radius_m: f64,
    pub top_n: u64,
    pub direction_filter: bool,
    pub direction_tolerance_deg: f64,
    pub require_coverage: bool,
    pub rank: RankMode,
    pub cache: CacheOutcome,
    /// Live shards the index scan probed (zero when no operator ran).
    pub shards_probed: u64,
    // Epoch stamp the query executed against.
    pub global_gen: u64,
    // Per-operator measurements (zero on cache hits).
    pub index_micros: u64,
    pub index_rows_in: u64,
    pub index_rows_out: u64,
    /// Always 0: the pending-delta tier this counted is gone, and its
    /// word is reserved. The field stays for callers that still read it.
    pub delta_rows_in: u64,
    pub rank_micros: u64,
    pub rank_rows_in: u64,
    pub rank_rows_out: u64,
    pub hits_index: u64,
    // Outcome.
    pub total_micros: u64,
    pub hit_count: u64,
    /// Order-sensitive FNV-1a digest of the result set.
    pub digest: u64,
    /// Engine-clock time the query completed (ring ordering key).
    pub end_micros: u64,
}

impl QueryEvent {
    /// The event of `plan` (whose fingerprint the caller has) against
    /// `epoch` before anything ran: the request and the stamp filled in,
    /// cache off, every decision and measurement zero.
    pub(crate) fn new(plan: &QueryPlan, epoch: &Epoch, fingerprint: u64) -> Self {
        QueryEvent {
            fingerprint,
            t_start: plan.query().t_start,
            t_end: plan.query().t_end,
            lat: plan.query().center.lat,
            lng: plan.query().center.lng,
            radius_m: plan.query().radius_m,
            top_n: plan.k as u64,
            direction_filter: plan.filters().direction_tolerance_deg.is_some(),
            direction_tolerance_deg: plan.filters().direction_tolerance_deg.unwrap_or(0.0),
            require_coverage: plan.filters().require_coverage,
            rank: plan.rank,
            global_gen: epoch.stamp.global_gen,
            ..QueryEvent::default()
        }
    }

    /// Packs the event into its fixed word array. Flag bits 4–5
    /// (outcome) and 8, and word 16, are reserved: builds that had
    /// admission control wrote a shed reason and a token balance there.
    /// Words 10, 11, 20–22 and 27 are reserved too: builds with a
    /// pending-delta tier wrote its generation, length, scan micros and
    /// rows, and delta hits there. So are flag bit 3 and words 13–15:
    /// builds with a parallel shard probe wrote its fan-out flag, the
    /// probed items, the estimated work and the thread count there.
    /// Reserved bits and words are written as zero, so either build reads
    /// the other's captures.
    pub fn encode(&self) -> [u64; QUERY_EVENT_WORDS] {
        let mut flags = 0u64;
        flags |= u64::from(self.direction_filter);
        flags |= u64::from(self.require_coverage) << 1;
        flags |= u64::from(matches!(self.rank, RankMode::Quality)) << 2;
        flags |= (match self.cache {
            CacheOutcome::Off => 0u64,
            CacheOutcome::Ineligible => 1,
            CacheOutcome::Miss => 2,
            CacheOutcome::Hit => 3,
        }) << 6;
        [
            self.fingerprint,
            flags,
            self.t_start.to_bits(),
            self.t_end.to_bits(),
            self.lat.to_bits(),
            self.lng.to_bits(),
            self.radius_m.to_bits(),
            self.top_n,
            self.direction_tolerance_deg.to_bits(),
            self.global_gen,
            0,
            0,
            self.shards_probed,
            0,
            0,
            0,
            0,
            self.index_micros,
            self.index_rows_in,
            self.index_rows_out,
            0,
            0,
            0,
            self.rank_micros,
            self.rank_rows_in,
            self.rank_rows_out,
            self.hits_index,
            0,
            self.total_micros,
            self.hit_count,
            self.digest,
            self.end_micros,
        ]
    }

    /// Unpacks an encoded event. Fails on the wrong width, and on a
    /// shed event (outcome bits set), which has no result to replay.
    /// Reserved bits 3 and 8 and words 10, 11, 13–16, 20–22 and 27 are
    /// ignored.
    pub fn decode(words: &[u64]) -> Result<Self, EventDecodeError> {
        if words.len() != QUERY_EVENT_WORDS {
            return Err(EventDecodeError::Malformed(format!(
                "bad event encoding ({} words, want {QUERY_EVENT_WORDS})",
                words.len()
            )));
        }
        let flags = words[1];
        if (flags >> 4) & 0b11 != 0 {
            return Err(EventDecodeError::Shed);
        }
        let cache = match (flags >> 6) & 0b11 {
            0 => CacheOutcome::Off,
            1 => CacheOutcome::Ineligible,
            2 => CacheOutcome::Miss,
            _ => CacheOutcome::Hit,
        };
        Ok(QueryEvent {
            fingerprint: words[0],
            direction_filter: flags & 1 != 0,
            require_coverage: flags & 2 != 0,
            rank: if flags & 4 != 0 {
                RankMode::Quality
            } else {
                RankMode::Distance
            },
            cache,
            t_start: f64::from_bits(words[2]),
            t_end: f64::from_bits(words[3]),
            lat: f64::from_bits(words[4]),
            lng: f64::from_bits(words[5]),
            radius_m: f64::from_bits(words[6]),
            top_n: words[7],
            direction_tolerance_deg: f64::from_bits(words[8]),
            global_gen: words[9],
            shards_probed: words[12],
            index_micros: words[17],
            index_rows_in: words[18],
            index_rows_out: words[19],
            delta_rows_in: 0,
            rank_micros: words[23],
            rank_rows_in: words[24],
            rank_rows_out: words[25],
            hits_index: words[26],
            total_micros: words[28],
            hit_count: words[29],
            digest: words[30],
            end_micros: words[31],
        })
    }

    /// Reconstructs the request this event recorded, bit-exact.
    pub fn query(&self) -> Query {
        Query {
            t_start: self.t_start,
            t_end: self.t_end,
            center: swag_geo::LatLon {
                lat: self.lat,
                lng: self.lng,
            },
            radius_m: self.radius_m,
        }
    }

    /// Reconstructs the request options this event recorded.
    pub fn options(&self) -> QueryOptions {
        QueryOptions {
            top_n: self.top_n as usize,
            direction_filter: self.direction_filter,
            direction_tolerance_deg: self.direction_tolerance_deg,
            require_coverage: self.require_coverage,
            rank: self.rank,
        }
    }

    /// One-line JSON: the exact word array (the replayable payload)
    /// plus a human-readable summary. `from_json` round-trips through
    /// the words only, so floats survive bit-exactly.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let words = self.encode();
        let mut s = String::with_capacity(640);
        s.push_str("{\"v\":1,\"words\":[");
        for (i, w) in words.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{w}");
        }
        let _ = write!(
            s,
            "],\"fingerprint\":\"{:#018x}\",\"cache\":\"{}\",\"latency_us\":{},\"hits\":{},\"digest\":\"{:#018x}\"}}",
            self.fingerprint, self.cache, self.total_micros, self.hit_count, self.digest
        );
        s
    }

    /// Parses a [`Self::to_json`] line (only the `words` array is read).
    pub fn from_json(line: &str) -> Result<Self, EventDecodeError> {
        let malformed = |m: &str| EventDecodeError::Malformed(m.to_string());
        let start = line
            .find("\"words\":[")
            .ok_or_else(|| malformed("no \"words\" array in event line"))?
            + "\"words\":[".len();
        let end = line[start..]
            .find(']')
            .ok_or_else(|| malformed("unterminated \"words\" array"))?
            + start;
        let words: Vec<u64> = line[start..end]
            .split(',')
            .map(|w| {
                w.trim()
                    .parse::<u64>()
                    .map_err(|e| malformed(&e.to_string()))
            })
            .collect::<Result<_, _>>()?;
        QueryEvent::decode(&words)
    }
}

/// Why a word array or capture line is not a [`QueryEvent`].
#[derive(Debug, Clone)]
pub enum EventDecodeError {
    /// Wrong width, or a capture line without a parsable `words` array.
    Malformed(String),
    /// A query shed by the admission control older builds had: it ran
    /// nothing and has no result to replay.
    Shed,
}

impl std::fmt::Display for EventDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventDecodeError::Malformed(m) => f.write_str(m),
            EventDecodeError::Shed => f.write_str("shed event: admission control was removed"),
        }
    }
}

impl std::error::Error for EventDecodeError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Order-sensitive FNV-1a digest over every field of every hit. Two
/// result sets digest equal iff they are byte-identical in order — the
/// replay equivalence check.
pub fn result_digest(hits: &[SearchHit]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    };
    for hit in hits {
        eat(u64::from(hit.id.0));
        eat(hit.source.provider_id);
        eat(hit.source.video_id);
        eat(u64::from(hit.source.segment_idx));
        eat(hit.rep.t_start.to_bits());
        eat(hit.rep.t_end.to_bits());
        eat(hit.rep.fov.p.lat.to_bits());
        eat(hit.rep.fov.p.lng.to_bits());
        eat(hit.rep.fov.theta.to_bits());
        eat(hit.distance_m.to_bits());
        eat(hit.quality.to_bits());
    }
    h
}

/// The engine's wide-event log: classification policy over the generic
/// `swag-obs` event ring.
pub struct QueryEventLog {
    log: EventLog,
    slow_micros: u64,
}

impl QueryEventLog {
    pub(crate) fn new(cfg: EventLogConfig) -> Self {
        QueryEventLog {
            log: EventLog::new(
                QUERY_EVENT_WORDS,
                EVENT_RING_CAPACITY,
                cfg.kept_capacity,
                cfg.keep_per_mille,
                cfg.seed,
            ),
            slow_micros: cfg.slow_micros,
        }
    }

    /// Pauses/resumes recording (for warm-up phases of a capture run).
    pub fn set_enabled(&self, on: bool) {
        self.log.set_enabled(on);
    }

    /// Whether events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.log.is_enabled()
    }

    /// The always-keep latency threshold.
    pub fn slow_micros(&self) -> u64 {
        self.slow_micros
    }

    /// Records one event; over-threshold-slow events are always-keep
    /// class. Returns whether the event was retained.
    pub(crate) fn record(&self, ev: &QueryEvent) -> bool {
        let class = if self.slow_micros > 0 && ev.total_micros >= self.slow_micros {
            EventClass::Always
        } else {
            EventClass::Sampled
        };
        self.log.record(&ev.encode(), class)
    }

    /// The tail-sampled kept events, oldest first.
    pub fn kept(&self) -> Vec<QueryEvent> {
        self.log
            .kept()
            .iter()
            .filter_map(|w| QueryEvent::decode(w).ok())
            .collect()
    }

    /// Every event still in the rings, ordered by completion time.
    pub fn recent(&self) -> Vec<QueryEvent> {
        let mut evs: Vec<QueryEvent> = self
            .log
            .recent()
            .iter()
            .filter_map(|w| QueryEvent::decode(w).ok())
            .collect();
        evs.sort_by_key(|e| e.end_micros);
        evs
    }

    /// Retention counters.
    pub fn stats(&self) -> EventLogStats {
        self.log.stats()
    }

    /// Drops recorded events (counters survive).
    pub fn clear(&self) {
        self.log.clear();
    }
}
