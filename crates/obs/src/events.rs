//! Wide-event log: a lock-free ring of fixed-width structured events
//! plus a tail-sampling retention policy.
//!
//! A **wide event** is one record per unit of work (here: one per query)
//! carrying everything an operator needs to debug that unit after the
//! fact — identifiers, decisions, measurements, outcome — encoded as a
//! fixed number of `u64` words so recording never allocates and slots
//! can be plain relaxed atomics (race-free by construction; the seqlock
//! only has to provide *consistency*).
//!
//! Two retention tiers:
//!
//! * the **ring** keeps the recent past of *every* event, per recording
//!   thread, overwriting oldest-first — cheap enough to be always on
//!   while the log is enabled;
//! * the **kept log** holds the events the [`TailSampler`] decided to
//!   retain: tail sampling keeps every event of an always-keep class
//!   (errors, over-threshold latency — the caller classifies) and a
//!   deterministic per-mille fraction of the rest, so anomalies are
//!   never lost while steady-state traffic is cheaply represented.
//!
//! When the log is disabled (or absent — callers hold an `Option`),
//! recording costs one relaxed load and a branch; no clock is read.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Why an event is offered to the sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Tail-sampling invariant class: errors, over-threshold latency.
    /// Always retained.
    Always,
    /// Ordinary traffic: retained at the sampler's per-mille rate.
    Sampled,
}

/// The tail-sampling policy: always-keep classes pass unconditionally,
/// the rest pass at `keep_per_mille` out of 1000, decided by a seeded
/// counter-based generator so a captured run is reproducible.
pub struct TailSampler {
    keep_per_mille: u32,
    /// Draw counter; each decision mixes the next value (splitmix64),
    /// so the decision *sequence* is deterministic for a given seed
    /// regardless of which thread takes which draw.
    state: AtomicU64,
}

impl TailSampler {
    /// A sampler keeping `keep_per_mille`/1000 of sampled-class events,
    /// seeded for reproducible runs.
    pub fn new(keep_per_mille: u32, seed: u64) -> Self {
        TailSampler {
            keep_per_mille: keep_per_mille.min(1000),
            state: AtomicU64::new(seed),
        }
    }

    /// Whether an event of `class` is retained.
    pub fn keep(&self, class: EventClass) -> bool {
        match class {
            EventClass::Always => true,
            EventClass::Sampled => {
                if self.keep_per_mille >= 1000 {
                    return true;
                }
                if self.keep_per_mille == 0 {
                    return false;
                }
                // splitmix64 over a golden-ratio counter: well mixed,
                // wait-free, identical sequence for identical seeds.
                let mut x = self
                    .state
                    .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
                x ^= x >> 30;
                x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^= x >> 31;
                (x % 1000) < u64::from(self.keep_per_mille)
            }
        }
    }
}

/// One thread's bounded ring of `width`-word events. Written only by the
/// owning thread; readable from any thread through per-slot seqlocks.
struct WordRing {
    width: usize,
    /// Events ever pushed; the slot index is `head % capacity`.
    head: AtomicU64,
    /// Events below this index are logically cleared.
    floor: AtomicU64,
    seqs: Box<[AtomicU64]>,
    words: Box<[AtomicU64]>,
}

impl WordRing {
    fn new(capacity: usize, width: usize) -> Self {
        let capacity = capacity.max(2);
        WordRing {
            width,
            head: AtomicU64::new(0),
            floor: AtomicU64::new(0),
            seqs: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            words: (0..capacity * width).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Appends one event. Must only be called by the owning thread.
    fn push(&self, ev: &[u64]) {
        debug_assert_eq!(ev.len(), self.width);
        let h = self.head.load(Ordering::Relaxed);
        let slot = (h % self.seqs.len() as u64) as usize;
        let seq = self.seqs[slot].load(Ordering::Relaxed);
        self.seqs[slot].store(seq.wrapping_add(1), Ordering::Relaxed); // odd: in progress
        fence(Ordering::Release);
        for (k, &w) in ev.iter().enumerate() {
            self.words[slot * self.width + k].store(w, Ordering::Relaxed);
        }
        fence(Ordering::Release);
        self.seqs[slot].store(seq.wrapping_add(2), Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Copies every stable retained event into `out`, skipping slots the
    /// owner is concurrently rewriting.
    fn read_into(&self, out: &mut Vec<Box<[u64]>>) {
        let head = self.head.load(Ordering::Acquire);
        let floor = self.floor.load(Ordering::Acquire);
        let cap = self.seqs.len() as u64;
        let oldest = head.saturating_sub(cap).max(floor);
        for i in oldest..head {
            let slot = (i % cap) as usize;
            let s1 = self.seqs[slot].load(Ordering::Acquire);
            if s1 & 1 == 1 {
                continue; // mid-write
            }
            let mut ev = vec![0u64; self.width];
            for (k, w) in ev.iter_mut().enumerate() {
                *w = self.words[slot * self.width + k].load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if self.seqs[slot].load(Ordering::Relaxed) != s1 {
                continue; // overwritten while reading
            }
            out.push(ev.into_boxed_slice());
        }
    }
}

/// Event-log ids are process-global so the thread-local ring cache can
/// tell logs apart even across drop/re-create cycles.
static NEXT_LOG: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's event rings, one per log it has recorded to.
    static EVENT_RINGS: RefCell<Vec<(u64, Arc<WordRing>)>> = const { RefCell::new(Vec::new()) };
}

/// Retention counters of an [`EventLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventLogStats {
    /// Events recorded into the ring while enabled.
    pub pushed: u64,
    /// Events the tail sampler retained into the kept log.
    pub kept: u64,
}

/// The wide-event log: per-thread rings of recent events plus the
/// tail-sampled kept log.
pub struct EventLog {
    id: u64,
    enabled: AtomicBool,
    width: usize,
    capacity: usize,
    /// Every ring ever registered, so reads see threads that have died.
    rings: Mutex<Vec<Arc<WordRing>>>,
    sampler: TailSampler,
    kept: Mutex<VecDeque<Box<[u64]>>>,
    kept_capacity: usize,
    pushed: AtomicU64,
    kept_total: AtomicU64,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("enabled", &self.is_enabled())
            .field("width", &self.width)
            .field("capacity", &self.capacity)
            .field("kept_capacity", &self.kept_capacity)
            .finish_non_exhaustive()
    }
}

impl EventLog {
    /// An enabled log of `width`-word events: per-thread rings of
    /// `capacity` events, a kept log bounded at `kept_capacity`, and a
    /// tail sampler keeping `keep_per_mille`/1000 of sampled-class
    /// events (seeded, so capture runs reproduce).
    pub fn new(
        width: usize,
        capacity: usize,
        kept_capacity: usize,
        keep_per_mille: u32,
        seed: u64,
    ) -> Self {
        EventLog {
            id: NEXT_LOG.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(true),
            width,
            capacity,
            rings: Mutex::new(Vec::new()),
            sampler: TailSampler::new(keep_per_mille, seed),
            kept: Mutex::new(VecDeque::new()),
            kept_capacity: kept_capacity.max(1),
            pushed: AtomicU64::new(0),
            kept_total: AtomicU64::new(0),
        }
    }

    /// Words per event.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Pauses/resumes recording (the log object stays queryable). A
    /// disabled log's [`Self::record`] is one relaxed load and a branch.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether events are currently being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one event. Returns whether the tail sampler retained it
    /// into the kept log (always `false` while disabled).
    pub fn record(&self, ev: &[u64], class: EventClass) -> bool {
        if !self.is_enabled() {
            return false;
        }
        assert_eq!(ev.len(), self.width, "event width mismatch");
        EVENT_RINGS.with(|cell| {
            let mut rings = cell.borrow_mut();
            if let Some((_, ring)) = rings.iter().find(|(id, _)| *id == self.id) {
                ring.push(ev);
            } else {
                let ring = Arc::new(WordRing::new(self.capacity, self.width));
                self.rings
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(ring.clone());
                ring.push(ev);
                rings.push((self.id, ring));
            }
        });
        self.pushed.fetch_add(1, Ordering::Relaxed);
        if !self.sampler.keep(class) {
            return false;
        }
        let mut kept = self.kept.lock().unwrap_or_else(|e| e.into_inner());
        if kept.len() >= self.kept_capacity {
            kept.pop_front();
        }
        kept.push_back(ev.to_vec().into_boxed_slice());
        self.kept_total.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Every event still present in the rings (unordered across
    /// threads; callers sort by an embedded timestamp word). Torn slots
    /// are skipped, never waited on.
    pub fn recent(&self) -> Vec<Box<[u64]>> {
        let rings = self.rings.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut out = Vec::new();
        for ring in rings {
            ring.read_into(&mut out);
        }
        out
    }

    /// The tail-sampled kept events, oldest first.
    pub fn kept(&self) -> Vec<Box<[u64]>> {
        self.kept
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Retention counters.
    pub fn stats(&self) -> EventLogStats {
        EventLogStats {
            pushed: self.pushed.load(Ordering::Relaxed),
            kept: self.kept_total.load(Ordering::Relaxed),
        }
    }

    /// Drops ring contents and the kept log (counters are preserved).
    pub fn clear(&self) {
        for ring in self.rings.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            ring.floor
                .store(ring.head.load(Ordering::Acquire), Ordering::Release);
        }
        self.kept.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(width: usize, tag: u64) -> Vec<u64> {
        (0..width as u64)
            .map(|k| tag.wrapping_mul(31) ^ k)
            .collect()
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = EventLog::new(4, 8, 8, 1000, 7);
        log.set_enabled(false);
        assert!(!log.record(&ev(4, 1), EventClass::Always));
        assert!(log.recent().is_empty());
        assert!(log.kept().is_empty());
        assert_eq!(log.stats(), EventLogStats::default());
    }

    #[test]
    fn ring_stays_bounded_and_keeps_newest() {
        let log = EventLog::new(2, 8, 64, 1000, 7);
        for i in 0..50u64 {
            log.record(&[i, i ^ 0xabcd], EventClass::Sampled);
        }
        let recent = log.recent();
        assert!(
            recent.len() <= 8,
            "ring must stay bounded: {}",
            recent.len()
        );
        // The survivors are exactly the newest pushes, in order.
        let first: Vec<u64> = recent.iter().map(|e| e[0]).collect();
        assert_eq!(first, (42..50).collect::<Vec<u64>>());
        // Every survivor is internally consistent (no torn words).
        for e in &recent {
            assert_eq!(e[1], e[0] ^ 0xabcd);
        }
    }

    #[test]
    fn kept_log_is_bounded_and_evicts_oldest() {
        let log = EventLog::new(1, 16, 4, 1000, 7);
        for i in 0..9u64 {
            assert!(log.record(&[i], EventClass::Always));
        }
        let kept: Vec<u64> = log.kept().iter().map(|e| e[0]).collect();
        assert_eq!(kept, vec![5, 6, 7, 8]);
        assert_eq!(log.stats().kept, 9);
    }

    #[test]
    fn always_class_survives_zero_sampling() {
        let log = EventLog::new(1, 16, 16, 0, 7);
        assert!(log.record(&[1], EventClass::Always));
        assert!(!log.record(&[2], EventClass::Sampled));
        assert_eq!(log.kept().len(), 1);
    }

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let a = TailSampler::new(250, 42);
        let b = TailSampler::new(250, 42);
        let draws_a: Vec<bool> = (0..200).map(|_| a.keep(EventClass::Sampled)).collect();
        let draws_b: Vec<bool> = (0..200).map(|_| b.keep(EventClass::Sampled)).collect();
        assert_eq!(draws_a, draws_b);
        let kept = draws_a.iter().filter(|&&k| k).count();
        assert!(
            (20..=80).contains(&kept),
            "250/1000 of 200 draws should keep roughly 50, kept {kept}"
        );
    }

    #[test]
    fn concurrent_readers_never_see_torn_events() {
        let log = Arc::new(EventLog::new(3, 16, 8, 0, 7));
        let writer = {
            let log = log.clone();
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    log.record(&[i, i.wrapping_mul(3), i ^ u64::MAX], EventClass::Sampled);
                }
            })
        };
        for _ in 0..200 {
            for e in log.recent() {
                assert_eq!(e[1], e[0].wrapping_mul(3), "torn event: {e:?}");
                assert_eq!(e[2], e[0] ^ u64::MAX, "torn event: {e:?}");
            }
        }
        writer.join().expect("writer thread must not panic");
    }

    mod ring_wrap {
        use super::*;
        use proptest::prelude::*;

        /// Third word derived from the first two; a slot mixing words of
        /// two events breaks this relation (torn read).
        fn check(writer: u64, seq: u64) -> u64 {
            (writer ^ seq).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Wrapping the per-thread rings under concurrent writers and
            /// a racing reader never surfaces a torn event, and evicts
            /// oldest-first: each writer's ring ends holding exactly its
            /// newest `min(pushed, capacity)` events, in push order.
            #[test]
            fn wrapped_rings_evict_oldest_and_never_tear(
                capacity in 2usize..24,
                writers in 1u64..=3,
                per_writer in 4u64..48,
            ) {
                let log = Arc::new(EventLog::new(3, capacity, 1, 0, 7));
                let stop = Arc::new(AtomicBool::new(false));
                let reader = {
                    let (log, stop) = (log.clone(), stop.clone());
                    std::thread::spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            for e in log.recent() {
                                assert_eq!(e[2], check(e[0], e[1]), "torn event: {e:?}");
                            }
                        }
                    })
                };
                let handles: Vec<_> = (0..writers)
                    .map(|w| {
                        let log = log.clone();
                        std::thread::spawn(move || {
                            for i in 0..per_writer {
                                log.record(&[w, i, check(w, i)], EventClass::Sampled);
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("writer must not panic");
                }
                stop.store(true, Ordering::Relaxed);
                reader.join().expect("reader saw a torn event");

                let recent = log.recent();
                let keep = per_writer.min(capacity as u64);
                for w in 0..writers {
                    let got: Vec<u64> = recent.iter().filter(|e| e[0] == w).map(|e| e[1]).collect();
                    let expected: Vec<u64> = (per_writer - keep..per_writer).collect();
                    prop_assert_eq!(got, expected, "writer {} eviction order", w);
                }
            }
        }
    }

    #[test]
    fn clear_drops_rings_and_kept() {
        let log = EventLog::new(1, 8, 8, 1000, 7);
        log.record(&[1], EventClass::Always);
        log.clear();
        assert!(log.recent().is_empty());
        assert!(log.kept().is_empty());
        log.record(&[2], EventClass::Always);
        assert_eq!(log.recent().len(), 1);
    }
}
