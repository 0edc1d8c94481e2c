//! Cold tier: immutable on-disk runs of aged-out time shards.
//!
//! When retention expires a time-shard bucket, its records no longer
//! belong in the R-tree or the snapshot — but deleting them forecloses
//! month-scale workloads (POI hotspot mining, common-view joins over old
//! footage). Instead the engine demotes them to a `cold-<bucket>-<n>.run`
//! file (a v2 snapshot container) and registers a [`ColdRun`] here. The
//! query path reaches them through the `cold_scan` operator.
//!
//! What keeps the tier cold is the **zone map**: each run's record count
//! and 3-D MBR ([`Zone`]) live in its container header, so the catalog
//! decides which runs a query can touch — in time *and* space — from
//! memory it filled by reading headers only (`ColdCatalog::load`). A
//! catalog-wide union zone answers "none of them" in O(1). Run bodies
//! are decoded on the first probe that survives the zone maps and held
//! in a byte-budgeted LRU ([`RESIDENT_BUDGET_BYTES`]); a run that cannot
//! be read is a typed [`StoreError`], a counter and a name in `swag
//! explain`, never an empty result that looks like a miss.
//!
//! Runs are immutable, so retraction (§I: contributors stay in control of
//! their descriptors) cannot delete a provider's demoted rows. The
//! catalog keeps the [`Retracted`] providers instead, and `cold_scan`
//! skips a row whose provider was retracted after its run was written.

use std::collections::{BTreeMap, HashMap};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use swag_core::RepFov;

use crate::container::{decode_container, decode_header, Zone, HEADER_PREFIX_LEN};
use crate::segment::SegmentRef;
use crate::StoreError;

/// Bytes of decoded run bodies the catalog keeps resident, charged at
/// their in-memory size. A constant, not a knob: one value is in use.
pub(crate) const RESIDENT_BUDGET_BYTES: usize = 8 << 20;

/// A run's decoded records, shared so eviction never invalidates a scan
/// in flight.
pub type ColdRecords = Arc<Vec<(RepFov, SegmentRef)>>;

/// Retracted providers, each with the cold-run sequence current when it
/// was retracted: runs numbered below it hide the provider's rows, later
/// runs — rows the provider uploaded after retracting — do not.
pub type Retracted = BTreeMap<u64, u64>;

/// One immutable cold run: an expired bucket's records on disk.
#[derive(Debug)]
pub struct ColdRun {
    /// Home time-shard bucket the records came from.
    pub bucket: i64,
    /// Records in the run (0 for a run that was unreadable at load).
    pub count: u64,
    seq: u64,
    /// `None` only for a run that was unreadable at load.
    zone: Option<Zone>,
    path: PathBuf,
    /// Set once, by the first read that fails; the run is skipped from
    /// then on (reopening the directory retries it).
    error: OnceLock<StoreError>,
}

impl ColdRun {
    /// File backing this run.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Why the run is unreadable, if it is.
    pub fn error(&self) -> Option<&StoreError> {
        self.error.get()
    }

    /// Whether `provider_id`'s rows in this run are retracted.
    pub fn hides(&self, retracted: &Retracted, provider_id: u64) -> bool {
        retracted
            .get(&provider_id)
            .is_some_and(|&cold_seq| self.seq < cold_seq)
    }

    /// Reads and verifies the whole run.
    fn read(&self) -> Result<Vec<(RepFov, SegmentRef)>, StoreError> {
        let raw = std::fs::read(&self.path).map_err(|e| io_error(&self.path, e))?;
        let records = decode_run(&self.path, &raw)?;
        if records.len() as u64 != self.count {
            return Err(StoreError::Corrupt(format!(
                "{}: header declares {} records, body holds {}",
                self.path.display(),
                self.count,
                records.len()
            )));
        }
        Ok(records)
    }
}

fn io_error(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{}: {e}", path.display()))
}

fn decode_run(path: &Path, raw: &[u8]) -> Result<Vec<(RepFov, SegmentRef)>, StoreError> {
    decode_container(raw).map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))
}

/// A run's record count and zone as [`ColdCatalog::load`] learns them:
/// from the header alone when it carries a zone map that checks out,
/// else — a run written before zone maps, or a damaged header — from
/// one full decode through `zone_of`, which the footer crc vouches for.
/// `Ok(None)` is an empty run: it holds nothing a query could match.
fn read_zone_map(
    path: &Path,
    zone_of: impl Fn(&[(RepFov, SegmentRef)]) -> Zone,
) -> Result<Option<(u64, Zone)>, StoreError> {
    let mut file = std::fs::File::open(path).map_err(|e| io_error(path, e))?;
    let mut raw = Vec::with_capacity(HEADER_PREFIX_LEN);
    (&mut file)
        .take(HEADER_PREFIX_LEN as u64)
        .read_to_end(&mut raw)
        .map_err(|e| io_error(path, e))?;
    if let Ok(header) = decode_header(&raw) {
        if let Some(zone) = header.zone {
            return Ok(Some((header.count, zone)));
        }
    }
    file.read_to_end(&mut raw).map_err(|e| io_error(path, e))?;
    let records = decode_run(path, &raw)?;
    Ok((!records.is_empty()).then(|| (records.len() as u64, zone_of(&records))))
}

fn parse_cold_name(name: &str) -> Option<(i64, u64)> {
    // cold-<bucket>-<seq>.run, bucket may be negative.
    let stem = name.strip_prefix("cold-")?.strip_suffix(".run")?;
    let (bucket_s, seq_s) = stem.rsplit_once('-')?;
    Some((bucket_s.parse().ok()?, seq_s.parse().ok()?))
}

/// File name for a cold run.
pub(crate) fn cold_file_name(bucket: i64, seq: u64) -> String {
    format!("cold-{bucket}-{seq}.run")
}

fn union(a: &Zone, b: &Zone) -> Zone {
    std::array::from_fn(|i| {
        if i < 3 {
            a[i].min(b[i])
        } else {
            a[i].max(b[i])
        }
    })
}

/// Registered runs in `(bucket, seq)` order plus what answers "can any
/// run match" without visiting them.
#[derive(Debug, Default)]
struct Index {
    runs: Vec<Arc<ColdRun>>,
    /// Union of every run's zone; `None` while no run has one.
    union: Option<Zone>,
    /// Runs that have a zone (all but those unreadable at load).
    zoned: u64,
}

impl Index {
    fn push(&mut self, run: ColdRun) {
        if let Some(zone) = &run.zone {
            self.union = Some(self.union.map_or(*zone, |u| union(&u, zone)));
            self.zoned += 1;
        }
        self.runs.push(Arc::new(run));
    }
}

/// Decoded run bodies, least recently used evicted first.
#[derive(Debug, Default)]
struct Resident {
    /// Keyed by `(bucket, seq)`; the `u64` is the tick of the last use.
    runs: HashMap<(i64, u64), (ColdRecords, u64)>,
    bytes: usize,
    tick: u64,
}

fn resident_size(records: &ColdRecords) -> usize {
    records.capacity() * std::mem::size_of::<(RepFov, SegmentRef)>()
}

impl Resident {
    fn get(&mut self, key: (i64, u64)) -> Option<ColdRecords> {
        self.tick += 1;
        let (records, used) = self.runs.get_mut(&key)?;
        *used = self.tick;
        Some(Arc::clone(records))
    }

    /// Makes room first, then inserts, so `bytes` never passes `budget`;
    /// a body larger than the whole budget is handed out unretained.
    fn insert(&mut self, key: (i64, u64), records: ColdRecords, budget: usize) -> ColdRecords {
        if let Some(raced) = self.get(key) {
            return raced;
        }
        let size = resident_size(&records);
        if size > budget {
            return records;
        }
        while self.bytes + size > budget {
            let oldest = self
                .runs
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(key, _)| *key)
                .expect("resident bytes are non-zero only while a run is resident");
            if let Some((evicted, _)) = self.runs.remove(&oldest) {
                self.bytes -= resident_size(&evicted);
            }
        }
        self.bytes += size;
        self.runs.insert(key, (Arc::clone(&records), self.tick));
        records
    }
}

/// The set of cold runs currently reachable by queries.
#[derive(Debug)]
pub struct ColdCatalog {
    index: RwLock<Index>,
    /// Replaced whole on each retraction, so a scan reads one snapshot.
    retracted: RwLock<Arc<Retracted>>,
    resident: Mutex<Resident>,
    budget: usize,
    pruned: AtomicU64,
    opened: AtomicU64,
}

impl ColdCatalog {
    /// Scans a cold directory, registering every parseable run from its
    /// header alone. `zone_of` computes the zone of a run that has none
    /// on disk (written before zone maps, or with a damaged header) from
    /// one full decode, which is not kept resident. `budget` bounds the
    /// resident set ([`RESIDENT_BUDGET_BYTES`] outside tests).
    ///
    /// Returns the catalog and the next free run sequence number.
    pub(crate) fn load(
        dir: &Path,
        zone_of: impl Fn(&[(RepFov, SegmentRef)]) -> Zone,
        budget: usize,
    ) -> std::io::Result<(ColdCatalog, u64)> {
        let mut found: Vec<(i64, u64, PathBuf)> = Vec::new();
        if dir.exists() {
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                if let Some((bucket, seq)) = entry.file_name().to_str().and_then(parse_cold_name) {
                    found.push((bucket, seq, entry.path()));
                }
            }
        }
        found.sort_by_key(|(bucket, seq, _)| (*bucket, *seq));
        let next_seq = found.iter().map(|(_, seq, _)| seq + 1).max().unwrap_or(0);

        let mut index = Index::default();
        for (bucket, seq, path) in found {
            let error = OnceLock::new();
            let (count, zone) = match read_zone_map(&path, &zone_of) {
                Ok(Some((count, zone))) => (count, Some(zone)),
                Ok(None) => continue,
                Err(e) => {
                    let _ = error.set(e);
                    (0, None)
                }
            };
            index.push(ColdRun {
                bucket,
                count,
                seq,
                zone,
                path,
                error,
            });
        }
        let catalog = ColdCatalog {
            index: RwLock::new(index),
            retracted: RwLock::default(),
            resident: Mutex::default(),
            budget,
            pruned: AtomicU64::new(0),
            opened: AtomicU64::new(0),
        };
        Ok((catalog, next_seq))
    }

    /// Registers a freshly written run.
    pub(crate) fn push(&self, bucket: i64, seq: u64, count: u64, zone: Zone, path: PathBuf) {
        self.index.write().push(ColdRun {
            bucket,
            count,
            seq,
            zone: Some(zone),
            path,
            error: OnceLock::new(),
        });
    }

    /// Hides `provider_id`'s rows in every run numbered below `cold_seq`.
    /// A later retraction of the same provider only widens what is
    /// hidden; `cold_seq` 0 hides nothing and records nothing.
    pub(crate) fn retract(&self, provider_id: u64, cold_seq: u64) {
        if cold_seq == 0 {
            return;
        }
        let mut retracted = self.retracted.write();
        let below = Arc::make_mut(&mut retracted)
            .entry(provider_id)
            .or_default();
        *below = (*below).max(cold_seq);
    }

    /// The retracted providers as of now (see [`ColdRun::hides`]).
    pub fn retracted(&self) -> Arc<Retracted> {
        Arc::clone(&self.retracted.read())
    }

    /// The readable runs whose zone `overlaps` accepts, in `(bucket,
    /// seq)` order; those it rejects count as pruned. Decided from zone
    /// maps alone: no I/O, and when even the union zone is rejected, no
    /// per-run work and no allocation.
    pub fn probe(&self, overlaps: impl Fn(&Zone) -> bool) -> Vec<Arc<ColdRun>> {
        let index = self.index.read();
        if !index.union.as_ref().is_some_and(&overlaps) {
            self.pruned.fetch_add(index.zoned, Ordering::Relaxed);
            return Vec::new();
        }
        let mut survivors = Vec::new();
        let mut pruned = 0;
        // A run without an error has a zone: only load leaves it out,
        // and only for a run it marks unreadable.
        for run in index.runs.iter().filter(|run| run.error().is_none()) {
            if run.zone.as_ref().is_some_and(&overlaps) {
                survivors.push(Arc::clone(run));
            } else {
                pruned += 1;
            }
        }
        self.pruned.fetch_add(pruned, Ordering::Relaxed);
        survivors
    }

    /// The run's records: from the resident set, else read, verified
    /// and made resident. A failure marks the run unreadable; later
    /// calls return the same error without I/O.
    pub fn records(&self, run: &ColdRun) -> Result<ColdRecords, StoreError> {
        if let Some(e) = run.error() {
            return Err(e.clone());
        }
        let key = (run.bucket, run.seq);
        if let Some(records) = self.resident.lock().get(key) {
            return Ok(records);
        }
        // Read and decode outside the lock; a racing reader of the same
        // run costs one duplicate read, not a stall.
        let records = match run.read() {
            Ok(records) => Arc::new(records),
            Err(e) => {
                let _ = run.error.set(e.clone());
                return Err(e);
            }
        };
        self.opened.fetch_add(1, Ordering::Relaxed);
        Ok(self.resident.lock().insert(key, records, self.budget))
    }

    /// Number of cold runs on disk, unreadable ones included.
    pub fn runs(&self) -> usize {
        self.index.read().runs.len()
    }

    /// Total records across all readable runs, from their zone maps.
    pub fn segments(&self) -> u64 {
        let index = self.index.read();
        let readable = index.runs.iter().filter(|r| r.error().is_none());
        readable.map(|r| r.count).sum()
    }

    /// Whether the catalog is empty (the common, hot-path case).
    pub fn is_empty(&self) -> bool {
        self.index.read().runs.is_empty()
    }

    /// Runs that failed to read, at load or since.
    pub fn unreadable(&self) -> Vec<Arc<ColdRun>> {
        let index = self.index.read();
        let failed = index.runs.iter().filter(|r| r.error().is_some());
        failed.cloned().collect()
    }

    /// How many of `runs` are resident right now.
    pub fn resident_among(&self, runs: &[Arc<ColdRun>]) -> usize {
        let resident = self.resident.lock();
        runs.iter()
            .filter(|r| resident.runs.contains_key(&(r.bucket, r.seq)))
            .count()
    }

    /// Bytes of decoded run bodies currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident.lock().bytes
    }

    /// Runs skipped by zone map, summed over probes.
    pub fn runs_pruned(&self) -> u64 {
        self.pruned.load(Ordering::Relaxed)
    }

    /// Run bodies read and decoded by queries (misses of the resident
    /// set); reading headers at load does not count.
    pub fn runs_opened(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Runs found unreadable, at load or since.
    pub fn run_errors(&self) -> u64 {
        self.unreadable().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::encode_records;
    use swag_core::Fov;
    use swag_geo::LatLon;

    fn rep(t: f64) -> (RepFov, SegmentRef) {
        (
            RepFov::new(t, t + 5.0, Fov::new(LatLon::new(40.0, 116.32), 90.0)),
            SegmentRef {
                provider_id: 1,
                video_id: 2,
                segment_idx: t as u32,
            },
        )
    }

    /// The engine's zone definition, restated for fixtures.
    fn zone_of(records: &[(RepFov, SegmentRef)]) -> Zone {
        let of = |r: &RepFov| {
            [
                r.fov.p.lng,
                r.fov.p.lat,
                r.t_start,
                r.fov.p.lng,
                r.fov.p.lat,
                r.t_end,
            ]
        };
        let first = of(&records[0].0);
        records.iter().fold(first, |z, (r, _)| union(&z, &of(r)))
    }

    fn in_window(t0: f64, t1: f64) -> impl Fn(&Zone) -> bool {
        move |z| z[2] <= t1 && t0 <= z[5]
    }

    fn tmp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "swag-cold-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_run(dir: &Path, bucket: i64, seq: u64, recs: &[(RepFov, SegmentRef)], zoned: bool) {
        let zone = zone_of(recs);
        let bytes = encode_records(recs, zoned.then_some(&zone)).unwrap();
        std::fs::write(dir.join(cold_file_name(bucket, seq)), bytes).unwrap();
    }

    #[test]
    fn load_reads_headers_only_and_probe_prunes_both_time_sides() {
        let dir = tmp_dir();
        for (bucket, t) in [(0i64, 10.0), (1, 650.0), (2, 1300.0)] {
            write_run(&dir, bucket, bucket as u64, &[rep(t), rep(t + 1.0)], true);
        }
        let (catalog, next_seq) = ColdCatalog::load(&dir, zone_of, RESIDENT_BUDGET_BYTES).unwrap();
        assert_eq!((catalog.runs(), catalog.segments(), next_seq), (3, 6, 3));
        assert_eq!((catalog.runs_opened(), catalog.resident_bytes()), (0, 0));

        // Only the middle run overlaps [600, 700]: the earlier one is cut
        // by its max t_end, the later one by its min t_start.
        let hit = catalog.probe(in_window(600.0, 700.0));
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].bucket, 1);
        assert_eq!(catalog.runs_pruned(), 2);
        assert_eq!(catalog.runs_opened(), 0, "probing opens nothing");
        assert_eq!(catalog.records(&hit[0]).unwrap().len(), 2);
        assert_eq!(catalog.runs_opened(), 1);
        catalog.records(&hit[0]).unwrap();
        assert_eq!(catalog.runs_opened(), 1, "second read is resident");

        // Outside the union zone: everything pruned without per-run work.
        assert!(catalog.probe(in_window(5_000.0, 6_000.0)).is_empty());
        assert_eq!(catalog.runs_pruned(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pre_zone_and_header_damaged_runs_load_through_a_full_decode() {
        let dir = tmp_dir();
        // Written by a build that predates zone maps (8-byte header).
        write_run(&dir, 0, 0, &[rep(10.0), rep(20.0)], false);
        // Zoned, but the header crc is wrong while the body is intact
        // (footer recomputed): the zone cannot be trusted, the records can.
        let recs = [rep(650.0)];
        let mut raw = encode_records(&recs, Some(&zone_of(&recs)))
            .unwrap()
            .to_vec();
        raw[HEADER_PREFIX_LEN - 1] ^= 0xFF;
        let body_end = raw.len() - 4;
        let footer = crate::crc::crc32(&raw[..body_end]);
        raw[body_end..].copy_from_slice(&footer.to_le_bytes());
        std::fs::write(dir.join(cold_file_name(1, 1)), raw).unwrap();

        let (catalog, _) = ColdCatalog::load(&dir, zone_of, RESIDENT_BUDGET_BYTES).unwrap();
        assert_eq!((catalog.runs(), catalog.segments()), (2, 3));
        assert_eq!(catalog.run_errors(), 0);
        assert_eq!(catalog.resident_bytes(), 0, "load keeps nothing resident");
        let early = catalog.probe(in_window(0.0, 100.0));
        assert_eq!(early.len(), 1, "computed zones prune like stored ones");
        assert_eq!(catalog.records(&early[0]).unwrap().len(), 2);
        let late = catalog.probe(in_window(600.0, 700.0));
        assert_eq!(catalog.records(&late[0]).unwrap()[0].1, recs[0].1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_runs_are_typed_counted_and_named() {
        let dir = tmp_dir();
        std::fs::write(dir.join(cold_file_name(5, 0)), b"garbage").unwrap();
        write_run(&dir, 6, 1, &[rep(3700.0)], true);
        write_run(&dir, 7, 2, &[rep(4300.0)], true);
        let (catalog, next_seq) = ColdCatalog::load(&dir, zone_of, RESIDENT_BUDGET_BYTES).unwrap();
        assert_eq!((catalog.runs(), catalog.segments(), next_seq), (3, 2, 3));
        assert_eq!(catalog.run_errors(), 1);
        let bad = catalog.unreadable();
        assert_eq!(bad.len(), 1);
        assert!(bad[0].path().ends_with("cold-5-0.run"));
        assert!(matches!(bad[0].error(), Some(StoreError::Corrupt(_))));
        assert!(matches!(
            catalog.records(&bad[0]),
            Err(StoreError::Corrupt(_))
        ));

        // A run that goes bad after load fails its first read, once.
        std::fs::write(dir.join(cold_file_name(7, 2)), b"truncated").unwrap();
        let all = catalog.probe(|_| true);
        assert_eq!(
            all.len(),
            2,
            "the run that was bad at load is never a candidate"
        );
        assert_eq!(catalog.records(&all[0]).unwrap().len(), 1);
        assert!(catalog.records(&all[1]).is_err());
        assert!(catalog.records(&all[1]).is_err());
        assert_eq!(catalog.run_errors(), 2);
        assert_eq!(catalog.probe(|_| true).len(), 1);
        assert_eq!(catalog.segments(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resident_set_stays_within_budget_and_answers_do_not_change() {
        let dir = tmp_dir();
        let runs: Vec<Vec<(RepFov, SegmentRef)>> = (0..12)
            .map(|b| (0..8).map(|i| rep(b as f64 * 600.0 + i as f64)).collect())
            .collect();
        for (b, recs) in runs.iter().enumerate() {
            write_run(&dir, b as i64, b as u64, recs, true);
        }
        let run_bytes = 8 * std::mem::size_of::<(RepFov, SegmentRef)>();
        let budget = 3 * run_bytes + run_bytes / 2;
        let (small, _) = ColdCatalog::load(&dir, zone_of, budget).unwrap();
        let (large, _) = ColdCatalog::load(&dir, zone_of, RESIDENT_BUDGET_BYTES).unwrap();
        // A cyclic sweep defeats LRU, a repeated run exercises hits.
        for round in 0..3 {
            for pick in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 0, 5] {
                let t0 = pick as f64 * 600.0;
                let a = small.probe(in_window(t0, t0 + 100.0));
                let b = large.probe(in_window(t0, t0 + 100.0));
                assert_eq!(a.len(), 1);
                let held = small.records(&a[0]).unwrap();
                assert_eq!(*held, *large.records(&b[0]).unwrap(), "round {round}");
                assert!(small.resident_bytes() <= budget);
                // An evicted body stays valid for whoever still holds it.
                assert_eq!(held.len(), 8);
            }
        }
        assert_eq!(small.resident_bytes(), 3 * run_bytes);
        assert!(small.runs_opened() > large.runs_opened());
        assert_eq!(large.runs_opened(), 12);
        // A body larger than the whole budget is served, not retained.
        let (tiny, _) = ColdCatalog::load(&dir, zone_of, run_bytes - 1).unwrap();
        let run = tiny.probe(|_| true).remove(0);
        assert_eq!(tiny.records(&run).unwrap().len(), 8);
        assert_eq!(tiny.resident_bytes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn negative_bucket_names_parse() {
        assert_eq!(parse_cold_name("cold--3-7.run"), Some((-3, 7)));
        assert_eq!(parse_cold_name("cold-12-0.run"), Some((12, 0)));
        assert_eq!(parse_cold_name("cold-x.run"), None);
    }
}
