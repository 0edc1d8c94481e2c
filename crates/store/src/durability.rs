//! The durability orchestrator: one object tying WAL, incremental
//! snapshots, and the cold tier to a data directory.
//!
//! Layout under the data dir:
//!
//! ```text
//! <dir>/wal/wal-<startseq>.log        append-only segments
//! <dir>/snapshots/MANIFEST            atomic bucket-set descriptor
//! <dir>/snapshots/bucket-<b>-f<floor>-v<ver>.run
//! <dir>/cold/cold-<bucket>-<n>.run    demoted expired shards
//! ```
//!
//! The engine calls [`Durability::append`] (or [`Durability::retract`])
//! under its writer lock before staging a mutation,
//! [`Durability::on_publish`] right after installing
//! a folded epoch (handing over a COW store clone plus the epoch's
//! per-bucket stamp versions), and [`Durability::demote`] when retention
//! expires a bucket. Snapshots happen on a background worker so fold
//! latency never includes bucket-file I/O; jobs are coalesced, and each
//! completed snapshot retires the WAL segments it covers.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;

use parking_lot::Mutex;
use swag_core::RepFov;
use swag_obs::{Counter, Histogram, MonotonicClock, Registry};

use crate::cold::{cold_file_name, ColdCatalog, Retracted, RESIDENT_BUDGET_BYTES};
use crate::container::{encode_records, Zone};
use crate::home_bucket;
use crate::manifest::{BucketEntry, Manifest};
use crate::segment::{SegmentRef, SegmentStore};
use crate::wal::{recover_wal_dir, WalOp, WalWriter};

/// WAL segment subdirectory.
pub const WAL_DIR: &str = "wal";
/// Snapshot subdirectory (bucket files + MANIFEST).
pub const SNAPSHOT_DIR: &str = "snapshots";
/// Cold-run subdirectory.
pub const COLD_DIR: &str = "cold";

/// Rotate the active WAL segment once it exceeds this many bytes.
/// Snapshots also rotate, so this only bounds quiet periods.
const WAL_ROTATE_BYTES: u64 = 4 << 20;

/// Tuning knobs for a durable server. Durability itself is not a knob:
/// a server opened on a data directory (`CloudServer::open`, which takes
/// the directory as its argument) is durable and always demotes expired
/// shards to the cold tier; any other server is memory-only and never
/// reads this config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilityConfig {
    /// Group-commit window: a background flusher fsyncs the WAL tail
    /// every this many microseconds, off the ingest path (0 = strict
    /// mode, every append fsyncs inline before returning).
    pub fsync_interval_micros: u64,
    /// Skip the snapshot an epoch publish would trigger until at least
    /// this many WAL bytes have accumulated since the last one (0 =
    /// snapshot on every publish). Publishes are frequent and cheap;
    /// snapshots rewrite bucket files and fsync — this keeps checkpoint
    /// cost proportional to ingested bytes, not to publish cadence.
    pub snapshot_min_wal_bytes: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            fsync_interval_micros: 2_000,
            snapshot_min_wal_bytes: 1 << 20,
        }
    }
}

/// Errors opening or operating a data directory.
#[derive(Debug, Clone)]
pub enum StoreError {
    /// An I/O operation failed.
    Io(String),
    /// On-disk state failed to parse or checksum.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(e) => write!(f, "store corrupt: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(context: &str, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{context}: {e}"))
}

/// What recovery found in a data directory.
#[derive(Debug)]
pub struct Recovery {
    /// Folded records from the latest snapshot, bucket-major.
    pub records: Vec<(RepFov, SegmentRef)>,
    /// Durable WAL ops past the snapshot's floor, in log order.
    pub ops: Vec<WalOp>,
}

/// Point-in-time durability counters for `swag stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityStats {
    /// Ops ever appended to the WAL this process.
    pub wal_records: u64,
    /// Frame bytes ever appended this process.
    pub wal_appended_bytes: u64,
    /// Bytes written but not yet fsynced (durability lag).
    pub wal_lag_bytes: u64,
    /// Next WAL sequence number.
    pub wal_seq: u64,
    /// Completed background snapshots this process.
    pub snapshots_written: u64,
    /// Bucket files rewritten across those snapshots.
    pub snapshot_buckets_written: u64,
    /// Microseconds since the last completed snapshot (`None` = never).
    pub last_snapshot_age_micros: Option<u64>,
    /// Cold runs on disk.
    pub cold_runs: usize,
    /// Records across all readable cold runs (summed from zone maps).
    pub cold_segments: u64,
    /// Cold runs skipped by zone map, summed over query probes.
    pub cold_runs_pruned: u64,
    /// Cold run bodies read and decoded by queries.
    pub cold_runs_opened: u64,
    /// Bytes of decoded cold run bodies resident right now.
    pub cold_resident_bytes: u64,
    /// Cold runs found unreadable (at open or on first read).
    pub cold_run_errors: u64,
    /// Demotions that failed to reach disk; retention dropped their
    /// records all the same.
    pub cold_demote_errors: u64,
}

/// Metric handles, resolved once when a registry is attached.
struct Obs {
    wal_fsync_micros: Arc<Histogram>,
    wal_bytes: Arc<Counter>,
    wal_records: Arc<Counter>,
    snapshots: Arc<Counter>,
    snapshot_micros: Arc<Histogram>,
    snapshot_buckets: Arc<Counter>,
    cold_demoted: Arc<Counter>,
}

/// State shared between the front end and the snapshot worker.
struct Shared {
    clock: Arc<dyn MonotonicClock>,
    wal_records: AtomicU64,
    wal_appended_bytes: AtomicU64,
    snapshots_written: AtomicU64,
    snapshot_buckets_written: AtomicU64,
    /// `clock` micros of the last completed snapshot + 1 (0 = never).
    last_snapshot_at: AtomicU64,
    cold_demote_errors: AtomicU64,
    obs: OnceLock<Obs>,
}

struct WalState {
    writer: WalWriter,
    /// Closed segments not yet covered by a snapshot.
    closed: Vec<(u64, u64, PathBuf)>,
    /// Bytes appended since the last dispatched snapshot, gating
    /// `on_publish` against `snapshot_min_wal_bytes`.
    bytes_since_snapshot: u64,
}

enum Job {
    Snapshot {
        store: SegmentStore,
        versions: Arc<BTreeMap<i64, u64>>,
        retracted: Arc<Retracted>,
        wal_floor: u64,
        retire: Vec<PathBuf>,
    },
    Quiesce(Sender<()>),
}

/// Handle to a data directory's durability machinery.
pub struct Durability {
    config: DurabilityConfig,
    snap_dir: PathBuf,
    cold_dir: PathBuf,
    wal: Arc<Mutex<WalState>>,
    cold: ColdCatalog,
    cold_seq: AtomicU64,
    shared: Arc<Shared>,
    tx: Mutex<Option<Sender<Job>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    flusher_stop: Arc<AtomicBool>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability")
            .field("config", &self.config)
            .field("snap_dir", &self.snap_dir)
            .finish()
    }
}

impl Durability {
    /// Opens (creating if empty) a data directory and recovers its
    /// durable state: latest snapshot records plus WAL ops past the
    /// manifest's floor. The caller replays both through the normal
    /// ingest path, then starts appending. Cold runs are registered from
    /// their headers; `cold_zone_of` is the engine's zone definition,
    /// needed only for runs whose header carries none (those are decoded
    /// once in full to compute it).
    pub fn open(
        dir: &Path,
        width_s: f64,
        config: DurabilityConfig,
        clock: Arc<dyn MonotonicClock>,
        cold_zone_of: impl Fn(&[(RepFov, SegmentRef)]) -> Zone,
    ) -> Result<(Arc<Durability>, Recovery), StoreError> {
        let wal_dir = dir.join(WAL_DIR);
        let snap_dir = dir.join(SNAPSHOT_DIR);
        let cold_dir = dir.join(COLD_DIR);
        for d in [&wal_dir, &snap_dir, &cold_dir] {
            std::fs::create_dir_all(d).map_err(|e| io_err("create data dir", e))?;
        }

        let manifest = Manifest::load(&snap_dir)
            .map_err(StoreError::Corrupt)?
            .unwrap_or_default();
        // Sweep bucket files a crashed snapshot left unreferenced.
        let referenced: std::collections::BTreeSet<&str> =
            manifest.buckets.values().map(|e| e.file.as_str()).collect();
        if let Ok(entries) = std::fs::read_dir(&snap_dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.starts_with("bucket-") && !referenced.contains(name) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }

        let mut records = Vec::new();
        for (bucket, entry) in &manifest.buckets {
            let path = snap_dir.join(&entry.file);
            let raw = std::fs::read(&path)
                .map_err(|e| io_err(&format!("read snapshot bucket {bucket}"), e))?;
            if crate::crc::crc32(&raw) != entry.crc {
                return Err(StoreError::Corrupt(format!(
                    "snapshot bucket {bucket} file {} fails manifest crc",
                    entry.file
                )));
            }
            let decoded = crate::container::decode_container(&raw)
                .map_err(|e| StoreError::Corrupt(format!("snapshot bucket {bucket}: {e}")))?;
            records.extend(decoded);
        }

        let (cold, cold_next) = ColdCatalog::load(&cold_dir, cold_zone_of, RESIDENT_BUDGET_BYTES)
            .map_err(|e| io_err("scan cold dir", e))?;

        let wal_rec = recover_wal_dir(&wal_dir).map_err(|e| io_err("recover wal", e))?;
        // Segments the snapshot already covers are dead weight.
        for (_, end, path) in &wal_rec.segments {
            if *end <= manifest.wal_floor {
                let _ = std::fs::remove_file(path);
            }
        }
        let ops: Vec<WalOp> = wal_rec
            .ops
            .into_iter()
            .filter(|(seq, _)| *seq >= manifest.wal_floor)
            .map(|(_, op)| op)
            .collect();
        // Retractions: the manifest's, plus those logged past its floor
        // (the caller replays ops with durability detached, so nothing
        // else would). No retraction hides a run written after this open;
        // a legacy frame's sequence clamps to every run present now.
        let logged = ops.iter().filter_map(|op| match op {
            WalOp::Retract {
                provider_id,
                cold_seq,
            } => Some((provider_id, cold_seq)),
            _ => None,
        });
        for (provider_id, cold_seq) in manifest.retracted.iter().chain(logged) {
            cold.retract(*provider_id, (*cold_seq).min(cold_next));
        }

        let next_seq = wal_rec.next_seq.max(manifest.wal_floor);
        let writer = WalWriter::open(
            &wal_dir,
            next_seq,
            config.fsync_interval_micros,
            Arc::clone(&clock),
        )
        .map_err(|e| io_err("open wal writer", e))?;
        let closed: Vec<(u64, u64, PathBuf)> = wal_rec
            .segments
            .iter()
            .filter(|(start, end, _)| *end > manifest.wal_floor && *start < next_seq)
            .cloned()
            .collect();

        let shared = Arc::new(Shared {
            clock,
            wal_records: AtomicU64::new(0),
            wal_appended_bytes: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            snapshot_buckets_written: AtomicU64::new(0),
            last_snapshot_at: AtomicU64::new(0),
            cold_demote_errors: AtomicU64::new(0),
            obs: OnceLock::new(),
        });
        let (tx, rx) = mpsc::channel::<Job>();
        let worker =
            spawn_snapshot_worker(rx, snap_dir.clone(), manifest, width_s, Arc::clone(&shared));

        let wal = Arc::new(Mutex::new(WalState {
            writer,
            closed,
            // If uncovered WAL survives from the previous run, let the
            // first publish snapshot it regardless of the byte gate.
            bytes_since_snapshot: if ops.is_empty() { 0 } else { u64::MAX / 2 },
        }));
        let flusher_stop = Arc::new(AtomicBool::new(false));
        let flusher = (config.fsync_interval_micros > 0).then(|| {
            spawn_wal_flusher(
                Arc::clone(&wal),
                Arc::clone(&shared),
                config.fsync_interval_micros,
                Arc::clone(&flusher_stop),
            )
        });

        let durability = Arc::new(Durability {
            config,
            snap_dir,
            cold_dir,
            wal,
            cold,
            cold_seq: AtomicU64::new(cold_next),
            shared,
            tx: Mutex::new(Some(tx)),
            worker: Mutex::new(Some(worker)),
            flusher_stop,
            flusher: Mutex::new(flusher),
        });
        Ok((durability, Recovery { records, ops }))
    }

    /// The cold-run catalog (for `cold_scan`).
    pub fn cold(&self) -> &ColdCatalog {
        &self.cold
    }

    /// Appends one op to the WAL. Called under the engine's writer lock,
    /// *before* the op mutates in-memory state. The write lands in the
    /// page cache; the background flusher group-commits the fsync within
    /// `fsync_interval_micros` (interval 0 syncs inline here).
    pub fn append(&self, op: &WalOp) -> Result<(), StoreError> {
        let mut wal = self.wal.lock();
        let info = wal.writer.append(op).map_err(|e| io_err("wal append", e))?;
        wal.bytes_since_snapshot = wal.bytes_since_snapshot.saturating_add(info.bytes);
        self.shared.wal_records.fetch_add(1, Ordering::Relaxed);
        self.shared
            .wal_appended_bytes
            .fetch_add(info.bytes, Ordering::Relaxed);
        if let Some(obs) = self.shared.obs.get() {
            obs.wal_records.inc();
            obs.wal_bytes.add(info.bytes);
            if let Some(micros) = info.fsync_micros {
                obs.wal_fsync_micros.record(micros);
            }
        }
        if wal.writer.segment_bytes() >= WAL_ROTATE_BYTES {
            if let Some(seg) = wal.writer.rotate().map_err(|e| io_err("wal rotate", e))? {
                wal.closed.push(seg);
            }
        }
        Ok(())
    }

    /// Logs a provider's retraction and hides its rows in every cold run
    /// written so far; runs demoted later (rows the provider uploads
    /// after retracting) stay servable. Called under the engine's writer
    /// lock, like [`Self::append`]. The rows are hidden even if the log
    /// append fails; the error is returned.
    pub fn retract(&self, provider_id: u64) -> Result<(), StoreError> {
        let cold_seq = self.cold_seq.load(Ordering::Relaxed);
        let logged = self.append(&WalOp::Retract {
            provider_id,
            cold_seq,
        });
        self.cold.retract(provider_id, cold_seq);
        logged
    }

    /// Hands a freshly folded epoch to the background snapshot worker.
    ///
    /// `store` is a COW clone of the folded segment store and `versions`
    /// the epoch stamp's per-bucket versions; both are O(1)-ish to hand
    /// over, as is the retracted set the manifest records beside them.
    /// The active WAL segment is rotated so the snapshot, once written,
    /// covers (and retires) every closed segment.
    pub fn on_publish(&self, store: SegmentStore, versions: Arc<BTreeMap<i64, u64>>) {
        let (wal_floor, retire) = {
            let mut wal = self.wal.lock();
            if wal.bytes_since_snapshot < self.config.snapshot_min_wal_bytes {
                // Not enough new WAL to be worth a checkpoint; the next
                // publish (or quiesce) will catch everything up.
                return;
            }
            wal.bytes_since_snapshot = 0;
            match wal.writer.rotate() {
                Ok(Some(seg)) => wal.closed.push(seg),
                Ok(None) => {}
                Err(_) => return, // keep the WAL; skip this snapshot
            }
            let floor = wal.writer.next_seq();
            let retire = std::mem::take(&mut wal.closed)
                .into_iter()
                .map(|(_, _, path)| path)
                .collect();
            (floor, retire)
        };
        if let Some(tx) = self.tx.lock().as_ref() {
            let _ = tx.send(Job::Snapshot {
                store,
                versions,
                retracted: self.cold.retracted(),
                wal_floor,
                retire,
            });
        }
    }

    /// Writes an expired bucket's records to an immutable cold run whose
    /// header carries `zone`, the engine-computed box enclosing every
    /// record's index box. A failure is returned *and* counted: the
    /// caller's retention proceeds either way, so it is data loss.
    pub fn demote(
        &self,
        bucket: i64,
        records: &[(RepFov, SegmentRef)],
        zone: Zone,
    ) -> Result<(), StoreError> {
        if records.is_empty() {
            return Ok(());
        }
        let seq = self.cold_seq.fetch_add(1, Ordering::Relaxed);
        let path = self.cold_dir.join(cold_file_name(bucket, seq));
        if let Err(e) = write_cold_run(&path, records, &zone) {
            // A partial file would come back as an unreadable run.
            let _ = std::fs::remove_file(&path);
            self.shared
                .cold_demote_errors
                .fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        self.cold
            .push(bucket, seq, records.len() as u64, zone, path);
        if let Some(obs) = self.shared.obs.get() {
            obs.cold_demoted.add(records.len() as u64);
        }
        Ok(())
    }

    /// Fsyncs the WAL tail and blocks until the snapshot worker has
    /// drained every queued job. For tests, benches and clean shutdown.
    pub fn quiesce(&self) {
        {
            let mut wal = self.wal.lock();
            let _ = wal.writer.sync();
        }
        let (ack_tx, ack_rx) = mpsc::channel();
        let sent = match self.tx.lock().as_ref() {
            Some(tx) => tx.send(Job::Quiesce(ack_tx)).is_ok(),
            None => false,
        };
        if sent {
            let _ = ack_rx.recv();
        }
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> DurabilityStats {
        let (lag, seq) = {
            let wal = self.wal.lock();
            (wal.writer.unsynced_bytes(), wal.writer.next_seq())
        };
        let last = self.shared.last_snapshot_at.load(Ordering::Relaxed);
        DurabilityStats {
            wal_records: self.shared.wal_records.load(Ordering::Relaxed),
            wal_appended_bytes: self.shared.wal_appended_bytes.load(Ordering::Relaxed),
            wal_lag_bytes: lag,
            wal_seq: seq,
            snapshots_written: self.shared.snapshots_written.load(Ordering::Relaxed),
            snapshot_buckets_written: self.shared.snapshot_buckets_written.load(Ordering::Relaxed),
            last_snapshot_age_micros: if last == 0 {
                None
            } else {
                Some(self.shared.clock.now_micros().saturating_sub(last - 1))
            },
            cold_runs: self.cold.runs(),
            cold_segments: self.cold.segments(),
            cold_runs_pruned: self.cold.runs_pruned(),
            cold_runs_opened: self.cold.runs_opened(),
            cold_resident_bytes: self.cold.resident_bytes() as u64,
            cold_run_errors: self.cold.run_errors(),
            cold_demote_errors: self.shared.cold_demote_errors.load(Ordering::Relaxed),
        }
    }

    /// Resolves metric handles against a registry. Until called, the
    /// subsystem records into process-local atomics only.
    pub fn attach_observability(&self, registry: &Registry) {
        registry.set_help(
            "swag_store_wal_fsync_micros",
            "Group-commit fsync latency of the segment WAL",
        );
        registry.set_help(
            "swag_store_wal_bytes_total",
            "Frame bytes appended to the WAL",
        );
        registry.set_help("swag_store_wal_records_total", "Ops appended to the WAL");
        registry.set_help(
            "swag_store_snapshots_total",
            "Incremental snapshots completed by the background worker",
        );
        registry.set_help(
            "swag_store_snapshot_micros",
            "Wall time of each incremental snapshot",
        );
        registry.set_help(
            "swag_store_snapshot_buckets_total",
            "Time-shard bucket files rewritten by snapshots",
        );
        registry.set_help(
            "swag_store_cold_demoted_total",
            "Records demoted to cold runs by retention",
        );
        let _ = self.shared.obs.set(Obs {
            wal_fsync_micros: registry.histogram("swag_store_wal_fsync_micros"),
            wal_bytes: registry.counter("swag_store_wal_bytes_total"),
            wal_records: registry.counter("swag_store_wal_records_total"),
            snapshots: registry.counter("swag_store_snapshots_total"),
            snapshot_micros: registry.histogram("swag_store_snapshot_micros"),
            snapshot_buckets: registry.counter("swag_store_snapshot_buckets_total"),
            cold_demoted: registry.counter("swag_store_cold_demoted_total"),
        });
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        // Stop the flusher first (unpark so it notices immediately),
        // close the channel so the snapshot worker drains and exits,
        // then sync whatever tail is left.
        self.flusher_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.flusher.lock().take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        *self.tx.lock() = None;
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
        let mut wal = self.wal.lock();
        let _ = wal.writer.sync();
    }
}

/// Writes and syncs a cold run through one handle, so a failure at any
/// step is the caller's error and not a file that merely looks written.
fn write_cold_run(
    path: &Path,
    records: &[(RepFov, SegmentRef)],
    zone: &Zone,
) -> Result<(), StoreError> {
    use std::io::Write;
    let bytes = encode_records(records, Some(zone))
        .map_err(|e| StoreError::Corrupt(format!("encode cold run: {e}")))?;
    let mut f = std::fs::File::create(path).map_err(|e| io_err("create cold run", e))?;
    f.write_all(&bytes)
        .and_then(|()| f.sync_data())
        .map_err(|e| io_err("write cold run", e))
}

/// The group-commit flusher: wakes every `interval_micros`, fsyncs the
/// WAL tail if any appends landed since the last flush. Keeping the
/// fsync here (instead of inline in [`Durability::append`]) means ingest
/// threads never wait on the disk — and the `sync_data` itself runs on a
/// cloned fd *outside* the writer lock, so appends keep flowing while
/// the disk works. The durability lag is bounded by the interval plus
/// one flush.
fn spawn_wal_flusher(
    wal: Arc<Mutex<WalState>>,
    shared: Arc<Shared>,
    interval_micros: u64,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("swag-wal-sync".into())
        .spawn(move || loop {
            std::thread::park_timeout(std::time::Duration::from_micros(interval_micros));
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let job = wal.lock().writer.begin_background_sync();
            if let Some((file, covered, epoch)) = job {
                let t0 = shared.clock.now_micros();
                if file.sync_data().is_ok() {
                    let micros = shared.clock.now_micros().saturating_sub(t0);
                    wal.lock().writer.finish_background_sync(covered, epoch);
                    if let Some(obs) = shared.obs.get() {
                        obs.wal_fsync_micros.record(micros);
                    }
                }
            }
        })
        .expect("spawn wal flusher")
}

/// Newest coalesced snapshot job: store clone, per-bucket stamp
/// versions, retracted providers, and the WAL floor the snapshot will
/// cover.
type PendingSnapshot = (SegmentStore, Arc<BTreeMap<i64, u64>>, Arc<Retracted>, u64);

fn spawn_snapshot_worker(
    rx: Receiver<Job>,
    snap_dir: PathBuf,
    mut manifest: Manifest,
    width_s: f64,
    shared: Arc<Shared>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("swag-snapshot".into())
        .spawn(move || {
            // Bucket versions this worker has written. Stamp versions
            // restart in every process, so the loaded manifest's versions
            // say nothing about the current store: every bucket counts
            // as changed until this process has written it once.
            let mut written: Arc<BTreeMap<i64, u64>> = Arc::default();
            while let Ok(first) = rx.recv() {
                // Coalesce the queue: only the newest store clone matters,
                // retirements and quiesce acks accumulate.
                let mut snapshot: Option<PendingSnapshot> = None;
                let mut retire_all: Vec<PathBuf> = Vec::new();
                let mut acks: Vec<Sender<()>> = Vec::new();
                let mut absorb = |job: Job| match job {
                    Job::Snapshot {
                        store,
                        versions,
                        retracted,
                        wal_floor,
                        mut retire,
                    } => {
                        retire_all.append(&mut retire);
                        if snapshot
                            .as_ref()
                            .is_none_or(|(.., floor)| *floor <= wal_floor)
                        {
                            snapshot = Some((store, versions, retracted, wal_floor));
                        }
                    }
                    Job::Quiesce(ack) => acks.push(ack),
                };
                absorb(first);
                while let Ok(job) = rx.try_recv() {
                    absorb(job);
                }
                if let Some(job) = snapshot {
                    let t0 = shared.clock.now_micros();
                    match write_incremental_snapshot(&snap_dir, &manifest, &written, &job, width_s)
                    {
                        Ok((next, old_files, rewritten)) => {
                            written = job.1;
                            for path in old_files.into_iter().chain(retire_all.drain(..)) {
                                let _ = std::fs::remove_file(path);
                            }
                            manifest = next;
                            let now = shared.clock.now_micros();
                            shared.snapshots_written.fetch_add(1, Ordering::Relaxed);
                            shared
                                .snapshot_buckets_written
                                .fetch_add(rewritten, Ordering::Relaxed);
                            shared.last_snapshot_at.store(now + 1, Ordering::Relaxed);
                            if let Some(obs) = shared.obs.get() {
                                obs.snapshots.inc();
                                obs.snapshot_buckets.add(rewritten);
                                obs.snapshot_micros.record(now.saturating_sub(t0));
                            }
                        }
                        Err(_) => {
                            // Leave manifest and WAL segments in place; the
                            // next publish retries with a newer store.
                        }
                    }
                }
                for ack in acks {
                    let _ = ack.send(());
                }
            }
        })
        .expect("spawn snapshot worker")
}

/// Writes the bucket files whose version differs from `written` (the
/// versions of this process's last snapshot) plus the new manifest;
/// returns the new manifest, the superseded files to delete, and how
/// many bucket files were rewritten.
fn write_incremental_snapshot(
    snap_dir: &Path,
    prev: &Manifest,
    written: &BTreeMap<i64, u64>,
    (store, versions, retracted, wal_floor): &PendingSnapshot,
    width_s: f64,
) -> std::io::Result<(Manifest, Vec<PathBuf>, u64)> {
    use std::io::Write;
    let wal_floor = *wal_floor;
    // Buckets whose stamp version moved since this process last wrote.
    let changed: BTreeMap<i64, u64> = versions
        .iter()
        .filter(|(b, v)| written.get(b) != Some(*v))
        .map(|(b, v)| (*b, *v))
        .collect();

    let mut grouped: BTreeMap<i64, Vec<(RepFov, SegmentRef)>> =
        changed.keys().map(|b| (*b, Vec::new())).collect();
    if !changed.is_empty() {
        for rec in store.iter() {
            let b = home_bucket(rec.rep.t_start, width_s);
            if let Some(bucket_records) = grouped.get_mut(&b) {
                bucket_records.push((rec.rep, rec.source));
            }
        }
    }

    let mut next = prev.clone();
    next.wal_floor = wal_floor;
    next.retracted = (**retracted).clone();
    let mut old_files = Vec::new();
    let mut rewritten = 0u64;
    for (bucket, records) in &grouped {
        let version = changed[bucket];
        let old = next.buckets.remove(bucket);
        if !records.is_empty() {
            let file = format!("bucket-{bucket}-f{wal_floor}-v{version}.run");
            let path = snap_dir.join(&file);
            let bytes = encode_records(records, None)
                .map_err(|e| std::io::Error::other(format!("encode bucket {bucket}: {e}")))?;
            let mut f = std::fs::File::create(&path)?;
            f.write_all(&bytes)?;
            f.sync_data()?;
            next.buckets.insert(
                *bucket,
                BucketEntry {
                    version,
                    file,
                    count: records.len() as u64,
                    crc: crate::crc::crc32(&bytes),
                },
            );
            rewritten += 1;
        }
        if let Some(old_entry) = old {
            if next.buckets.get(bucket).map(|e| &e.file) != Some(&old_entry.file) {
                old_files.push(snap_dir.join(old_entry.file));
            }
        }
    }
    next.store(snap_dir)?;
    Ok((next, old_files, rewritten))
}
