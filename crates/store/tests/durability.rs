//! Durability façade tests: WAL-only recovery, snapshot coverage,
//! incremental bucket rewrites, cold-run reload, legacy retraction
//! frames, and lag/age stats.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use swag_core::{Fov, RepFov, UploadBatch};
use swag_geo::LatLon;
use swag_obs::{ManualClock, MonotonicClock};
use swag_store::{
    home_bucket, Durability, DurabilityConfig, Recovery, SegmentRef, SegmentStore, StoreError,
    WalOp, Zone,
};

fn tmp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "swag-dur-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn rec(t: f64, provider: u64) -> (RepFov, SegmentRef) {
    (
        RepFov::new(t, t + 5.0, Fov::new(LatLon::new(40.0, 116.32), 90.0)),
        SegmentRef {
            provider_id: provider,
            video_id: 0,
            segment_idx: t as u32,
        },
    )
}

/// Logs one record as a one-rep ingest call.
fn log(d: &Durability, (rep, source): (RepFov, SegmentRef)) {
    let batch = UploadBatch {
        provider_id: source.provider_id,
        video_id: source.video_id,
        reps: vec![rep],
    };
    d.append_batch(source.segment_idx, &batch).unwrap();
}

/// Time-only stand-in for the engine's zone definition (every fixture
/// record is filmed at the same point).
fn zone_of(records: &[(RepFov, SegmentRef)]) -> Zone {
    let t0 = records
        .iter()
        .map(|(r, _)| r.t_start)
        .fold(f64::MAX, f64::min);
    let t1 = records
        .iter()
        .map(|(r, _)| r.t_end)
        .fold(f64::MIN, f64::max);
    [116.32, 40.0, t0, 116.32, 40.0, t1]
}

fn open(dir: &Path) -> (Arc<Durability>, Recovery) {
    Durability::open(
        dir,
        600.0,
        DurabilityConfig {
            fsync_interval_micros: 0,
            snapshot_min_wal_bytes: 0,
        },
        Arc::new(ManualClock::new()),
        zone_of,
    )
    .unwrap()
}

#[test]
fn wal_only_recovery_returns_ops() {
    let dir = tmp_dir();
    {
        let (d, recovery) = open(&dir);
        assert!(recovery.records.is_empty() && recovery.ops.is_empty());
        for i in 0..5 {
            log(&d, rec(i as f64 * 10.0, i));
        }
        d.retract(2).unwrap();
    }
    let (_d, recovery) = open(&dir);
    assert!(recovery.records.is_empty(), "no snapshot was published");
    assert_eq!(recovery.ops.len(), 6);
    assert!(matches!(
        recovery.ops[5],
        WalOp::Retract {
            provider_id: 2,
            cold_seq: 0
        }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_covers_and_retires_wal() {
    let dir = tmp_dir();
    {
        let (d, _) = open(&dir);
        let mut store = SegmentStore::new();
        let mut versions = BTreeMap::new();
        for i in 0..10u64 {
            let (rep, source) = rec(i as f64 * 100.0, i);
            log(&d, (rep, source));
            store.push(rep, source);
            *versions.entry(home_bucket(rep.t_start, 600.0)).or_insert(0) += 1;
        }
        d.on_publish(|| (store, Arc::new(versions)));
        d.quiesce();
        let stats = d.stats();
        assert_eq!(stats.snapshots_written, 1);
        assert!(stats.snapshot_buckets_written >= 2);
    }
    // WAL fully covered: recovery is snapshot-only.
    let (_d, recovery) = open(&dir);
    assert_eq!(recovery.records.len(), 10);
    assert!(recovery.ops.is_empty(), "covered WAL replays nothing");
    // Bucket-major load keeps monotone-t ingest order.
    let providers: Vec<u64> = recovery
        .records
        .iter()
        .map(|(_, s)| s.provider_id)
        .collect();
    assert_eq!(providers, (0..10).collect::<Vec<_>>());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn incremental_snapshot_rewrites_only_touched_buckets() {
    let dir = tmp_dir();
    let (d, _) = open(&dir);
    let mut store = SegmentStore::new();
    let mut versions: BTreeMap<i64, u64> = BTreeMap::new();
    for i in 0..4u64 {
        let (rep, source) = rec(i as f64 * 700.0, i); // four distinct buckets
        log(&d, (rep, source));
        store.push(rep, source);
        *versions.entry(home_bucket(rep.t_start, 600.0)).or_insert(0) += 1;
    }
    d.on_publish(|| (store.clone(), Arc::new(versions.clone())));
    d.quiesce();
    assert!(d.stats().snapshot_buckets_written >= 4);
    let before = d.stats().snapshot_buckets_written;
    // Touch one bucket only.
    let (rep, source) = rec(0.0, 99);
    log(&d, (rep, source));
    store.push(rep, source);
    *versions.entry(0).or_insert(0) += 1;
    d.on_publish(|| (store, Arc::new(versions)));
    d.quiesce();
    assert_eq!(
        d.stats().snapshot_buckets_written - before,
        1,
        "only the touched bucket is rewritten"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn demote_and_reload_cold_runs() {
    let dir = tmp_dir();
    let early = [rec(1.0, 1), rec(2.0, 2)];
    let late = [rec(1900.0, 3)];
    {
        let (d, _) = open(&dir);
        d.demote(0, &early, zone_of(&early)).unwrap();
        d.demote(3, &late, zone_of(&late)).unwrap();
        let stats = d.stats();
        assert_eq!((stats.cold_runs, stats.cold_segments), (2, 3));
    }
    let (d, _) = open(&dir);
    // Reopening reads headers only: counts are exact, nothing is opened.
    let stats = d.stats();
    assert_eq!((stats.cold_runs, stats.cold_segments), (2, 3));
    assert_eq!((stats.cold_runs_opened, stats.cold_resident_bytes), (0, 0));
    assert_eq!(d.cold().probe(|_| true).len(), 2);
    let hit = d.cold().probe(|z| z[2] <= 2_000.0 && 1_000.0 <= z[5]);
    assert_eq!(hit.len(), 1);
    assert_eq!(d.cold().records(&hit[0]).unwrap()[0].1, late[0].1);
    assert_eq!(d.stats().cold_runs_opened, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Where provider 1's demoted rows are still served: the first `t_start`
/// of each run holding one that does not hide them.
fn visible_runs_of_provider_1(d: &Durability) -> Vec<u64> {
    let retracted = d.cold().retracted();
    let mut visible = Vec::new();
    for run in d.cold().probe(|_| true) {
        let records = d.cold().records(&run).unwrap();
        if records.iter().any(|(_, s)| s.provider_id == 1) && !run.hides(&retracted, 1) {
            visible.push(records[0].0.t_start as u64);
        }
    }
    visible
}

#[test]
fn legacy_retract_frame_hides_every_run_present_at_open() {
    let dir = tmp_dir();
    {
        let (d, _) = open(&dir);
        let recs = [rec(0.0, 1)];
        d.demote(0, &recs, zone_of(&recs)).unwrap();
    }
    // A build whose Retract body carried the provider only (8 bytes, not
    // 16) logged a retraction of provider 1.
    let payload = [&[2u8][..], &1u64.to_le_bytes()].concat();
    let len = (payload.len() as u32).to_le_bytes();
    let crc = swag_store::crc32(&payload).to_le_bytes();
    let frame = [&len[..], &crc, &payload].concat();
    std::fs::write(dir.join("wal/wal-00000000000000000000.log"), frame).unwrap();
    let (d, recovery) = open(&dir);
    let legacy = WalOp::Retract {
        provider_id: 1,
        cold_seq: swag_store::LEGACY_RETRACT_COLD_SEQ,
    };
    assert_eq!(recovery.ops, [legacy]);
    assert_eq!(visible_runs_of_provider_1(&d), Vec::<u64>::new());
    let recs = [rec(700.0, 1)];
    d.demote(1, &recs, zone_of(&recs)).unwrap();
    assert_eq!(visible_runs_of_provider_1(&d), vec![700]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_demotion_is_returned_and_counted() {
    let dir = tmp_dir();
    let (d, _) = open(&dir);
    let recs = [rec(1.0, 1)];
    // The cold directory vanishes under the server: the write fails.
    std::fs::remove_dir_all(dir.join(swag_store::COLD_DIR)).unwrap();
    let err = d.demote(0, &recs, zone_of(&recs)).unwrap_err();
    assert!(matches!(err, StoreError::Io(_)), "{err}");
    let stats = d.stats();
    assert_eq!(stats.cold_demote_errors, 1);
    assert_eq!((stats.cold_runs, stats.cold_segments), (0, 0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_track_lag_and_snapshot_age() {
    let dir = tmp_dir();
    let clock = Arc::new(ManualClock::new());
    let (d, _) = Durability::open(
        &dir,
        600.0,
        DurabilityConfig {
            fsync_interval_micros: 1_000_000, // never within this test
            ..DurabilityConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn MonotonicClock>,
        zone_of,
    )
    .unwrap();
    let (rep, source) = rec(5.0, 1);
    log(&d, (rep, source));
    let stats = d.stats();
    assert!(stats.wal_lag_bytes > 0, "append not yet fsynced");
    assert_eq!(stats.wal_records, 1);
    assert_eq!(stats.last_snapshot_age_micros, None);
    d.quiesce();
    assert_eq!(d.stats().wal_lag_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Frames `payload` as the WAL does.
fn frame(payload: &[u8]) -> Vec<u8> {
    let len = (payload.len() as u32).to_le_bytes();
    let crc = swag_store::crc32(payload).to_le_bytes();
    [&len[..], &crc, payload].concat()
}

/// A whole, crc-valid frame with a tag this build does not know is not a
/// torn tail: the open fails, names where, and repairs nothing — the
/// frames after it are not truncated away.
#[test]
fn undecodable_frame_fails_open_and_changes_nothing() {
    let dir = tmp_dir();
    let expire = |h: u64| frame(&[&[3u8][..], &(h as f64).to_bits().to_le_bytes()].concat());
    let first = expire(1);
    let raw = [first.clone(), frame(&[9, 1, 2, 3]), expire(2)].concat();
    std::fs::create_dir_all(dir.join("wal")).unwrap();
    let path = dir.join("wal/wal-00000000000000000000.log");
    std::fs::write(&path, &raw).unwrap();
    let err = Durability::open(
        &dir,
        600.0,
        DurabilityConfig::default(),
        Arc::new(ManualClock::new()),
        zone_of,
    )
    .unwrap_err();
    let StoreError::Corrupt(msg) = &err else {
        panic!("{err}")
    };
    assert!(msg.contains("wal-00000000000000000000.log"), "{msg}");
    assert!(msg.contains(&format!("offset {}", first.len())), "{msg}");
    assert_eq!(std::fs::read(&path).unwrap(), raw);
    std::fs::remove_dir_all(&dir).ok();
}
