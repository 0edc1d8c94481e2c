//! End-to-end durability tests: WAL replay, crash recovery at arbitrary
//! truncation points, durable retraction (of live and demoted rows),
//! cold-tier demotion, and the query/analyze equivalence with a cold tier
//! attached.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use swag_core::{CameraProfile, DescriptorCodec, Fov, RepFov, UploadBatch};
use swag_geo::LatLon;
use swag_server::{
    result_digest, CacheConfig, CloudServer, DurabilityConfig, Query, QueryOptions, SegmentId,
    SegmentRef, ServerConfig, StoreError,
};

fn base() -> LatLon {
    LatLon::new(40.0, 116.32)
}

fn tmp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "swag-server-dur-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Monotone-t workload: record `i` starts at `i * step` seconds, filmed
/// near the base point so a wide query sees everything. Reps are
/// canonicalised through the upload descriptor codec — the WAL and
/// snapshot store codec-encoded records, so only codec-exact inputs can
/// round-trip bit-identically (the codec is idempotent past one pass).
fn rec(i: u64, step: f64) -> (RepFov, SegmentRef) {
    let t = i as f64 * step;
    let p = base().offset(i as f64 * 13.0 % 360.0, 5.0 + (i % 40) as f64);
    let rep = RepFov::new(t, t + 4.0, Fov::new(p, (i as f64 * 37.0) % 360.0));
    let mut buf = bytes::BytesMut::new();
    swag_core::DescriptorCodec::encode_rep(&rep, &mut buf).unwrap();
    let rep = swag_core::DescriptorCodec::decode_rep(&mut buf.freeze()).unwrap();
    (
        rep,
        SegmentRef {
            provider_id: i % 5,
            video_id: i / 5,
            segment_idx: i as u32,
        },
    )
}

fn wide_opts() -> QueryOptions {
    QueryOptions {
        top_n: usize::MAX,
        direction_filter: false,
        ..QueryOptions::default()
    }
}

/// Digest of everything a server holds in a window, via the normal
/// query path (the same FNV digest the wide-event log records).
fn digest(server: &CloudServer, t_end: f64) -> u64 {
    let q = Query::new(0.0, t_end, base(), 5_000.0);
    result_digest(&server.query(&q, &wide_opts()))
}

fn durable_config() -> ServerConfig {
    ServerConfig {
        durability: DurabilityConfig {
            // Every append fsyncs: the durable prefix is exactly the
            // whole frames on disk, which the crash property relies on.
            fsync_interval_micros: 0,
            // Snapshot on every publish; these workloads are far below
            // the production byte gate.
            snapshot_min_wal_bytes: 0,
        },
        ..ServerConfig::default()
    }
}

/// [`durable_config`] that never snapshots: every op stays in the WAL.
fn wal_only_config() -> ServerConfig {
    let mut config = durable_config();
    config.durability.snapshot_min_wal_bytes = u64::MAX;
    config
}

/// The last (highest-sequence) WAL segment file in a data dir.
fn last_wal_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .collect();
    files.sort();
    files.pop().expect("a WAL segment exists")
}

/// Replay folds each run of consecutive WAL appends once: 45 appends
/// into one bucket, which the writer folded one by one into several
/// runs, come back as a single packed run with the same answers.
#[test]
fn recovery_folds_a_run_of_appends_once() {
    let dir = tmp_dir();
    let q = Query::new(0.0, 1e9, base(), 5_000.0);
    let n = 45u64;
    let (written, writer_plan) = {
        let server = CloudServer::open(&dir, CameraProfile::smartphone(), wal_only_config())
            .expect("open fresh data dir");
        for i in 0..n {
            let (rep, source) = rec(i, 2.0);
            server.ingest_one(rep, source).unwrap();
        }
        let plan = server.explain(&q, &wide_opts());
        (digest(&server, 1e9), plan)
    };
    assert!(!writer_plan.contains("#0(x45/1r)"), "{writer_plan}");
    let recovered =
        CloudServer::open(&dir, CameraProfile::smartphone(), wal_only_config()).expect("reopen");
    let stats = recovered.durability_stats().unwrap();
    assert_eq!(
        stats.snapshots_written, 0,
        "the WAL past the floor holds all {n}"
    );
    let plan = recovered.explain(&q, &wide_opts());
    assert!(plan.contains("probe 1 of 1 live"), "{plan}");
    assert!(plan.contains("#0(x45/1r)"), "{plan}");
    assert_eq!(digest(&recovered, 1e9), written);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reopen_restores_exact_state() {
    let dir = tmp_dir();
    let n = 300u64;
    {
        let server = CloudServer::open(&dir, CameraProfile::smartphone(), durable_config())
            .expect("open fresh data dir");
        for i in 0..n {
            let (rep, source) = rec(i, 2.0);
            server.ingest_one(rep, source).unwrap();
        }
        let stats = server.durability_stats().expect("durable server");
        assert!(stats.wal_records >= n, "every ingest hits the WAL");
        server.quiesce();
        let stats = server.durability_stats().unwrap();
        assert!(stats.snapshots_written >= 1, "publishes snapshot on fold");
        assert_eq!(stats.wal_lag_bytes, 0, "quiesce leaves no unsynced tail");
    }
    let recovered = CloudServer::open(&dir, CameraProfile::smartphone(), durable_config())
        .expect("recover data dir");
    assert_eq!(recovered.stats().segments, n as usize);

    // Byte-for-byte the server a memory-only run would be.
    let memory = CloudServer::new(CameraProfile::smartphone());
    for i in 0..n {
        let (rep, source) = rec(i, 2.0);
        memory.ingest_one(rep, source).unwrap();
    }
    assert_eq!(digest(&recovered, 1e9), digest(&memory, 1e9));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovered_server_keeps_appending() {
    let dir = tmp_dir();
    {
        let server =
            CloudServer::open(&dir, CameraProfile::smartphone(), durable_config()).expect("open");
        for i in 0..50 {
            let (rep, source) = rec(i, 2.0);
            server.ingest_one(rep, source).unwrap();
        }
    }
    {
        let server =
            CloudServer::open(&dir, CameraProfile::smartphone(), durable_config()).expect("reopen");
        for i in 50..100 {
            let (rep, source) = rec(i, 2.0);
            server.ingest_one(rep, source).unwrap();
        }
        server.quiesce();
    }
    let recovered =
        CloudServer::open(&dir, CameraProfile::smartphone(), durable_config()).expect("reopen");
    assert_eq!(recovered.stats().segments, 100);
    std::fs::remove_dir_all(&dir).ok();
}

/// Stamp versions restart in every process: a reopened server's first
/// fold into a bucket the previous process snapshotted can carry the
/// same version number the MANIFEST holds. The snapshot must still
/// rewrite that bucket, or the WAL floor passes the new record and it is
/// lost at the next open.
#[test]
fn reopened_fold_into_a_snapshotted_bucket_is_not_lost() {
    let dir = tmp_dir();
    let open = || CloudServer::open(&dir, CameraProfile::smartphone(), durable_config()).unwrap();
    {
        let server = open();
        let (rep, source) = rec(0, 10.0);
        server.ingest_one(rep, source).unwrap();
        server.quiesce();
    }
    {
        let server = open();
        let (rep, source) = rec(1, 10.0);
        server.ingest_one(rep, source).unwrap();
        server.quiesce();
        assert_eq!(server.stats().segments, 2);
    }
    let reopened = open();
    assert_eq!(reopened.stats().segments, 2, "the second record survives");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retraction_is_durable() {
    let dir = tmp_dir();
    {
        let server =
            CloudServer::open(&dir, CameraProfile::smartphone(), durable_config()).expect("open");
        for i in 0..40 {
            let (rep, source) = rec(i, 2.0);
            server.ingest_one(rep, source).unwrap();
        }
        assert_eq!(server.retract_provider(3).unwrap(), 8);
    }
    let recovered =
        CloudServer::open(&dir, CameraProfile::smartphone(), durable_config()).expect("reopen");
    assert_eq!(recovered.stats().segments, 32);
    let hits = recovered.query(&Query::new(0.0, 1e9, base(), 5_000.0), &wide_opts());
    assert!(hits.iter().all(|h| h.source.provider_id != 3));
    std::fs::remove_dir_all(&dir).ok();
}

/// A rep the descriptor codec cannot encode (negative start time) is
/// refused before anything is logged or folded — with it, the whole
/// batch that carries it — and none of it comes back after a reopen.
#[test]
fn unencodable_rep_is_refused_and_never_recovered() {
    let dir = tmp_dir();
    let bad = RepFov::new(-1.0, 3.0, Fov::new(base(), 0.0));
    let (good, _) = rec(1, 2.0);
    {
        let mut server =
            CloudServer::open(&dir, CameraProfile::smartphone(), wal_only_config()).unwrap();
        let registry = swag_obs::Registry::new();
        server.attach_observability(&registry);
        let source = SegmentRef {
            provider_id: 1,
            video_id: 0,
            segment_idx: 0,
        };
        let err = server.ingest_one(bad, source).unwrap_err();
        assert!(matches!(err, StoreError::Codec(_)), "{err}");
        let batch = UploadBatch {
            provider_id: 2,
            video_id: 0,
            reps: vec![good, bad, good],
        };
        assert_eq!(server.ingest_batch(&batch), Vec::<SegmentId>::new());
        assert_eq!(server.stats().segments, 0);
        assert!(server
            .query(&Query::new(0.0, 1e9, base(), 5_000.0), &wide_opts())
            .is_empty());
        let stats = server.durability_stats().unwrap();
        assert_eq!((stats.wal_append_errors, stats.wal_records), (2, 0));
        server.refresh_gauges(&registry);
        assert_eq!(
            registry.counter("swag_store_wal_append_errors_total").get(),
            2
        );
    }
    let reopened = CloudServer::open(&dir, CameraProfile::smartphone(), wal_only_config()).unwrap();
    assert_eq!(reopened.stats().segments, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A batch whose frame would exceed the WAL's payload bound is refused
/// whole: a frame that large would read as a tear at the next open and
/// take every later frame with it.
#[test]
fn oversized_batch_is_refused() {
    let dir = tmp_dir();
    let server = CloudServer::open(&dir, CameraProfile::smartphone(), wal_only_config()).unwrap();
    let (rep, _) = rec(0, 2.0);
    let batch = UploadBatch {
        provider_id: 0,
        video_id: 0,
        reps: vec![rep; swag_store::MAX_FRAME_PAYLOAD / DescriptorCodec::RECORD_SIZE + 1],
    };
    assert!(server.ingest_batch(&batch).is_empty());
    assert_eq!(server.stats().segments, 0);
    assert_eq!(server.durability_stats().unwrap().wal_append_errors, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every non-empty ingest call is one WAL frame, however many segments
/// it carries, and a reopen folds the frames back to the same answers.
#[test]
fn one_frame_per_ingest_call() {
    let dir = tmp_dir();
    let written = {
        let server =
            CloudServer::open(&dir, CameraProfile::smartphone(), wal_only_config()).unwrap();
        for (video_id, n) in [(0u64, 5u64), (1, 0), (2, 7), (3, 1)] {
            let batch = UploadBatch {
                provider_id: 9,
                video_id,
                reps: (0..n).map(|i| rec(video_id * 10 + i, 2.0).0).collect(),
            };
            assert_eq!(server.ingest_batch(&batch).len(), n as usize);
        }
        for i in 40..42 {
            let (rep, source) = rec(i, 2.0);
            server.ingest_one(rep, source).unwrap();
        }
        let stats = server.durability_stats().unwrap();
        assert_eq!((stats.wal_records, stats.wal_seq), (5, 5));
        digest(&server, 1e9)
    };
    let reopened = CloudServer::open(&dir, CameraProfile::smartphone(), wal_only_config()).unwrap();
    assert_eq!(reopened.stats().segments, 15);
    assert_eq!(digest(&reopened, 1e9), written);
    std::fs::remove_dir_all(&dir).ok();
}

/// A WAL written before batch frames — one tag-1 frame per segment —
/// still opens, to the answers a memory-only server gives.
#[test]
fn parent_era_wal_reopens_to_the_same_digest() {
    let dir = tmp_dir();
    let memory = CloudServer::new(CameraProfile::smartphone());
    let mut wal = Vec::new();
    for i in 0..30 {
        let (rep, source) = rec(i, 2.0);
        memory.ingest_one(rep, source).unwrap();
        let mut payload = vec![1u8];
        payload.extend_from_slice(&source.provider_id.to_le_bytes());
        payload.extend_from_slice(&source.video_id.to_le_bytes());
        payload.extend_from_slice(&source.segment_idx.to_le_bytes());
        let mut wire = bytes::BytesMut::new();
        DescriptorCodec::encode_rep(&rep, &mut wire).unwrap();
        payload.extend_from_slice(&wire.to_vec());
        wal.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wal.extend_from_slice(&swag_store::crc32(&payload).to_le_bytes());
        wal.extend_from_slice(&payload);
    }
    std::fs::create_dir_all(dir.join("wal")).unwrap();
    std::fs::write(dir.join("wal/wal-00000000000000000000.log"), wal).unwrap();
    let reopened = CloudServer::open(&dir, CameraProfile::smartphone(), wal_only_config()).unwrap();
    assert_eq!(reopened.stats().segments, 30);
    assert_eq!(digest(&reopened, 1e9), digest(&memory, 1e9));
    std::fs::remove_dir_all(&dir).ok();
}

/// The providers a wide query over `[t0, t1]` returns, deduplicated.
fn providers_in(server: &CloudServer, t0: f64, t1: f64) -> Vec<u64> {
    let hits = server.query(&Query::new(t0, t1, base(), 5_000.0), &wide_opts());
    let mut providers: Vec<u64> = hits.iter().map(|h| h.source.provider_id).collect();
    providers.sort_unstable();
    providers.dedup();
    providers
}

/// Retraction reaches the cold tier (§I: a contributor stays in control
/// of their descriptors). Provider 7's old footage is demoted, then 7
/// retracts: its cold rows vanish — from a cached answer too — and stay
/// gone after a reopen, whether a snapshot (the manifest) or only the
/// WAL recorded the retraction. Footage 7 uploads after retracting is
/// served, also once it is demoted in turn.
#[test]
fn retraction_hides_demoted_rows() {
    // 0: every publish snapshots, so the manifest carries the retraction.
    // u64::MAX: nothing ever snapshots; the server is dropped with the
    // retraction in the WAL alone.
    for snapshot_min_wal_bytes in [0, u64::MAX] {
        let dir = tmp_dir();
        let mut config = durable_config();
        config.durability.snapshot_min_wal_bytes = snapshot_min_wal_bytes;
        config.cache = CacheConfig::enabled(64);
        let at = |i: u64, t: f64, provider_id: u64| {
            let (mut rep, mut source) = rec(i, 1.0);
            rep.t_start = t;
            rep.t_end = t + 4.0;
            source.provider_id = provider_id;
            (rep, source)
        };
        {
            let server = CloudServer::open(&dir, CameraProfile::smartphone(), config).unwrap();
            // Bucket 0 (width 600 s): providers 7 and 8; bucket 2: 8.
            for i in 0..10 {
                let (rep, source) = at(i, i as f64 * 4.0, 7 + i % 2);
                server.ingest_one(rep, source).unwrap();
            }
            for i in 10..14 {
                let (rep, source) = at(i, 1_300.0 + i as f64, 8);
                server.ingest_one(rep, source).unwrap();
            }
            assert_eq!(server.expire_before(700.0).unwrap(), 10);
            // Answered from the cold run, and cached.
            assert_eq!(providers_in(&server, 0.0, 100.0), [7, 8]);
            assert_eq!(
                server.retract_provider(7).unwrap(),
                0,
                "nothing of 7 is live"
            );
            assert_eq!(providers_in(&server, 0.0, 100.0), [8]);

            // 7 uploads again, and that footage ages out too.
            for i in 14..18 {
                let (rep, source) = at(i, 1_900.0 + i as f64, 7);
                server.ingest_one(rep, source).unwrap();
            }
            assert_eq!(providers_in(&server, 1_800.0, 2_000.0), [7]);
            assert_eq!(server.expire_before(2_400.0).unwrap(), 8);
            assert!(server.durability_stats().unwrap().cold_runs >= 3);
            assert_eq!(providers_in(&server, 1_800.0, 2_000.0), [7]);
            assert_eq!(providers_in(&server, 0.0, 100.0), [8]);
        }
        let manifest = std::fs::read_to_string(dir.join("snapshots/MANIFEST")).unwrap_or_default();
        assert_eq!(
            manifest.contains("\nretracted 7 1\n"),
            snapshot_min_wal_bytes == 0,
            "{manifest}"
        );
        let reopened = CloudServer::open(&dir, CameraProfile::smartphone(), config).unwrap();
        assert_eq!(providers_in(&reopened, 0.0, 100.0), [8]);
        assert_eq!(providers_in(&reopened, 1_800.0, 2_000.0), [7]);
        assert_eq!(providers_in(&reopened, 0.0, 1e9), [7, 8]);
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn expired_shards_demote_to_cold_and_stay_queryable() {
    let dir = tmp_dir();
    let server =
        CloudServer::open(&dir, CameraProfile::smartphone(), durable_config()).expect("open");
    // Two time-shard buckets (width 600 s): old records in bucket 0,
    // fresh ones in bucket 2.
    for i in 0..12 {
        let (rep, source) = rec(i, 2.0); // t in [0, 24] -> bucket 0
        server.ingest_one(rep, source).unwrap();
    }
    for i in 0..12 {
        let (mut rep, source) = rec(i, 2.0);
        rep.t_start += 1300.0; // bucket 2
        rep.t_end += 1300.0;
        server.ingest_one(rep, source).unwrap();
    }
    let before = server.query(&Query::new(0.0, 100.0, base(), 5_000.0), &wide_opts());
    assert_eq!(before.len(), 12);
    let dropped = server.expire_before(700.0).unwrap();
    assert_eq!(dropped, 12, "bucket 0 expires wholesale");
    let stats = server.durability_stats().unwrap();
    assert!(stats.cold_runs >= 1, "expiry demoted instead of dropping");
    assert!(stats.cold_segments >= 12);

    // The old window is still answerable — from the cold tier, flagged
    // with the sentinel id (cold records have no live store slot).
    let cold_hits = server.query(&Query::new(0.0, 100.0, base(), 5_000.0), &wide_opts());
    assert_eq!(cold_hits.len(), 12);
    assert!(cold_hits.iter().all(|h| h.id == SegmentId(u32::MAX)));
    let mut a: Vec<_> = before.iter().map(|h| h.source).collect();
    let mut b: Vec<_> = cold_hits.iter().map(|h| h.source).collect();
    a.sort_by_key(|s| (s.provider_id, s.video_id, s.segment_idx));
    b.sort_by_key(|s| (s.provider_id, s.video_id, s.segment_idx));
    assert_eq!(a, b, "demotion loses nothing");

    // EXPLAIN shows the cold stage; ANALYZE agrees byte-for-byte with
    // the normal path and reports the cold scan's work.
    let q = Query::new(0.0, 100.0, base(), 5_000.0);
    let explain = server.explain(&q, &wide_opts());
    assert!(explain.contains("cold_scan"), "explain: {explain}");
    let analyzed = server.query_analyzed(1, &q, &wide_opts());
    assert_eq!(
        result_digest(&analyzed.hits),
        result_digest(&cold_hits),
        "analyzed run matches the normal path with cold attached"
    );
    let cold = analyzed.report.cold.expect("cold tier was scanned");
    assert_eq!(cold.hits, 12);
    assert!(cold.rows_in >= 12);
    assert!(analyzed.report.render().contains("cold_scan"));

    // A window disjoint from everything demoted is pruned by the zone
    // maps: the cold operator still runs, but examines no row.
    let hot = Query::new(1_290.0, 1_400.0, base(), 5_000.0);
    let analyzed = server.query_analyzed(1, &hot, &wide_opts());
    assert_eq!(analyzed.hits.len(), 12);
    let cold = analyzed.report.cold.expect("cold operator ran");
    assert_eq!((cold.rows_in, cold.hits), (0, 0));
    // So is one that overlaps in time but lies elsewhere in space.
    let away = Query::new(0.0, 100.0, base().offset(90.0, 20_000.0), 500.0);
    let cold = server.query_analyzed(1, &away, &wide_opts()).report.cold;
    assert_eq!(cold.expect("cold operator ran").rows_in, 0);

    // Cold runs survive a restart.
    server.quiesce();
    drop(server);
    let recovered =
        CloudServer::open(&dir, CameraProfile::smartphone(), durable_config()).expect("reopen");
    let after = recovered.query(&Query::new(0.0, 100.0, base(), 5_000.0), &wide_opts());
    assert_eq!(result_digest(&after), result_digest(&cold_hits));
    std::fs::remove_dir_all(&dir).ok();
}

/// Demotes four buckets of ten records each (width 600 s, records
/// every 60 s) beside a live tail, and returns the server.
fn server_with_cold_history(dir: &Path) -> CloudServer {
    let server =
        CloudServer::open(dir, CameraProfile::smartphone(), durable_config()).expect("open");
    for i in 0..50 {
        let (rep, source) = rec(i, 60.0);
        server.ingest_one(rep, source).unwrap();
    }
    assert_eq!(server.expire_before(2_400.0).unwrap(), 40);
    server.quiesce();
    server
}

fn cold_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("cold"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .collect();
    files.sort();
    files
}

#[test]
fn reopen_reads_cold_headers_only_and_hot_queries_open_nothing() {
    let dir = tmp_dir();
    let runs = {
        let server = server_with_cold_history(&dir);
        let stats = server.durability_stats().unwrap();
        assert_eq!(stats.cold_segments, 40);
        stats.cold_runs
    };
    assert!(runs >= 4);
    let server =
        CloudServer::open(&dir, CameraProfile::smartphone(), durable_config()).expect("reopen");
    let stats = server.durability_stats().unwrap();
    assert_eq!((stats.cold_runs, stats.cold_segments), (runs, 40));
    assert_eq!((stats.cold_runs_opened, stats.cold_resident_bytes), (0, 0));

    // A query inside the live horizon is answered without touching a run.
    let hot = Query::new(2_400.0, 3_000.0, base(), 5_000.0);
    assert_eq!(server.query(&hot, &wide_opts()).len(), 10);
    let stats = server.durability_stats().unwrap();
    assert_eq!((stats.cold_runs_opened, stats.cold_resident_bytes), (0, 0));
    assert!(stats.cold_runs_pruned >= runs as u64);

    // A historical one opens exactly the runs its window overlaps.
    let old = Query::new(700.0, 1_100.0, base(), 5_000.0);
    assert_eq!(server.query(&old, &wide_opts()).len(), 7);
    let opened = server.durability_stats().unwrap().cold_runs_opened;
    assert!(
        (1..runs as u64).contains(&opened),
        "opened {opened} of {runs}"
    );
    let explain = server.explain(&old, &wide_opts());
    assert!(
        explain.contains(&format!(
            "{opened} of {runs} cold runs overlap the window and area, {opened} resident"
        )),
        "explain: {explain}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn runs_without_a_trustworthy_zone_map_still_load_and_answer() {
    let dir = tmp_dir();
    let everything = Query::new(0.0, 1e9, base(), 5_000.0);
    let narrow = Query::new(700.0, 1_100.0, base(), 5_000.0);
    let (all, some) = {
        let server = server_with_cold_history(&dir);
        (
            result_digest(&server.query(&everything, &wide_opts())),
            result_digest(&server.query(&narrow, &wide_opts())),
        )
    };
    let files = cold_files(&dir);
    // One run back in the layout the previous release wrote: 8-byte
    // header, no zone map.
    let raw = std::fs::read(&files[0]).unwrap();
    let records = swag_store::decode_container(&raw).unwrap();
    std::fs::write(
        &files[0],
        swag_store::encode_records(&records, None).unwrap(),
    )
    .unwrap();
    // One whose header fails its crc while the body (footer recomputed)
    // is intact: the zone is not believed, the records are.
    let mut raw = std::fs::read(&files[1]).unwrap();
    raw[20] ^= 0x40;
    let body_end = raw.len() - 4;
    let footer = swag_store::crc32(&raw[..body_end]);
    raw[body_end..].copy_from_slice(&footer.to_le_bytes());
    std::fs::write(&files[1], raw).unwrap();

    let server =
        CloudServer::open(&dir, CameraProfile::smartphone(), durable_config()).expect("reopen");
    let stats = server.durability_stats().unwrap();
    assert_eq!(stats.cold_segments, 40);
    assert_eq!((stats.cold_run_errors, stats.cold_resident_bytes), (0, 0));
    assert_eq!(result_digest(&server.query(&narrow, &wide_opts())), some);
    assert_eq!(result_digest(&server.query(&everything, &wide_opts())), all);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_cold_run_is_typed_counted_and_named() {
    let dir = tmp_dir();
    let everything = Query::new(0.0, 1e9, base(), 5_000.0);
    let before = server_with_cold_history(&dir).query(&everything, &wide_opts());
    assert_eq!(before.len(), 50);
    let files = cold_files(&dir);
    let lost = swag_store::decode_container(&std::fs::read(&files[0]).unwrap())
        .unwrap()
        .len();
    std::fs::write(&files[0], b"garbage").unwrap();

    let mut server =
        CloudServer::open(&dir, CameraProfile::smartphone(), durable_config()).expect("reopen");
    let registry = swag_obs::Registry::new();
    server.attach_observability(&registry);
    server.refresh_gauges(&registry);
    assert_eq!(
        registry.counter("swag_store_cold_run_errors_total").get(),
        1
    );
    let stats = server.durability_stats().unwrap();
    assert_eq!(stats.cold_run_errors, 1);
    assert_eq!(stats.cold_segments as usize, 40 - lost);

    // The other runs answer as before; the bad one is reported, by file
    // name and cause, instead of reading as an empty run.
    let after = server.query(&everything, &wide_opts());
    assert_eq!(after.len(), 50 - lost);
    assert!(after.iter().all(|h| before.contains(h)));
    let explain = server.explain(&everything, &wide_opts());
    let name = files[0].file_name().unwrap().to_str().unwrap();
    assert!(
        explain.contains(&format!("unreadable {name} (store corrupt:")),
        "explain: {explain}"
    );
    server.refresh_gauges(&registry);
    assert_eq!(
        registry.counter("swag_store_cold_run_errors_total").get(),
        1
    );
    assert!(registry.counter("swag_store_cold_runs_opened_total").get() >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_demotion_is_counted_not_discarded() {
    let dir = tmp_dir();
    let server =
        CloudServer::open(&dir, CameraProfile::smartphone(), durable_config()).expect("open");
    for i in 0..20 {
        let (rep, source) = rec(i, 60.0);
        server.ingest_one(rep, source).unwrap();
    }
    // The cold directory disappears under the server: retention still
    // runs, and the loss is counted.
    std::fs::remove_dir_all(dir.join("cold")).unwrap();
    assert_eq!(server.expire_before(600.0).unwrap(), 10);
    let stats = server.durability_stats().unwrap();
    assert_eq!((stats.cold_demote_errors, stats.cold_segments), (1, 0));
    assert_eq!(server.stats().segments, 10);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_pipeline_unchanged_without_cold_runs() {
    // Memory-only servers and durable servers with nothing demoted must
    // render the exact pipeline line CI greps for.
    let dir = tmp_dir();
    let server =
        CloudServer::open(&dir, CameraProfile::smartphone(), durable_config()).expect("open");
    let (rep, source) = rec(0, 2.0);
    server.ingest_one(rep, source).unwrap();
    let explain = server.explain(&Query::new(0.0, 100.0, base(), 500.0), &wide_opts());
    assert!(
        explain.contains("index_scan(shard_probe*) -> ranking"),
        "explain: {explain}"
    );
    assert!(!explain.contains("cold_scan"));
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill-at-random-offset crash recovery: truncate the WAL at an
    /// arbitrary byte offset (simulating a crash torn mid-frame) and
    /// recovery must come back as exactly the longest durable prefix of
    /// the op stream — never a hole, never a corrupt record.
    #[test]
    fn crash_at_any_offset_recovers_a_prefix(
        n in 5u64..60,
        cut in 0usize..4096,
    ) {
        let dir = tmp_dir();
        {
            // No snapshot: the WAL is the only durable state, so the
            // truncation point fully determines recovery.
            let server = CloudServer::open(
                &dir,
                CameraProfile::smartphone(),
                wal_only_config(),
            ).unwrap();
            for i in 0..n {
                let (rep, source) = rec(i, 2.0);
                server.ingest_one(rep, source).unwrap();
            }
        }
        let wal = last_wal_file(&dir);
        let len = std::fs::metadata(&wal).unwrap().len();
        let keep = len.saturating_sub(cut as u64);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(keep)
            .unwrap();

        let recovered = CloudServer::open(
            &dir,
            CameraProfile::smartphone(),
            wal_only_config(),
        ).unwrap();
        let k = recovered.stats().segments as u64;
        prop_assert!(k <= n);
        // Monotone workload: the recovered set must be records 0..k, and
        // everything derived from them (digest over a full-window query)
        // must match a memory-only server fed that exact prefix.
        let memory = CloudServer::new(CameraProfile::smartphone());
        for i in 0..k {
            let (rep, source) = rec(i, 2.0);
            memory.ingest_one(rep, source).unwrap();
        }
        prop_assert_eq!(digest(&recovered, 1e9), digest(&memory, 1e9));
        // A cut inside the tail frame loses at most that one frame's op;
        // cutting zero bytes loses nothing.
        if cut == 0 {
            prop_assert_eq!(k, n);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// On a server holding cold runs the cold-scan operator is recorded for
/// every query — also when zone maps prune every run in no measurable
/// time (the clock here never advances) — so `op_micros{op="cold_scan"}`
/// is not biased towards the queries that had to read.
#[test]
fn cold_scan_metrics_count_pruned_queries() {
    let dir = tmp_dir();
    let reg = swag_obs::Registry::new();
    let mut server = CloudServer::open_with_clock(
        &dir,
        CameraProfile::smartphone(),
        durable_config(),
        std::sync::Arc::new(swag_obs::ManualClock::default()),
    )
    .expect("open");
    server.attach_observability(&reg);
    for i in 0..50 {
        let (rep, source) = rec(i, 60.0);
        server.ingest_one(rep, source).unwrap();
    }
    assert_eq!(server.expire_before(2_400.0).unwrap(), 40);
    let hot = Query::new(2_400.0, 3_000.0, base(), 5_000.0);
    for _ in 0..5 {
        assert_eq!(server.query(&hot, &wide_opts()).len(), 10);
    }
    assert_eq!(server.durability_stats().unwrap().cold_runs_opened, 0);
    let cold_op = |family: &str| {
        reg.histogram(&swag_obs::labeled_name(family, &[("op", "cold_scan")]))
            .snapshot()
    };
    let micros = cold_op("swag_server_op_micros");
    assert_eq!((micros.count, micros.sum), (5, 0));
    let rows_in = cold_op("swag_server_op_rows_in");
    assert_eq!((rows_in.count, rows_in.sum), (5, 0));
    std::fs::remove_dir_all(&dir).ok();
}
