//! Parallel executor equivalence and stress: a server on a 4-thread
//! executor must answer **byte-identically** to a serial one — same
//! records, same queries, same ranked hits in the same order — stay
//! consistent while queries race publishes and retractions, and leave no
//! thread behind.

use proptest::prelude::*;
use swag_core::{CameraProfile, Fov, RepFov, UploadBatch};
use swag_exec::{ExecConfig, Executor};
use swag_geo::LatLon;
use swag_server::shard::PARALLEL_MIN_WORK;
use swag_server::{CloudServer, Query, QueryOptions, SegmentRef, ServerConfig};

fn base() -> LatLon {
    LatLon::new(40.0, 116.32)
}

fn par_exec() -> Executor {
    Executor::new(ExecConfig::with_threads(4))
}

/// Narrow shards so even small corpora span several, and a bulk load
/// has several shards to pack in parallel.
fn config() -> ServerConfig {
    ServerConfig {
        shard_width_s: 120.0,
        ..ServerConfig::default()
    }
}

fn arb_rep() -> impl Strategy<Value = RepFov> {
    (
        -800.0f64..800.0,
        -800.0f64..800.0,
        0.0f64..360.0,
        0.0f64..3600.0,
        0.5f64..300.0,
    )
        .prop_map(|(dx, dy, theta, t0, dur)| {
            RepFov::new(
                t0,
                t0 + dur,
                Fov::new(base().offset_by(swag_geo::Vec2::new(dx, dy)), theta),
            )
        })
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        -800.0f64..800.0,
        -800.0f64..800.0,
        10.0f64..500.0,
        0.0f64..3600.0,
        1.0f64..2000.0,
    )
        .prop_map(|(dx, dy, r, t0, win)| {
            Query::new(
                t0,
                t0 + win,
                base().offset_by(swag_geo::Vec2::new(dx, dy)),
                r,
            )
        })
}

fn with_sources(reps: &[RepFov]) -> Vec<(RepFov, SegmentRef)> {
    reps.iter()
        .enumerate()
        .map(|(i, &rep)| {
            (
                rep,
                SegmentRef {
                    provider_id: (i % 7) as u64,
                    video_id: (i / 7) as u64,
                    segment_idx: i as u32,
                },
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bulk-loaded servers: the parallel shard build must produce a snapshot
    /// that answers every query identically to the serial build, whether
    /// asked one at a time or through the parallel batch path.
    #[test]
    fn parallel_server_matches_serial(
        reps in prop::collection::vec(arb_rep(), 0..120),
        queries in prop::collection::vec(arb_query(), 1..12),
    ) {
        let records = with_sources(&reps);
        let serial = CloudServer::from_records_with_config_exec(
            CameraProfile::smartphone(), config(), Executor::serial(), records.clone());
        let parallel = CloudServer::from_records_with_config_exec(
            CameraProfile::smartphone(), config(), par_exec(), records);

        let opts = QueryOptions::default();
        for q in &queries {
            prop_assert_eq!(serial.query(q, &opts), parallel.query(q, &opts));
        }
        prop_assert_eq!(
            serial.query_batch(&queries, &opts, 1),
            parallel.query_batch(&queries, &opts, 4)
        );
    }

    /// Incremental path: the same upload batches pushed through both
    /// servers (each a snapshot publish that STR-packs runs on the
    /// executor) must stay indistinguishable.
    #[test]
    fn parallel_publish_matches_serial_publish(
        batches in prop::collection::vec(prop::collection::vec(arb_rep(), 1..20), 1..6),
        queries in prop::collection::vec(arb_query(), 1..8),
    ) {
        let mut serial = CloudServer::with_config(CameraProfile::smartphone(), config());
        serial.set_executor(Executor::serial());
        let mut parallel = CloudServer::with_config(CameraProfile::smartphone(), config());
        parallel.set_executor(par_exec());

        for (v, reps) in batches.iter().enumerate() {
            let batch = UploadBatch {
                provider_id: 42,
                video_id: v as u64,
                reps: reps.clone(),
            };
            serial.ingest_batch(&batch);
            parallel.ingest_batch(&batch);
        }

        let opts = QueryOptions::default();
        prop_assert_eq!(
            serial.query_batch(&queries, &opts, 1),
            parallel.query_batch(&queries, &opts, 4)
        );
    }
}

/// A bootstrap-sized batch packs its time shards on scoped threads (a
/// publish-sized one stays serial); the server must answer exactly as
/// one built serially, run layout included.
#[test]
fn bootstrap_sized_batch_packs_in_parallel_identically() {
    let reps = bootstrap_reps();
    let exec = par_exec();
    let [serial, parallel] = [Executor::serial(), exec.clone()].map(|e| {
        CloudServer::from_records_with_config_exec(
            CameraProfile::smartphone(),
            config(),
            e,
            with_sources(&reps),
        )
    });
    assert!(exec.stats().tasks > 0, "the bootstrap fanned out");
    let opts = QueryOptions {
        top_n: 500,
        ..QueryOptions::default()
    };
    for (t0, radius) in [(0.0, 5_000.0), (700.0, 40.0), (2900.0, 300.0)] {
        let q = Query::new(t0, t0 + 400.0, base(), radius);
        assert_eq!(serial.query(&q, &opts), parallel.query(&q, &opts));
        assert_eq!(serial.explain(&q, &opts), parallel.explain(&q, &opts));
    }
}

/// The executor keeps no threads between calls: after a bootstrap-sized
/// bulk load and a parallel `query_batch`, the process has exactly the
/// threads it had before. The count runs in a child process holding only
/// [`thread_count_probe`], so no other test's threads come and go
/// meanwhile.
#[cfg(target_os = "linux")]
#[test]
fn parallel_queries_leave_no_threads_behind() {
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "thread_count_probe",
            "--ignored",
            "--test-threads=1",
        ])
        .output()
        .expect("re-run this test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{stdout}"
    );
}

#[cfg(target_os = "linux")]
#[test]
#[ignore = "run in a child process by parallel_queries_leave_no_threads_behind"]
fn thread_count_probe() {
    let tasks = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let before = tasks();
    let exec = par_exec();
    let server = CloudServer::from_records_with_config_exec(
        CameraProfile::smartphone(),
        config(),
        exec.clone(),
        with_sources(&bootstrap_reps()),
    );
    let opts = QueryOptions {
        direction_filter: false,
        ..QueryOptions::default()
    };
    let wide = Query::new(0.0, 2600.0, base(), 5_000.0);
    assert!(!server.query(&wide, &opts).is_empty());
    let batch: Vec<Query> = (0..16)
        .map(|i| Query::new(i as f64 * 100.0, i as f64 * 100.0 + 600.0, base(), 800.0))
        .collect();
    assert_eq!(server.query_batch(&batch, &opts, 4).len(), batch.len());
    if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
        assert!(exec.stats().tasks > 0, "the bulk load and batch fanned out");
    }
    // A joined thread can stay listed for a moment while it finishes
    // exiting; a thread the executor kept would stay listed for good.
    let settled = (0..200).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(5));
        tasks() == before
    });
    assert!(settled, "{} threads before, {} after", before, tasks());
    drop(server);
}

/// Batched parallel queries racing ingest and retraction on a pooled
/// server: every hit must respect the query window/radius and never come
/// from a provider whose retraction had already published.
#[test]
fn parallel_queries_race_publishes_and_retractions() {
    use std::collections::HashSet;
    use std::sync::Mutex;

    let mut server = CloudServer::with_config(
        CameraProfile::smartphone(),
        ServerConfig {
            shard_width_s: 60.0,
            ..ServerConfig::default()
        },
    );
    server.set_executor(par_exec());
    let retracted = Mutex::new(HashSet::new());

    std::thread::scope(|s| {
        // Writers: steady ingest plus churn (ingest then retract).
        for provider in 1..=2u64 {
            let server = &server;
            s.spawn(move || {
                for round in 0..20u64 {
                    let t0 = round as f64 * 45.0;
                    server.ingest_batch(&UploadBatch {
                        provider_id: provider,
                        video_id: round,
                        reps: (0..5)
                            .map(|i| {
                                let p = center_offset(provider, i);
                                RepFov::new(t0 + i as f64, t0 + i as f64 + 2.0, Fov::new(p, 0.0))
                            })
                            .collect(),
                    });
                }
            });
        }
        {
            let (server, retracted) = (&server, &retracted);
            s.spawn(move || {
                for i in 0..10u64 {
                    let provider = 900 + i;
                    server.ingest_batch(&UploadBatch {
                        provider_id: provider,
                        video_id: 0,
                        reps: (0..4)
                            .map(|k| {
                                let t = i as f64 * 80.0 + k as f64;
                                RepFov::new(t, t + 1.0, Fov::new(center_offset(provider, k), 90.0))
                            })
                            .collect(),
                    });
                    server.retract_provider(provider).unwrap();
                    retracted.lock().unwrap().insert(provider);
                }
            });
        }
        // Readers: whole batches of parallel queries mid-churn.
        for r in 0..2 {
            let (server, retracted) = (&server, &retracted);
            s.spawn(move || {
                let opts = QueryOptions {
                    top_n: usize::MAX,
                    direction_filter: false,
                    ..QueryOptions::default()
                };
                for round in 0..15 {
                    let gone: HashSet<u64> = retracted.lock().unwrap().clone();
                    let qs: Vec<Query> = (0..8)
                        .map(|i| {
                            let t0 = ((round * 8 + i + r) % 20) as f64 * 45.0;
                            Query::new(t0, t0 + 200.0, base(), 600.0)
                        })
                        .collect();
                    for (q, hits) in qs.iter().zip(server.query_batch(&qs, &opts, 4)) {
                        for hit in hits {
                            assert!(
                                !gone.contains(&hit.source.provider_id),
                                "hit from provider {} retracted before the batch",
                                hit.source.provider_id
                            );
                            assert!(hit.rep.t_end >= q.t_start && hit.rep.t_start <= q.t_end);
                            assert!(hit.distance_m <= q.radius_m + 1.0);
                        }
                    }
                }
            });
        }
    });

    // Quiescent: a batch over everything equals the per-query answers.
    let opts = QueryOptions {
        top_n: usize::MAX,
        direction_filter: false,
        ..QueryOptions::default()
    };
    let qs: Vec<Query> = (0..10)
        .map(|i| Query::new(i as f64 * 90.0, i as f64 * 90.0 + 300.0, base(), 800.0))
        .collect();
    let batched = server.query_batch(&qs, &opts, 4);
    let single: Vec<_> = qs.iter().map(|q| server.query(q, &opts)).collect();
    assert_eq!(batched, single);
}

/// [`PARALLEL_MIN_WORK`] records over ≈ 3 000 s: a bulk load that packs
/// its shards on scoped threads.
fn bootstrap_reps() -> Vec<RepFov> {
    (0..PARALLEL_MIN_WORK)
        .map(|i| {
            let t0 = (i % 2048) as f64 * 1.5;
            let p = center_offset(i as u64 % 17, i % 9);
            RepFov::new(t0, t0 + 30.0, Fov::new(p, (i % 360) as f64))
        })
        .collect()
}

fn center_offset(provider: u64, i: usize) -> LatLon {
    base().offset(
        f64::from(provider as u32 % 360),
        15.0 + (i as f64) * 5.0 + (provider % 13) as f64,
    )
}
