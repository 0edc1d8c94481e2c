//! End-to-end tests of the `swag` binary: every subcommand exercised
//! against real files in a temp directory.

use std::path::PathBuf;
use std::process::{Command, Output};

fn swag(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_swag"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swag-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn help_prints_usage() {
    let out = swag(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    for command in ["frobnicate", "serve", "top"] {
        let out = swag(&[command]);
        assert!(!out.status.success(), "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown command"), "{command}: {stderr}");
    }
}

#[test]
fn simulate_writes_valid_trace_csv() {
    let trace = tmp("sim.csv");
    let out = swag(&[
        "simulate",
        "--scenario",
        "walk",
        "--seed",
        "3",
        "--duration",
        "10",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let content = std::fs::read_to_string(&trace).unwrap();
    assert!(content.starts_with("t,lat,lng,theta\n"));
    assert_eq!(content.lines().count(), 1 + 251); // header + 10 s @ 25 fps
}

#[test]
fn simulate_rejects_unknown_scenario() {
    let out = swag(&["simulate", "--scenario", "submarine"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scenario"));
}

#[test]
fn segment_reports_and_exports_reps() {
    let trace = tmp("seg-in.csv");
    let reps = tmp("seg-out.csv");
    assert!(swag(&[
        "simulate",
        "--scenario",
        "bike",
        "--seed",
        "5",
        "--out",
        trace.to_str().unwrap()
    ])
    .status
    .success());
    let out = swag(&[
        "segment",
        "--in",
        trace.to_str().unwrap(),
        "--thresh",
        "0.5",
        "--out",
        reps.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("segments"), "{stderr}");
    let reps_csv = std::fs::read_to_string(&reps).unwrap();
    assert!(reps_csv.starts_with("t_start,t_end,lat,lng,theta\n"));
    assert!(reps_csv.lines().count() >= 3);
}

/// A fresh (absent) data directory under the test temp dir.
fn data_dir(name: &str) -> PathBuf {
    let dir = tmp(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn ingest_query_retract_cycle() {
    let trace_a = tmp("prov-a.csv");
    let trace_b = tmp("prov-b.csv");
    let db = data_dir("db");
    for (path, seed) in [(&trace_a, "7"), (&trace_b, "8")] {
        assert!(swag(&[
            "simulate",
            "--scenario",
            "bike",
            "--seed",
            seed,
            "--out",
            path.to_str().unwrap()
        ])
        .status
        .success());
    }

    // Two ingests into one directory: the second reopens it and
    // continues the provider numbering.
    for (trace, provider) in [(&trace_a, "0"), (&trace_b, "1")] {
        let out = swag(&[
            "ingest",
            "--data-dir",
            db.to_str().unwrap(),
            trace.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        assert!(
            stderr.contains(&format!("as provider {provider}\n")),
            "{stderr}"
        );
    }
    assert!(db.join("wal").is_dir());

    // Query a spot on the shared route.
    let query = |extra: &[&str]| {
        let mut args = vec![
            "query",
            "--data-dir",
            db.to_str().unwrap(),
            "--lat",
            "40.0005",
            "--lng",
            "116.32",
            "--radius",
            "100",
            "--t0",
            "0",
            "--t1",
            "60",
        ];
        args.extend_from_slice(extra);
        swag(&args)
    };
    let out = query(&["--top", "100"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("hits over"), "{stdout}");
    assert!(stdout.contains("provider    0"), "{stdout}");
    assert!(stdout.contains("provider    1"), "{stdout}");

    // Retract provider 0, verify it disappears.
    let out = swag(&[
        "retract",
        "--data-dir",
        db.to_str().unwrap(),
        "--provider",
        "0",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&query(&["--top", "100"]).stdout).to_string();
    assert!(
        !stdout.contains("provider    0"),
        "provider 0 still visible:\n{stdout}"
    );
    assert!(stdout.contains("provider    1"), "{stdout}");
}

#[test]
fn unknown_options_are_rejected_by_name() {
    // A misspelt option must not run silently with the default.
    let out = swag(&[
        "simulate",
        "--scenario",
        "walk",
        "--duration",
        "1",
        "--tolerence",
        "5",
    ]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "nothing may run before the check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown option '--tolerence' for 'swag simulate'"),
        "{stderr}"
    );
    // An option another subcommand reads is still unknown here.
    let out = swag(&["stats", "--slow-micros", "1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("'--slow-micros'"), "{stderr}");
    let out = swag(&["replay", "--once"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("'--once'"), "{stderr}");
}

#[test]
fn query_validates_arguments() {
    let out = swag(&[
        "query",
        "--data-dir",
        "/nonexistent",
        "--lat",
        "0",
        "--lng",
        "0",
        "--radius",
        "10",
        "--t0",
        "5",
        "--t1",
        "1",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("precedes"));

    let out = swag(&["query", "--lat", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data-dir"));

    // Reading commands never create a directory they were not given.
    let missing = data_dir("never-created");
    let dir = missing.to_str().unwrap();
    let valid = [
        "--lat", "0", "--lng", "0", "--radius", "10", "--t0", "0", "--t1", "1",
    ];
    let out = swag(&[&["query", "--data-dir", dir][..], &valid].concat());
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no data dir"));
    assert!(!missing.exists());
}

#[test]
fn export_writes_geojson() {
    let trace = tmp("exp.csv");
    let geo = tmp("exp.geojson");
    assert!(swag(&[
        "simulate",
        "--scenario",
        "walk",
        "--seed",
        "1",
        "--duration",
        "5",
        "--out",
        trace.to_str().unwrap()
    ])
    .status
    .success());
    let out = swag(&[
        "export",
        "--in",
        trace.to_str().unwrap(),
        "--geojson",
        geo.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&geo).unwrap();
    assert!(json.contains("\"type\":\"FeatureCollection\""));
    assert!(json.contains("\"type\":\"LineString\""));
}

#[test]
fn simplify_reduces_clean_bike_trace_to_corners() {
    let trace = tmp("simp.csv");
    let out_path = tmp("simp-out.csv");
    assert!(swag(&[
        "simulate",
        "--scenario",
        "bike",
        "--seed",
        "2",
        "--out",
        trace.to_str().unwrap()
    ])
    .status
    .success());
    let out = swag(&[
        "simplify",
        "--in",
        trace.to_str().unwrap(),
        "--tolerance",
        "3",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let simplified = std::fs::read_to_string(&out_path).unwrap();
    // A clean L-shaped ride collapses to start, corner, end.
    assert_eq!(simplified.lines().count(), 1 + 3);
}

#[test]
fn query_and_explain_analyze_annotate_operators() {
    let trace = tmp("ana.csv");
    let db = data_dir("ana");
    assert!(swag(&[
        "simulate",
        "--scenario",
        "bike",
        "--seed",
        "7",
        "--out",
        trace.to_str().unwrap()
    ])
    .status
    .success());
    assert!(swag(&[
        "ingest",
        "--data-dir",
        db.to_str().unwrap(),
        trace.to_str().unwrap()
    ])
    .status
    .success());

    let run = |cmd: &str| {
        let out = swag(&[
            cmd,
            "--data-dir",
            db.to_str().unwrap(),
            "--lat",
            "40.0005",
            "--lng",
            "116.32",
            "--radius",
            "100",
            "--t0",
            "0",
            "--t1",
            "60",
            "--analyze",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };

    let explain = run("explain");
    // Every operator annotated with measured time and rows, plus the
    // decision lines.
    for needle in [
        "EXPLAIN ANALYZE",
        "measured:",
        "index_scan",
        "ranking",
        "rows",
        "stamp   : global_gen ",
        "shard probe",
        "digest",
    ] {
        assert!(explain.contains(needle), "missing {needle:?}:\n{explain}");
    }
    assert!(
        !explain.contains("delta"),
        "no delta stage left:\n{explain}"
    );

    // `query --analyze` renders the same report, then the hits.
    let query = run("query");
    assert!(query.contains("measured:"), "{query}");
    assert!(query.contains("hits over"), "{query}");
}

#[test]
fn events_capture_replays_to_matching_digest() {
    let capture = tmp("cap.jsonl");
    let _ = std::fs::remove_file(&capture);
    let out = swag(&[
        "events",
        "--once",
        "--slow",
        "--ticks",
        "6",
        "--seed",
        "9",
        "--threads",
        "2",
        "--out",
        capture.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("events kept of"), "{text}");
    assert!(text.contains("digest"), "{text}");
    // Every row splits its latency by operator.
    let rows: Vec<&str> = text.lines().filter(|l| l.starts_with('#')).collect();
    assert!(!rows.is_empty(), "{text}");
    for row in rows {
        for stage in ["(index ", " rank "] {
            assert!(row.contains(stage), "row lacks {stage:?}: {row}");
        }
    }
    let jsonl = std::fs::read_to_string(&capture).unwrap();
    assert!(jsonl.starts_with("{\"capture\":{\"seed\":9,"), "{jsonl}");
    assert!(jsonl.contains("\"words\":["), "{jsonl}");

    // Replaying the slowest served event rebuilds the workload and
    // reproduces the captured result digest.
    let out = swag(&["replay", "--from", capture.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
    assert!(text.contains("digest match:"), "{text}");

    // Captures written while the header still carried a metric-window
    // width replay the same way: the key is ignored.
    assert!(!jsonl.contains("window_millis"), "{jsonl}");
    let legacy_jsonl = jsonl.replacen("\"threads\":2,", "\"threads\":2,\"window_millis\":200,", 1);
    assert!(
        legacy_jsonl.contains("\"window_millis\":200"),
        "{legacy_jsonl}"
    );
    let legacy = tmp("cap-legacy.jsonl");
    std::fs::write(&legacy, legacy_jsonl).unwrap();
    let out = swag(&["replay", "--from", legacy.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("digest match:"), "{text}");

    // Captures written while admission control existed hold shed events
    // among the served ones: replay skips them, says so, and still
    // replays the slowest served event; `--index` naming one fails.
    let (header, served) = jsonl.split_once('\n').unwrap();

    // Captures written while the server had a pending-delta tier and a
    // parallel shard probe carry delta and fan-out words; they decode as
    // reserved and replay the same way.
    let parent: Vec<String> = served.lines().map(as_delta_era_line).collect();
    let parent_capture = tmp("cap-delta-era.jsonl");
    std::fs::write(
        &parent_capture,
        format!("{header}\n{}\n", parent.join("\n")),
    )
    .unwrap();
    let out = swag(&["replay", "--from", parent_capture.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("stamp drift"), "{text}");
    assert!(
        text.trim_end()
            .lines()
            .last()
            .unwrap()
            .starts_with("digest match:"),
        "{text}"
    );

    let first = served.lines().next().unwrap();
    let with_shed = tmp("cap-shed.jsonl");
    std::fs::write(
        &with_shed,
        format!("{header}\n{}\n{served}", as_shed_line(first)),
    )
    .unwrap();
    let out = swag(&["replay", "--from", with_shed.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("skipped 1 shed events"), "{text}");
    assert!(
        text.trim_end()
            .lines()
            .last()
            .unwrap()
            .starts_with("digest match:"),
        "{text}"
    );
    let out = swag(&[
        "replay",
        "--from",
        with_shed.to_str().unwrap(),
        "--index",
        "0",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("shed event: admission control was removed"),
        "{stderr}"
    );
}

/// The `"words"` array of a capture line.
fn words_of(line: &str) -> Vec<u64> {
    let start = line.find("\"words\":[").unwrap() + "\"words\":[".len();
    let end = start + line[start..].find(']').unwrap();
    line[start..end]
        .split(',')
        .map(|w| w.parse().unwrap())
        .collect()
}

/// `line` as a build with a pending-delta tier and a parallel shard
/// probe wrote it: delta generation and length (words 10, 11), delta
/// scan micros and rows (20–22) and delta hits (27) set, and a fanned-out
/// probe (flag bit 3) with its items, estimated work and threads (13–15).
fn as_delta_era_line(line: &str) -> String {
    let mut words = words_of(line);
    for (w, v) in [(10, 4), (11, 37), (20, 3), (21, 37), (22, 5), (27, 2)] {
        words[w] = v;
    }
    words[1] |= 1 << 3;
    words[13] = 140_000;
    words[14] = 131_072.5f64.to_bits();
    words[15] = 2;
    let words: Vec<String> = words.iter().map(u64::to_string).collect();
    format!("{{\"v\":1,\"words\":[{}]}}", words.join(","))
}

/// `line` as a build with admission control wrote a rate-limited shed:
/// outcome bits 4–5 = 1, the token-balance flag (bit 8) and word 16 set.
fn as_shed_line(line: &str) -> String {
    let mut words = words_of(line);
    words[1] |= (1 << 4) | (1 << 8);
    words[16] = 0.5f64.to_bits();
    let words: Vec<String> = words.iter().map(u64::to_string).collect();
    format!(
        "{{\"v\":1,\"words\":[{}],\"outcome\":\"shed_rate_limited\"}}",
        words.join(",")
    )
}
