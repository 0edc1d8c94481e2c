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
    let out = swag(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
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

#[test]
fn ingest_query_retract_cycle() {
    let trace_a = tmp("prov-a.csv");
    let trace_b = tmp("prov-b.csv");
    let snapshot = tmp("db.swag");
    let _ = std::fs::remove_file(&snapshot);
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

    let out = swag(&[
        "ingest",
        "--snapshot",
        snapshot.to_str().unwrap(),
        trace_a.to_str().unwrap(),
        trace_b.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(snapshot.exists());

    // Query a spot on the shared route.
    let query = |extra: &[&str]| {
        let mut args = vec![
            "query",
            "--snapshot",
            snapshot.to_str().unwrap(),
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
    let out = query(&[]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("hits over"), "{stdout}");
    assert!(stdout.contains("provider"), "{stdout}");

    // Retract provider 0, verify it disappears.
    let out = swag(&[
        "retract",
        "--snapshot",
        snapshot.to_str().unwrap(),
        "--provider",
        "0",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&query(&["--top", "100"]).stdout).to_string();
    assert!(
        !stdout.contains("provider    0"),
        "provider 0 still visible:\n{stdout}"
    );
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
        "--snapshot",
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
    assert!(String::from_utf8_lossy(&out.stderr).contains("--snapshot"));
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
fn top_once_renders_dashboard() {
    let out = swag(&["top", "--once", "--window-millis", "200", "--threads", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("live ops surface"), "{text}");
    for op in ["index_scan", "delta_scan", "ranking"] {
        assert!(text.contains(op), "missing operator row {op}:\n{text}");
    }
    assert!(text.contains("slo query_latency"), "{text}");
    assert!(text.contains("slo exec_queue_wait"), "{text}");
    // Windowed admission split and wide-event retention rows.
    assert!(text.contains("rate_limited"), "{text}");
    assert!(text.contains("overloaded"), "{text}");
    assert!(text.contains("events"), "{text}");
    assert!(text.contains("tail-sampled"), "{text}");
    // A single --once frame is plain text for scripts: no ANSI clears.
    assert!(!text.contains('\x1b'), "once frame must not clear screen");
}

#[test]
fn query_and_explain_analyze_annotate_operators() {
    let trace = tmp("ana.csv");
    let snapshot = tmp("ana.swag");
    let _ = std::fs::remove_file(&snapshot);
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
        "--snapshot",
        snapshot.to_str().unwrap(),
        trace.to_str().unwrap()
    ])
    .status
    .success());

    let run = |cmd: &str| {
        let out = swag(&[
            cmd,
            "--snapshot",
            snapshot.to_str().unwrap(),
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
        "delta_scan",
        "ranking",
        "rows",
        "admission:",
        "fanout",
        "digest",
    ] {
        assert!(explain.contains(needle), "missing {needle:?}:\n{explain}");
    }

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
        for stage in ["(index ", " delta ", " rank "] {
            assert!(row.contains(stage), "row lacks {stage:?}: {row}");
        }
    }
    // The shed burst guarantees always-kept shed events in the capture.
    assert!(text.contains("shed_rate_limited"), "{text}");

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
}

#[test]
fn serve_binds_ephemeral_port_and_serves_metrics() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_swag"))
        .args([
            "serve",
            "--metrics-addr",
            "127.0.0.1:0",
            "--duration",
            "30",
            "--window-millis",
            "200",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("serve starts");

    // The address line is printed (and flushed) before the load loop.
    let mut stdout = child.stdout.take().unwrap();
    let addr = {
        use std::io::Read as _;
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while stdout.read(&mut byte).unwrap_or(0) == 1 {
            if byte[0] == b'\n' {
                break;
            }
            buf.push(byte[0]);
        }
        let line = String::from_utf8_lossy(&buf).to_string();
        let addr = line
            .rsplit("http://")
            .next()
            .expect("address line")
            .trim()
            .to_string();
        assert!(
            line.contains("metrics endpoint listening on"),
            "unexpected first line: {line}"
        );
        addr
    };

    // Give the workload a few window widths to accumulate, then scrape.
    std::thread::sleep(std::time::Duration::from_millis(600));
    let metrics = http_get(&addr, "/metrics");
    assert!(metrics.contains("# TYPE swag_server_op_micros histogram"));
    assert!(metrics.contains("swag_server_op_micros_bucket{op=\"index_scan\""));
    assert!(metrics.contains("swag_exec_queue_wait_micros_count"));
    // Windowed exports appear once at least one window has rotated.
    assert!(
        metrics.contains("_w_p99"),
        "expected windowed p99 gauges in:\n{metrics}"
    );
    let health = http_get(&addr, "/healthz");
    assert!(health.contains("ok uptime_micros="), "{health}");

    child.kill().expect("stop serve");
    let _ = child.wait();
}

/// Minimal HTTP GET returning the response body.
fn http_get(addr: &str, path: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics endpoint");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => body.to_string(),
        None => response,
    }
}
