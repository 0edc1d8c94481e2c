//! `swag_e2e` — the repo's end-to-end benchmark.
//!
//! Drives the paper's real path from outside: `swag-sensors` traces →
//! `swag-client` segmentation/abstraction/codec → `swag-net` arrival
//! order → `DescriptorCodec::decode_batch` → `CloudServer` ingest (WAL,
//! delta, epoch publish, snapshot, cold demotion) → queries (plan,
//! shard/R-tree scan, direction filter, ranking, cache). See `README.md`
//! beside this crate for the metric tables and how to run it.
//!
//! ```text
//! swag_e2e --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! swag_e2e --check-repeat [--workload <name>] [--smoke] ...
//! swag_e2e --list | --benchmark-json
//! ```

mod read_path;
mod run;
mod spec;
mod stats;
mod tracer;
mod workload;
mod write_path;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use run::{run, Outcome, RunArgs};
use spec::{workload, Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{json_str, Host};

/// Where every output goes (result records, traces, scratch data dirs).
const OUT_DIR: &str = "target/benchmark";

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
    list: bool,
    benchmark_json: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        smoke: false,
        check_repeat: false,
        list: false,
        benchmark_json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?,
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--check-repeat" => cli.check_repeat = true,
            "--list" => cli.list = true,
            "--benchmark-json" => cli.benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn list() {
    println!("workloads:");
    for s in WORKLOADS {
        println!("  {:<14} {}", s.name, s.why);
        println!(
            "  {:<14} query classes: light = {}, heavy = {} (1 in {})",
            "", s.light.name, s.heavy.name, s.heavy_every
        );
    }
    for (title, table) in [
        ("end-to-end (--trace 0)", END_TO_END),
        ("per-layer (--trace 1)", PER_LAYER),
    ] {
        println!("{title}:");
        for m in table {
            println!(
                "  {:<46} {:<11} {} is better{}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
                    .map_or(String::new(), |b| format!(", bound {:.0} %", b * 100.0))
            );
        }
    }
}

fn metrics_json(o: &Outcome) -> String {
    let body: Vec<String> = o
        .metrics
        .iter()
        .map(|s| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(s.name),
                s.value,
                json_str(s.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The contract's result line.
fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics_json(o)
    )
}

/// The full record: the result plus where, from what and how it was taken.
fn write_record(cli: &Cli, o: &Outcome, host: &Host, path: &Path) -> std::io::Result<()> {
    let samples: Vec<String> = o
        .metrics
        .iter()
        .map(|s| format!("{}: {}", json_str(s.name), s.n))
        .collect();
    let layers: Vec<String> = o
        .layers
        .iter()
        .map(|l| {
            format!(
                "{{\"name\": {}, \"spans\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                json_str(l.name),
                l.spans,
                l.total_ns,
                l.self_ns
            )
        })
        .collect();
    let failures: Vec<String> = o.failures.iter().map(|f| json_str(f)).collect();
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"smoke\": {},\n  \"claim\": null,\n  \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}}},\n  \"git_rev\": {},\n  \"input_digest\": \"{:016x}\",\n  \"write_reps\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \"metrics\": {},\n  \"samples\": {{{}}},\n  \"layers\": [{}]\n}}",
        json_str(&cli.workload),
        cli.seed,
        cli.seconds,
        cli.trace,
        cli.smoke,
        host.nproc,
        json_str(&host.cpu_model),
        json_str(&host.kernel),
        json_str(&host.git_rev),
        o.input_digest,
        o.write_reps,
        o.failed == 0,
        o.attempted,
        o.failed,
        failures.join(", "),
        metrics_json(o),
        samples.join(", "),
        layers.join(", ")
    )
}

fn run_one(cli: &Cli) -> Result<(), String> {
    let base =
        workload(&cli.workload).ok_or(format!("unknown workload {} (try --list)", cli.workload))?;
    let args = RunArgs {
        spec: if cli.smoke { base.smoke() } else { *base },
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let host = Host::probe();
    let o = run(&args, &out_dir)?;

    println!(
        "{} seed {} {} s{}{} on {} x {} ({}), rev {}, inputs {:016x}",
        cli.workload,
        cli.seed,
        cli.seconds,
        if cli.trace { " traced" } else { "" },
        if cli.smoke { " [smoke]" } else { "" },
        host.nproc,
        host.cpu_model,
        host.kernel,
        host.git_rev,
        o.input_digest
    );
    for s in &o.metrics {
        println!(
            "  {:<46} {:>16.4} {:<11} n={}",
            s.name, s.value, s.unit, s.n
        );
    }
    if cli.trace {
        println!("  layer self times:");
        for l in &o.layers {
            println!(
                "    {:<26} spans {:>8}  total {:>10.3} ms  self {:>10.3} ms",
                l.name,
                l.spans,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6
            );
        }
        if let Some(p) = &o.trace_file {
            println!("  spans written to {}", p.display());
        }
    }
    for f in &o.failures {
        println!("  FAILED: {f}");
    }
    let record = out_dir.join(format!(
        "{}{}{}.json",
        cli.workload,
        if cli.trace { ".layers" } else { "" },
        if cli.smoke { ".smoke" } else { "" }
    ));
    write_record(cli, &o, &host, &record).map_err(|e| format!("write {record:?}: {e}"))?;
    println!("  record written to {}", record.display());
    println!("{}", result_line(&o));
    Ok(())
}

/// Runs this binary again as a child (each workload gets a process of
/// its own, so `rss_peak_mb` is that workload's) and returns its stdout.
fn child(cli: &Cli, workload: &str, trace: bool, echo: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if echo {
        print!("{stdout}");
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(stdout)
}

/// Pulls `"name": {"value": v` out of a result line.
fn value_of(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at + name.len() + 14..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

fn last_line(stdout: &str) -> &str {
    stdout.lines().last().unwrap_or("")
}

/// Runs each workload twice on the same seed and names every end-to-end
/// metric whose second value is worse than its bound allows, and every
/// exact count that differs (single-client workloads only).
fn check_repeat(cli: &Cli) -> Result<bool, String> {
    let names: Vec<&str> = if cli.workload == "all" {
        WORKLOADS.iter().map(|s| s.name).collect()
    } else {
        vec![cli.workload.as_str()]
    };
    let mut ok = true;
    for name in names {
        let spec = workload(name).ok_or(format!("unknown workload {name}"))?;
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let a = child(cli, name, trace, false)?;
            let b = child(cli, name, trace, false)?;
            for def in table {
                let (Some(x), Some(y)) = (
                    value_of(last_line(&a), def.name),
                    value_of(last_line(&b), def.name),
                ) else {
                    return Err(format!("{name}: {} missing from a result line", def.name));
                };
                let verdict = judge(def, x, y, spec.writer_batches_per_s.is_none());
                if let Some(why) = &verdict {
                    ok = false;
                    println!("REPEAT FAIL {name} {}: {x} vs {y} ({why})", def.name);
                } else if def.bound.is_some() || def.exact {
                    println!("repeat ok   {name} {}: {x} vs {y}", def.name);
                }
            }
        }
    }
    Ok(ok)
}

fn judge(def: &MetricDef, x: f64, y: f64, single_client: bool) -> Option<String> {
    if def.exact && single_client && x != y {
        return Some("exact count differs".into());
    }
    let bound = def.bound?;
    let base = x.abs().max(f64::MIN_POSITIVE);
    let worse = match def.better {
        Better::Lower => (y - x) / base,
        Better::Higher => (x - y) / base,
    };
    (worse.abs() > bound).then(|| {
        format!(
            "differs by {:.1} %, bound {:.0} %",
            worse * 100.0,
            bound * 100.0
        )
    })
}

fn main() -> ExitCode {
    // Before any thread exists: `CloudServer::open` recovers on the
    // process-wide executor, which reads this once, on first use.
    std::env::set_var("SWAG_EXEC_THREADS", spec::SERVER_THREADS.to_string());
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("swag_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        list();
        return ExitCode::SUCCESS;
    }
    if cli.benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let result = if cli.check_repeat {
        check_repeat(&cli)
    } else if cli.workload == "all" {
        // One command, every workload, each in a process of its own.
        WORKLOADS.iter().try_fold(true, |ok, s| {
            child(&cli, s.name, cli.trace, true)
                .map(|out| ok && last_line(&out).contains("\"correct\": true"))
        })
    } else {
        // A printed result line carries its own verdict (`correct`).
        run_one(&cli).map(|()| true)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("swag_e2e: {e}");
            ExitCode::from(1)
        }
    }
}
