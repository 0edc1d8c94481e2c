//! `swag` — command-line front end for the SWAG retrieval system.
//!
//! ```text
//! swag simulate --scenario bike --seed 7 --out ride.csv
//! swag segment  --in ride.csv --thresh 0.5 --smooth 0.15 --out reps.csv
//! swag ingest   --data-dir db ride.csv walk.csv
//! swag query    --data-dir db --lat 40.0 --lng 116.32 \
//!               --radius 100 --t0 0 --t1 60 --top 10
//! swag explain  --data-dir db --lat 40.0 --lng 116.32 \
//!               --radius 100 --t0 0 --t1 60
//! swag retract  --data-dir db --provider 1
//! swag stats    --format prometheus
//! swag events   --once --slow --out cap.jsonl
//! swag replay   --from cap.jsonl
//! ```
//!
//! Traces are plain CSV (`t,lat,lng,theta`; see
//! [`swag_core::trace_io`]). Server state lives in a durable data
//! directory (WAL, incremental snapshots, cold runs; see
//! [`swag_server::CloudServer::open`]) — the one way it persists. Every
//! subcommand declares the options and flags it reads ([`args::Spec`]);
//! anything else is an error.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

mod args;
mod commands;
mod durable;
mod forensics;
mod live;

use args::{ArgParser, Spec};

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let command = argv.remove(0);
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match COMMANDS.iter().find(|(name, ..)| *name == command) {
        Some(&(_, specs, run)) => ArgParser::new(argv, specs)
            .map_err(|e| format!("{e} for 'swag {command}' (see 'swag help')"))
            .and_then(run),
        None => Err(format!("unknown command '{command}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// A subcommand's body.
type Run = fn(ArgParser) -> Result<(), String>;

/// Every subcommand: its name, the arguments it reads, and its body.
const COMMANDS: &[(&str, &[&Spec], Run)] = &[
    ("simulate", commands::SIMULATE_ARGS, commands::simulate),
    ("segment", commands::SEGMENT_ARGS, commands::segment),
    ("ingest", commands::INGEST_ARGS, commands::ingest),
    ("query", commands::QUERY_ARGS, commands::query),
    ("explain", commands::EXPLAIN_ARGS, commands::explain),
    ("retract", durable::RETRACT_ARGS, durable::retract),
    ("recover", durable::RECOVER_ARGS, durable::recover),
    ("stats", commands::STATS_ARGS, commands::stats),
    ("export", commands::EXPORT_ARGS, commands::export),
    ("simplify", commands::SIMPLIFY_ARGS, commands::simplify),
    ("events", forensics::EVENTS_ARGS, forensics::events),
    ("replay", forensics::REPLAY_ARGS, forensics::replay),
];

const USAGE: &str = "\
swag — content-free crowd-sourced video retrieval (ICPP 2015 reproduction)

USAGE:
  swag simulate --scenario <walk|strafe|rotate|drive|bike|city> [--seed N]
                [--duration SECS] [--noise] [--out FILE]
  swag segment  --in FILE [--thresh T] [--smooth ALPHA] [--out FILE]
  swag ingest   --data-dir DIR TRACE.csv [TRACE.csv ...]
                [--thresh T] [--smooth ALPHA]
  swag query    --data-dir DIR --lat LAT --lng LNG
                --radius M --t0 S --t1 S [--top N] [--tolerance DEG]
                [--no-direction-filter] [--coverage] [--quality]
                [--explain] [--analyze]
  swag explain  --data-dir DIR --lat LAT --lng LNG
                --radius M --t0 S --t1 S [--top N] [--tolerance DEG]
                [--no-direction-filter] [--coverage] [--quality] [--analyze]
  swag retract  --data-dir DIR --provider ID
  swag recover  --data-dir DIR
  swag stats    [--format <pretty|prometheus|json>] [--seed N] [--queries N]
                [--threads N] [--shard-width SECS] [--retain SECS] [--cache N]
                [--data-dir DIR]
  swag export   --in TRACE.csv --geojson FILE
  swag simplify --in TRACE.csv --tolerance M --out FILE
  swag events   [--once|--follow] [--slow] [--out FILE] [--ticks N]
                [--seed N] [--threads N] [--slo-millis MS] [--keep-per-mille N]
                [--iterations N] [--data-dir DIR]
  swag replay   --from FILE [--index N] [default: slowest captured event]
  swag help

Traces are CSV: 't,lat,lng,theta'. Server state lives in a data
directory ('swag ingest' creates it).
A slow query: 'swag events --once --slow --out F' lists the slowest,
stage by stage; 'swag replay --from F' runs the slowest under EXPLAIN
ANALYZE.";

/// Opens a buffered reader over a file.
fn open_reader(path: &str) -> Result<BufReader<File>, String> {
    File::open(path)
        .map(BufReader::new)
        .map_err(|e| format!("cannot open '{path}': {e}"))
}

/// Opens a buffered writer over a file (created/truncated).
fn open_writer(path: &str) -> Result<BufWriter<File>, String> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| format!("cannot create '{path}': {e}"))
}
