//! `swag events` and `swag replay` — the forensic capture/replay loop.
//!
//! `swag events` drives the shared live workload ([`LiveStack`]) with
//! the wide-event log enabled and prints (or exports) the tail-sampled
//! kept events: one structured record per query with the plan
//! fingerprint, the concrete cache/fanout decisions, measured
//! per-operator times, latency, and a result digest. The capture is
//! **deterministic**: warm-up ticks run with the log paused, then one
//! query-only probe pass records with the log live, so a capture file
//! plus its header (seed, ticks, threads) pins the exact store state
//! every event executed against.
//!
//! `swag replay` closes the loop: it rebuilds that state from a capture
//! file's header, re-executes a chosen event's query (bit-exact,
//! reconstructed from the event words) under EXPLAIN ANALYZE, and diffs
//! the result digest — a captured anomaly becomes a reproducible
//! investigation.

use std::io::Write as _;

use swag_server::{EventDecodeError, QueryEvent};

use crate::args::{ArgParser, Spec};
use crate::live::{LiveConfig, LiveStack, LIVE_ARGS};
use crate::{open_reader, open_writer};

/// Warm-up ticks before the capture pass (also the capture tick).
const DEFAULT_TICKS: u64 = 12;

/// One row of the events table: decisions, total latency and its
/// per-operator split (microseconds), hits, and the identifiers replay
/// needs.
fn event_row(i: usize, ev: &QueryEvent) -> String {
    format!(
        "#{i:<4} cache {:<10} {:<8} {:>7} us (index {:>6} rank {:>5}) {:>4} hits  fp {:#018x}  digest {:#018x}  gen {}\n",
        ev.cache.to_string(),
        if ev.fanout_parallel {
            "parallel"
        } else {
            "serial"
        },
        ev.total_micros,
        ev.index_micros,
        ev.rank_micros,
        ev.hit_count,
        ev.fingerprint,
        ev.digest,
        ev.global_gen,
    )
}

/// The JSONL capture header carrying everything replay needs to rebuild
/// the workload state the events executed against.
fn capture_header(cfg: &LiveConfig, ticks: u64) -> String {
    format!(
        "{{\"capture\":{{\"seed\":{},\"ticks\":{ticks},\"threads\":{},\"slo_millis\":{},\"keep_per_mille\":{}}}}}",
        cfg.seed, cfg.threads, cfg.slo_millis, cfg.keep_per_mille
    )
}

/// Extracts `"key":<u64>` from a JSON header line.
fn header_u64(line: &str, key: &str) -> Result<u64, String> {
    let needle = format!("\"{key}\":");
    let start = line
        .find(&needle)
        .ok_or_else(|| format!("capture header missing \"{key}\""))?
        + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|e| format!("capture header \"{key}\": {e}"))
}

/// Runs the deterministic capture: warm ticks with the log paused, then
/// a probe pass with it live. Returns the kept events.
fn capture(stack: &LiveStack, ticks: u64) -> Result<Vec<QueryEvent>, String> {
    let log = stack
        .server
        .event_log()
        .ok_or("wide-event log is not enabled on this server")?;
    log.set_enabled(false);
    for tick in 0..ticks {
        stack.drive(tick);
    }
    log.set_enabled(true);
    stack.probe(ticks);
    log.set_enabled(false);
    Ok(log.kept())
}

/// Arguments of `swag events`. `--once` is the default, accepted to
/// name the opposite of `--follow`.
pub const EVENTS_ARGS: &[&Spec] = &[
    &LIVE_ARGS,
    &Spec {
        options: &["ticks", "iterations", "out"],
        flags: &["once", "follow", "slow"],
    },
];

/// `swag events` — capture the live workload's wide events and print the
/// tail-sampled kept log (`--slow` sorts by latency, `--out FILE` writes
/// a replayable JSONL capture, `--follow` keeps capturing round after
/// round).
pub fn events(args: ArgParser) -> Result<(), String> {
    let cfg = LiveConfig::from_args(&args)?;
    let ticks = args.get_u64("ticks", DEFAULT_TICKS)?;
    let follow = args.has_flag("follow");
    let slow = args.has_flag("slow");
    let iterations = args.get_u64("iterations", 0)?;

    let stack = LiveStack::build(&cfg)?;
    let mut kept = capture(&stack, ticks)?;
    let stats = stack
        .server
        .event_log()
        .expect("capture() already proved the log exists")
        .stats();

    let render = |kept: &mut Vec<QueryEvent>| -> String {
        if slow {
            kept.sort_by_key(|e| std::cmp::Reverse(e.total_micros));
        }
        let mut out = String::new();
        for (i, ev) in kept.iter().enumerate() {
            out.push_str(&event_row(i, ev));
        }
        out
    };

    print!("{}", render(&mut kept));
    println!(
        "{} events kept of {} recorded (keep {}/1000; >= {} us always kept)",
        kept.len(),
        stats.pushed,
        cfg.keep_per_mille,
        cfg.slo_millis * 1_000,
    );

    if let Some(path) = args.get("out") {
        let mut w = open_writer(path)?;
        writeln!(w, "{}", capture_header(&cfg, ticks)).map_err(|e| e.to_string())?;
        for ev in &kept {
            writeln!(w, "{}", ev.to_json()).map_err(|e| e.to_string())?;
        }
        w.flush().map_err(|e| e.to_string())?;
        eprintln!(
            "wrote {} events to {path} (replay with: swag replay --from {path})",
            kept.len()
        );
    }

    if follow {
        let log = stack
            .server
            .event_log()
            .expect("capture() already proved the log exists");
        let mut round = 0u64;
        loop {
            round += 1;
            log.clear();
            log.set_enabled(true);
            stack.drive(ticks + round);
            stack.probe(ticks + round);
            log.set_enabled(false);
            let mut fresh = log.kept();
            println!("--- round {round} ---");
            print!("{}", render(&mut fresh));
            std::io::stdout().flush().map_err(|e| e.to_string())?;
            if iterations > 0 && round >= iterations {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(250));
        }
    }
    Ok(())
}

/// Arguments of `swag replay`.
pub const REPLAY_ARGS: &[&Spec] = &[&Spec {
    options: &["from", "index"],
    flags: &[],
}];

/// `swag replay` — re-execute a captured event against a rebuilt engine
/// and diff the result digest.
pub fn replay(args: ArgParser) -> Result<(), String> {
    let path = args.require("from")?;
    let mut lines = Vec::new();
    {
        use std::io::BufRead as _;
        for line in open_reader(path)?.lines() {
            let line = line.map_err(|e| format!("{path}: {e}"))?;
            if !line.trim().is_empty() {
                lines.push(line);
            }
        }
    }
    let header = lines
        .first()
        .filter(|l| l.contains("\"capture\":"))
        .ok_or_else(|| format!("{path}: first line is not a capture header"))?
        .clone();
    // Captures written while admission control existed may hold shed
    // events; they ran nothing, so they are skipped (`None`), not fatal.
    let events: Vec<Option<QueryEvent>> = lines[1..]
        .iter()
        .map(|l| match QueryEvent::from_json(l) {
            Ok(ev) => Ok(Some(ev)),
            Err(EventDecodeError::Shed) => Ok(None),
            Err(e) => Err(format!("{path}: {e}")),
        })
        .collect::<Result<_, _>>()?;
    let skipped = events.iter().filter(|e| e.is_none()).count();
    if skipped > 0 {
        println!("skipped {skipped} shed events ({})", EventDecodeError::Shed);
    }

    // Pick the event: --index N by file order, else the slowest.
    let ev = match args.get("index") {
        Some(raw) => {
            let i: usize = raw.parse().map_err(|e| format!("--index: {e}"))?;
            events
                .get(i)
                .ok_or_else(|| format!("--index {i} out of range ({} events)", events.len()))?
                .ok_or_else(|| format!("--index {i}: {}", EventDecodeError::Shed))?
        }
        None => events
            .iter()
            .flatten()
            .max_by_key(|e| e.total_micros)
            .copied()
            .ok_or_else(|| format!("{path}: no events to replay"))?,
    };

    // Rebuild the exact workload state the capture header pins.
    let cfg = LiveConfig {
        seed: header_u64(&header, "seed")?,
        threads: header_u64(&header, "threads")? as usize,
        slo_millis: header_u64(&header, "slo_millis")?,
        keep_per_mille: header_u64(&header, "keep_per_mille")?,
        // Replays rebuild state from the capture's warm ticks, never
        // from disk — a data dir would make them non-reproducible.
        data_dir: None,
    };
    let ticks = header_u64(&header, "ticks")?;
    let stack = LiveStack::build(&cfg)?;
    let log = stack
        .server
        .event_log()
        .ok_or("wide-event log is not enabled on this server")?;
    log.set_enabled(false);
    for tick in 0..ticks {
        stack.drive(tick);
    }

    println!(
        "replaying event: {}",
        event_row(0, &ev).trim_start_matches("#0    ").trim_end()
    );
    let analyzed = stack.server.query_analyzed(1, &ev.query(), &ev.options());
    print!("{}", analyzed.report.render());
    let re = analyzed.report.event;

    if re.global_gen != ev.global_gen {
        println!(
            "stamp drift: captured gen {}, replayed gen {} — digests may differ legitimately",
            ev.global_gen, re.global_gen,
        );
    }
    if re.digest == ev.digest {
        println!(
            "digest match: {:#018x} ({} hits, captured {} us, replayed {} us)",
            re.digest, re.hit_count, ev.total_micros, re.total_micros,
        );
        Ok(())
    } else {
        println!("digest MISMATCH:");
        println!(
            "  captured : digest {:#018x}  {} hits  cache {}  gen {}",
            ev.digest, ev.hit_count, ev.cache, ev.global_gen,
        );
        println!(
            "  replayed : digest {:#018x}  {} hits  cache {}  gen {}",
            re.digest, re.hit_count, re.cache, re.global_gen,
        );
        Err("replayed result digest does not match the captured event".into())
    }
}
