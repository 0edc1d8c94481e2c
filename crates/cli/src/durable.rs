//! Durability subcommands: `swag retract` and `swag recover`.

use swag_core::RepFov;
use swag_server::{CloudServer, SegmentRef, ServerConfig};

use crate::args::{ArgParser, Spec};
use crate::commands::{camera, open_data_dir, SOURCE_ARGS};

/// Arguments of `swag retract`.
pub const RETRACT_ARGS: &[&Spec] = &[
    &SOURCE_ARGS,
    &Spec {
        options: &["provider"],
        flags: &[],
    },
];

/// `swag retract` — durably remove a provider's segments from a data
/// directory: the retraction is WAL-logged, so it survives a crash
/// without rewriting anything, and it hides the provider's demoted rows
/// in the cold tier too.
pub fn retract(args: ArgParser) -> Result<(), String> {
    let provider = args.get_u64("provider", u64::MAX)?;
    if provider == u64::MAX {
        return Err("missing required --provider".into());
    }
    let server = open_data_dir(args.require("data-dir")?)?;
    let removed = server
        .retract_provider(provider)
        .map_err(|e| e.to_string())?;
    server.quiesce();
    eprintln!(
        "retracted {removed} segments of provider {provider}; {} remain",
        server.stats().segments
    );
    Ok(())
}

/// Order-sensitive FNV-1a over every exported record: the recovery
/// fingerprint `swag recover` prints. Recovery is deterministic, so two
/// recoveries of the same directory must print the same digest — the
/// crash-recovery smoke test in CI greps exactly that.
fn records_digest(records: &[(RepFov, SegmentRef)]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    };
    for (rep, source) in records {
        eat(source.provider_id);
        eat(source.video_id);
        eat(u64::from(source.segment_idx));
        eat(rep.t_start.to_bits());
        eat(rep.t_end.to_bits());
        eat(rep.fov.p.lat.to_bits());
        eat(rep.fov.p.lng.to_bits());
        eat(rep.fov.theta.to_bits());
    }
    h
}

/// Arguments of `swag recover`.
pub const RECOVER_ARGS: &[&Spec] = &[&Spec {
    options: &["data-dir"],
    flags: &[],
}];

/// `swag recover` — open a durable data directory, replay its WAL on
/// top of the latest incremental snapshot, and report what came back.
pub fn recover(args: ArgParser) -> Result<(), String> {
    let dir = args.require("data-dir")?;
    let server =
        CloudServer::open(dir, camera(), ServerConfig::default()).map_err(|e| e.to_string())?;
    let stats = server.stats();
    let d = server
        .durability_stats()
        .ok_or("data dir opened without durability")?;
    let records: Vec<(RepFov, SegmentRef)> = server
        .export_records()
        .into_iter()
        .map(|rec| (rec.rep, rec.source))
        .collect();
    println!(
        "recovered {} segments across {} shards from '{dir}'",
        stats.segments, stats.shards
    );
    // Scripted callers (CI) grep this exact line and compare digests
    // across recovery runs, so keep its shape stable.
    println!("recovery digest 0x{:016x}", records_digest(&records));
    println!(
        "wal: next seq {}, {} B unsynced; cold tier: {} runs, {} segments",
        d.wal_seq, d.wal_lag_bytes, d.cold_runs, d.cold_segments
    );
    Ok(())
}
