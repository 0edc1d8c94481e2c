//! Snapshot manifest: the single small file that makes incremental
//! snapshots atomic.
//!
//! A snapshot is a set of per-bucket container files plus this manifest
//! naming the current version of each. Writers produce bucket files
//! first, then swap the manifest in with write-temp → fsync → rename, so
//! a reader (or a recovery) always sees a complete, internally consistent
//! bucket set. `wal_floor` records the WAL sequence number the snapshot
//! covers: replay skips frames below it, which also makes it safe to
//! crash between writing the manifest and deleting superseded files.
//! The retracted providers (see [`crate::cold`]) ride along, so a
//! retraction outlives the WAL segments a snapshot retires.
//!
//! The format is line-oriented text — trivially inspectable with `cat`:
//!
//! ```text
//! swag-manifest v1
//! wal_floor 1042
//! bucket 2760 7 bucket-2760-v7.run 118 3203334065
//! retracted 31 4
//! ```

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use crate::cold::Retracted;

/// Manifest file name inside the snapshot directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// One bucket's current snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketEntry {
    /// `CacheStamp` bucket version the file was written at.
    pub version: u64,
    /// File name inside the snapshot directory.
    pub file: String,
    /// Records in the file.
    pub count: u64,
    /// crc32 of the file bytes (container crc re-checked on load too).
    pub crc: u32,
}

/// The durable snapshot state: bucket files plus the WAL floor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// First WAL sequence number NOT covered by this snapshot.
    pub wal_floor: u64,
    /// Live bucket files, keyed by home bucket.
    pub buckets: BTreeMap<i64, BucketEntry>,
    /// Retracted providers and the cold-run sequence each hides below.
    pub retracted: Retracted,
}

/// Parses one numeric field of a manifest `line`.
fn field<T: std::str::FromStr>(raw: &str, line: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("bad manifest field {raw:?}: {line}"))
}

impl Manifest {
    /// Renders the manifest text.
    pub fn encode(&self) -> String {
        let mut out = String::from("swag-manifest v1\n");
        out.push_str(&format!("wal_floor {}\n", self.wal_floor));
        for (bucket, e) in &self.buckets {
            out.push_str(&format!(
                "bucket {bucket} {} {} {} {}\n",
                e.version, e.file, e.count, e.crc
            ));
        }
        for (provider, cold_seq) in &self.retracted {
            out.push_str(&format!("retracted {provider} {cold_seq}\n"));
        }
        out
    }

    /// Parses manifest text.
    pub fn decode(text: &str) -> Result<Manifest, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("swag-manifest v1") => {}
            other => return Err(format!("bad manifest header: {other:?}")),
        }
        let mut manifest = Manifest::default();
        let mut saw_floor = false;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["wal_floor", floor] => {
                    manifest.wal_floor = field(floor, line)?;
                    saw_floor = true;
                }
                ["bucket", bucket, version, file, count, crc] => {
                    let entry = BucketEntry {
                        version: field(version, line)?,
                        file: (*file).to_string(),
                        count: field(count, line)?,
                        crc: field(crc, line)?,
                    };
                    manifest.buckets.insert(field(bucket, line)?, entry);
                }
                ["retracted", provider, cold_seq] => {
                    let cold_seq = field(cold_seq, line)?;
                    manifest.retracted.insert(field(provider, line)?, cold_seq);
                }
                _ => return Err(format!("bad manifest line: {line}")),
            }
        }
        if !saw_floor {
            return Err("manifest missing wal_floor".to_string());
        }
        Ok(manifest)
    }

    /// Atomically replaces the manifest in `dir` (tmp + fsync + rename).
    pub fn store(&self, dir: &Path) -> std::io::Result<()> {
        let tmp = dir.join("MANIFEST.tmp");
        let dst = dir.join(MANIFEST_FILE);
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(self.encode().as_bytes())?;
        f.sync_data()?;
        drop(f);
        std::fs::rename(&tmp, &dst)?;
        if let Ok(d) = File::open(dir) {
            // Persist the rename itself; best-effort on filesystems that
            // do not support directory fsync.
            let _ = d.sync_data();
        }
        Ok(())
    }

    /// Loads the manifest from `dir`; `Ok(None)` if none exists yet.
    pub fn load(dir: &Path) -> Result<Option<Manifest>, String> {
        let path = dir.join(MANIFEST_FILE);
        if !path.exists() {
            return Ok(None);
        }
        let mut text = String::new();
        File::open(&path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        Manifest::decode(&text).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest {
            wal_floor: 1042,
            buckets: BTreeMap::new(),
            retracted: BTreeMap::from([(31, 4), (u64::MAX, 1)]),
        };
        m.buckets.insert(
            -3,
            BucketEntry {
                version: 2,
                file: "bucket--3-v2.run".into(),
                count: 9,
                crc: 0xDEAD_BEEF,
            },
        );
        m.buckets.insert(
            2760,
            BucketEntry {
                version: 7,
                file: "bucket-2760-v7.run".into(),
                count: 118,
                crc: 123,
            },
        );
        m
    }

    #[test]
    fn text_round_trip() {
        let m = sample();
        let decoded = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn atomic_store_and_load() {
        let dir = std::env::temp_dir().join(format!("swag-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), None);
        let m = sample();
        m.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(m.clone()));
        // Overwrite with fewer buckets; rename replaces wholesale.
        let mut m2 = m;
        m2.buckets.remove(&-3);
        m2.wal_floor = 2000;
        m2.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(m2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_malformed_text() {
        assert!(Manifest::decode("not a manifest").is_err());
        assert!(
            Manifest::decode("swag-manifest v1\n").is_err(),
            "missing floor"
        );
        assert!(Manifest::decode("swag-manifest v1\nwal_floor x\n").is_err());
        assert!(
            Manifest::decode("swag-manifest v1\nwal_floor 0\nbucket 1 2\n").is_err(),
            "short bucket line"
        );
        assert!(Manifest::decode("swag-manifest v1\nwal_floor 0\nretracted 1 x\n").is_err());
    }
}
