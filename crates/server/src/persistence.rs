//! Server snapshots: serialise the segment store to bytes and restore it,
//! rebuilding the R-tree with an STR bulk load.
//!
//! The cloud server's state is exactly its representative-FoV records (the
//! index is derived data), so a snapshot is a sequence of
//! `(RepFov, SegmentRef)` records in the `swag-store` container format
//! (ISSUE 10): a self-describing v2 header, a u64 record count, and a crc32
//! footer, with the legacy v1 layout still readable. Restoring bulk-loads
//! the index, which is both faster and better-packed than replaying inserts
//! (see `benches/index_insert.rs`).

use bytes::{Buf, Bytes};
use swag_core::CameraProfile;

use crate::server::CloudServer;

pub use swag_store::SnapshotError;

/// Serialises a server's segment store in the current (v2) container
/// format.
///
/// Fails with [`SnapshotError::BadRecord`] if a stored record is outside
/// the codec's encodable domain (the server only holds records that came
/// in through the codec, so this indicates corruption), or with
/// [`SnapshotError::TooManyRecords`] past the container's count range.
pub fn save_snapshot(server: &CloudServer) -> Result<Bytes, SnapshotError> {
    let records: Vec<_> = server
        .export_records()
        .into_iter()
        .map(|rec| (rec.rep, rec.source))
        .collect();
    swag_store::encode_records(&records, None)
}

/// Restores a server from a snapshot, bulk-loading the R-tree index.
///
/// Accepts both container versions (v1 snapshots written before ISSUE 10
/// remain loadable). A whole-buffer restore is strict: bytes past the
/// declared record count are [`SnapshotError::TrailingBytes`], not
/// silently ignored. Segment ids are re-assigned densely in snapshot
/// order (they are server-internal; external references use
/// [`SegmentRef`](crate::store::SegmentRef)).
pub fn load_snapshot(buf: impl Buf, cam: CameraProfile) -> Result<CloudServer, SnapshotError> {
    let decoded = swag_store::decode_container(buf)?;
    if decoded.trailing > 0 {
        return Err(SnapshotError::TrailingBytes(decoded.trailing));
    }
    Ok(CloudServer::from_records(cam, decoded.records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, QueryOptions};
    use crate::store::SegmentRef;
    use bytes::{BufMut, BytesMut};
    use swag_core::{Fov, RepFov};
    use swag_geo::LatLon;

    fn center() -> LatLon {
        LatLon::new(40.0, 116.32)
    }

    fn populated_server(n: usize) -> CloudServer {
        let server = CloudServer::new(CameraProfile::smartphone());
        for i in 0..n {
            let p = center().offset(i as f64 * 7.0, 10.0 + i as f64 * 3.0);
            server.ingest_one(
                RepFov::new(i as f64, i as f64 + 5.0, Fov::new(p, i as f64 * 11.0)),
                SegmentRef {
                    provider_id: i as u64 % 7,
                    video_id: i as u64 / 7,
                    segment_idx: i as u32,
                },
            );
        }
        server
    }

    #[test]
    fn snapshot_round_trip_preserves_queries() {
        let server = populated_server(200);
        let bytes = save_snapshot(&server).unwrap();
        let restored = load_snapshot(bytes, CameraProfile::smartphone()).unwrap();
        assert_eq!(restored.stats().segments, 200);

        let q = Query::new(0.0, 300.0, center(), 500.0);
        let opts = QueryOptions {
            top_n: usize::MAX,
            direction_filter: false,
            ..QueryOptions::default()
        };
        let mut a: Vec<_> = server.query(&q, &opts).iter().map(|h| h.source).collect();
        let mut b: Vec<_> = restored.query(&q, &opts).iter().map(|h| h.source).collect();
        a.sort_by_key(|s| (s.provider_id, s.video_id, s.segment_idx));
        b.sort_by_key(|s| (s.provider_id, s.video_id, s.segment_idx));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_server_round_trips() {
        let server = CloudServer::new(CameraProfile::smartphone());
        let bytes = save_snapshot(&server).unwrap();
        let restored = load_snapshot(bytes, CameraProfile::smartphone()).unwrap();
        assert_eq!(restored.stats().segments, 0);
    }

    #[test]
    fn restored_server_accepts_new_ingest() {
        let server = populated_server(50);
        let restored =
            load_snapshot(save_snapshot(&server).unwrap(), CameraProfile::smartphone()).unwrap();
        restored.ingest_one(
            RepFov::new(999.0, 1000.0, Fov::new(center(), 0.0)),
            SegmentRef {
                provider_id: 42,
                video_id: 0,
                segment_idx: 0,
            },
        );
        assert_eq!(restored.stats().segments, 51);
        let q = Query::new(999.0, 1000.0, center(), 10.0);
        let hits = restored.query(
            &q,
            &QueryOptions {
                direction_filter: false,
                ..QueryOptions::default()
            },
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].source.provider_id, 42);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            load_snapshot(&b"xx"[..], CameraProfile::smartphone()).unwrap_err(),
            SnapshotError::Truncated
        );
        let mut buf = BytesMut::new();
        buf.put_u32_le(0xdeadbeef);
        buf.put_u8(1);
        buf.put_u32_le(0);
        assert!(matches!(
            load_snapshot(buf.freeze(), CameraProfile::smartphone()).unwrap_err(),
            SnapshotError::BadMagic(0xdeadbeef)
        ));
    }

    #[test]
    fn rejects_truncated_body() {
        let server = populated_server(3);
        let bytes = save_snapshot(&server).unwrap();
        let cut = bytes.slice(0..bytes.len() - 5);
        assert_eq!(
            load_snapshot(cut, CameraProfile::smartphone()).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn rejects_wrong_version() {
        let server = populated_server(1);
        let bytes = save_snapshot(&server).unwrap();
        let mut raw = bytes.to_vec();
        raw[4] = 99; // version byte
        assert_eq!(
            load_snapshot(&raw[..], CameraProfile::smartphone()).unwrap_err(),
            SnapshotError::BadVersion(99)
        );
    }

    #[test]
    fn rejects_trailing_bytes() {
        let server = populated_server(2);
        let mut raw = save_snapshot(&server).unwrap().to_vec();
        raw.extend_from_slice(b"junk");
        assert_eq!(
            load_snapshot(&raw[..], CameraProfile::smartphone()).unwrap_err(),
            SnapshotError::TrailingBytes(4)
        );
    }

    #[test]
    fn loads_legacy_v1_snapshots() {
        let server = populated_server(25);
        let records: Vec<_> = server
            .export_records()
            .into_iter()
            .map(|rec| (rec.rep, rec.source))
            .collect();
        let v1 = swag_store::encode_records_v1(&records).unwrap();
        let restored = load_snapshot(v1, CameraProfile::smartphone()).unwrap();
        assert_eq!(restored.stats().segments, 25);
    }
}
