//! Versioned snapshot container for `(RepFov, SegmentRef)` record streams.
//!
//! Layout (version 2, the only one): `magic u32 | version u8 |
//! header_len u16 | header (count u64, …) | records… | crc32 u32`. The
//! header is self-describing — `header_len` counts the bytes between it
//! and the first record, so future versions can append header fields
//! without breaking old readers — and the crc32 footer covers everything
//! before it. Any other version byte is [`SnapshotError::BadVersion`].
//!
//! The header has one optional extension, used by cold runs: `count
//! u64 | zone 6×f64 | header_crc u32`, where the [`Zone`] is the 3-D MBR
//! of the records. A writer that supplies no zone emits the plain 8-byte
//! header, and readers that predate the zone skip it through
//! `header_len`. `decode_header` reads count and zone from the first
//! `HEADER_PREFIX_LEN` (67) bytes of a file; it cannot check the footer, so
//! the zoned header carries a crc of its own (over every byte before it)
//! — a flipped zone bit would otherwise prune a run that matches.
//!
//! Each record is a 20-byte [`SegmentRef`] frame followed by the 22-byte
//! `DescriptorCodec` representative-FoV encoding.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use swag_core::descriptor::CodecError;
use swag_core::{DescriptorCodec, RepFov};

use crate::crc::crc32;
use crate::segment::SegmentRef;

/// Container magic: "SWAG".
pub const MAGIC: u32 = 0x5357_4147;
/// The container version this crate writes and reads.
pub const CONTAINER_VERSION: u8 = 2;
/// Per-record [`SegmentRef`] framing on top of the descriptor codec.
pub const REF_SIZE: usize = 8 + 8 + 4;
/// Shortest header payload: `count u64`.
const HEADER_LEN_V2: usize = 8;
/// Header payload with a zone map: `count u64 | zone 6×f64 |
/// header_crc u32`.
const HEADER_LEN_ZONED: usize = HEADER_LEN_V2 + 6 * 8 + 4;
/// Bytes from the start of a file that [`decode_header`] needs at most.
pub(crate) const HEADER_PREFIX_LEN: usize = 4 + 1 + 2 + HEADER_LEN_ZONED;

/// A container's zone map: the 3-D box `[min x, min y, min t, max x,
/// max y, max t]` enclosing every record's index box. This crate stores
/// and compares it; the engine, which owns the box definition, computes
/// it.
pub type Zone = [f64; 6];

/// Errors produced while encoding or decoding snapshot containers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before a complete header/record/footer.
    Truncated,
    /// Bad magic bytes.
    BadMagic(u32),
    /// Unknown snapshot version.
    BadVersion(u8),
    /// A representative-FoV record failed to decode.
    BadRecord(CodecError),
    /// More records than the container's count field can carry.
    TooManyRecords(usize),
    /// A header zone with a NaN bound or `min > max`.
    BadZone,
    /// A crc32 (footer, or the zoned header's own) did not match the
    /// bytes it covers.
    BadCrc {
        /// Checksum stored in the container.
        expected: u32,
        /// Checksum computed over the covered bytes.
        found: u32,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic(m) => write!(f, "bad snapshot magic 0x{m:08x}"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadRecord(e) => write!(f, "bad record: {e}"),
            SnapshotError::TooManyRecords(n) => {
                write!(f, "{n} records exceed the container count field")
            }
            SnapshotError::BadZone => write!(f, "malformed header zone"),
            SnapshotError::BadCrc { expected, found } => {
                write!(
                    f,
                    "snapshot crc mismatch: stored 0x{expected:08x}, computed 0x{found:08x}"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

fn put_record(buf: &mut BytesMut, rep: &RepFov, source: &SegmentRef) -> Result<(), SnapshotError> {
    buf.put_u64_le(source.provider_id);
    buf.put_u64_le(source.video_id);
    buf.put_u32_le(source.segment_idx);
    DescriptorCodec::encode_rep(rep, buf).map_err(SnapshotError::BadRecord)
}

/// Encodes records into a container, with the zoned
/// header when `zone` is given and the plain 8-byte header otherwise.
pub fn encode_records(
    records: &[(RepFov, SegmentRef)],
    zone: Option<&Zone>,
) -> Result<Bytes, SnapshotError> {
    let count =
        u64::try_from(records.len()).map_err(|_| SnapshotError::TooManyRecords(records.len()))?;
    let mut buf = BytesMut::with_capacity(
        HEADER_PREFIX_LEN + records.len() * (REF_SIZE + DescriptorCodec::RECORD_SIZE) + 4,
    );
    buf.put_u32_le(MAGIC);
    buf.put_u8(CONTAINER_VERSION);
    match zone {
        None => {
            buf.put_u16_le(HEADER_LEN_V2 as u16);
            buf.put_u64_le(count);
        }
        Some(zone) => {
            buf.put_u16_le(HEADER_LEN_ZONED as u16);
            buf.put_u64_le(count);
            for bound in zone {
                buf.put_f64_le(*bound);
            }
            let header_crc = crc32(&buf);
            buf.put_u32_le(header_crc);
        }
    }
    for (rep, source) in records {
        put_record(&mut buf, rep, source)?;
    }
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    Ok(buf.freeze())
}

fn decode_record(buf: &mut &[u8]) -> Result<(RepFov, SegmentRef), SnapshotError> {
    let source = SegmentRef {
        provider_id: buf.get_u64_le(),
        video_id: buf.get_u64_le(),
        segment_idx: buf.get_u32_le(),
    };
    let rep = DescriptorCodec::decode_rep(buf).map_err(SnapshotError::BadRecord)?;
    Ok((rep, source))
}

/// What a container says about itself before its first record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ContainerHeader {
    /// Records the container declares.
    pub(crate) count: u64,
    /// The records' zone map, when the writer supplied one.
    pub(crate) zone: Option<Zone>,
    /// Offset of the first record.
    body_offset: usize,
}

/// Reads magic, version, count and the first record's offset.
fn read_prelude(raw: &[u8]) -> Result<ContainerHeader, SnapshotError> {
    let mut buf = raw;
    if buf.remaining() < 4 + 1 {
        return Err(SnapshotError::Truncated);
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let version = buf.get_u8();
    if version != CONTAINER_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    if buf.remaining() < 2 + HEADER_LEN_V2 {
        return Err(SnapshotError::Truncated);
    }
    let header_len = buf.get_u16_le() as usize;
    if header_len < HEADER_LEN_V2 {
        return Err(SnapshotError::Truncated);
    }
    Ok(ContainerHeader {
        count: buf.get_u64_le(),
        zone: None,
        body_offset: 4 + 1 + 2 + header_len,
    })
}

/// Decodes a container's header from the first [`HEADER_PREFIX_LEN`]
/// bytes of a file (fewer if the file is shorter), without touching the
/// records. A zoned header is checked against its own crc; a plain
/// header carries no zone and nothing to check it with.
pub(crate) fn decode_header(prefix: &[u8]) -> Result<ContainerHeader, SnapshotError> {
    let mut header = read_prelude(prefix)?;
    if header.body_offset < 4 + 1 + 2 + HEADER_LEN_ZONED {
        return Ok(header);
    }
    if prefix.len() < HEADER_PREFIX_LEN {
        return Err(SnapshotError::Truncated);
    }
    let (covered, mut rest) = prefix.split_at(HEADER_PREFIX_LEN - 4);
    let expected = rest.get_u32_le();
    let found = crc32(covered);
    if expected != found {
        return Err(SnapshotError::BadCrc { expected, found });
    }
    let mut bounds = &covered[4 + 1 + 2 + HEADER_LEN_V2..];
    let zone: Zone = std::array::from_fn(|_| bounds.get_f64_le());
    if (0..3).any(|i| zone[i].is_nan() || zone[i + 3].is_nan() || zone[i] > zone[i + 3]) {
        return Err(SnapshotError::BadZone);
    }
    header.zone = Some(zone);
    Ok(header)
}

/// Decodes a container's records. Bytes past its footer are ignored.
/// Never panics: any malformed input is a [`SnapshotError`].
pub fn decode_container(raw: &[u8]) -> Result<Vec<(RepFov, SegmentRef)>, SnapshotError> {
    let record_size = REF_SIZE + DescriptorCodec::RECORD_SIZE;
    let header = read_prelude(raw)?;
    let count =
        usize::try_from(header.count).map_err(|_| SnapshotError::TooManyRecords(usize::MAX))?;
    // The crc32 footer covers everything before it (the header, zoned or
    // not, included).
    let body = count
        .checked_mul(record_size)
        .and_then(|body| body.checked_add(header.body_offset + 4))
        .ok_or(SnapshotError::Truncated)?;
    if raw.len() < body {
        return Err(SnapshotError::Truncated);
    }
    let mut buf = &raw[header.body_offset..];
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        records.push(decode_record(&mut buf)?);
    }
    let crc_offset = raw.len() - buf.remaining();
    let expected = buf.get_u32_le();
    let found = crc32(&raw[..crc_offset]);
    if expected != found {
        return Err(SnapshotError::BadCrc { expected, found });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use swag_core::Fov;
    use swag_geo::LatLon;

    fn records(n: usize) -> Vec<(RepFov, SegmentRef)> {
        (0..n)
            .map(|i| {
                let p = LatLon::new(40.0, 116.32).offset(i as f64 * 7.0, 10.0 + i as f64 * 3.0);
                (
                    RepFov::new(i as f64, i as f64 + 5.0, Fov::new(p, i as f64 * 11.0)),
                    SegmentRef {
                        provider_id: i as u64 % 7,
                        video_id: i as u64 / 7,
                        segment_idx: i as u32,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn round_trips_and_is_framed() {
        let recs = records(37);
        let bytes = encode_records(&recs, None).unwrap();
        assert_eq!(bytes[4], CONTAINER_VERSION);
        let out = decode_container(&bytes).unwrap();
        assert_eq!(out.len(), 37);
        for ((a_rep, a_src), (b_rep, b_src)) in recs.iter().zip(&out) {
            assert_eq!(a_src, b_src);
            assert!((a_rep.t_start - b_rep.t_start).abs() < 1e-6);
        }
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let recs = records(3);
        let mut padded = encode_records(&recs, None).unwrap().to_vec();
        padded.extend_from_slice(b"footer!");
        assert_eq!(decode_container(&padded).unwrap().len(), 3);
    }

    #[test]
    fn detects_corruption_via_crc() {
        let bytes = encode_records(&records(8), None).unwrap();
        let mut raw = bytes.to_vec();
        // Flip one bit in the middle of the record stream: without the
        // footer this would decode as garbage coordinates.
        let mid = raw.len() / 2;
        raw[mid] ^= 0x10;
        assert!(matches!(
            decode_container(&raw[..]).unwrap_err(),
            SnapshotError::BadCrc { .. }
        ));
    }

    #[test]
    fn truncation_is_reported() {
        let bytes = encode_records(&records(4), None).unwrap();
        for cut in [1, 5, 20, bytes.len() - 1] {
            assert_eq!(
                decode_container(&bytes[..cut]).unwrap_err(),
                SnapshotError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn self_describing_header_skips_unknown_fields() {
        // A future writer extends the header; this reader must skip
        // the extra bytes it does not understand.
        let recs = records(2);
        let bytes = encode_records(&recs, None).unwrap();
        let raw = bytes.to_vec();
        let mut extended = BytesMut::new();
        extended.put_u32_le(MAGIC);
        extended.put_u8(2);
        extended.put_u16_le((HEADER_LEN_V2 + 4) as u16);
        extended.put_u64_le(recs.len() as u64);
        extended.put_u32_le(0xAAAA_AAAA); // unknown future header field
        extended.extend_from_slice(&raw[4 + 1 + 2 + HEADER_LEN_V2..raw.len() - 4]);
        let crc = crc32(&extended);
        extended.put_u32_le(crc);
        assert_eq!(decode_container(&extended).unwrap().len(), 2);
    }

    #[test]
    fn other_versions_and_magics_are_refused() {
        // 1 is the pre-durability whole-server snapshot layout.
        let mut raw = encode_records(&records(1), None).unwrap().to_vec();
        for version in [1, 3, 99] {
            raw[4] = version;
            let refused = SnapshotError::BadVersion(version);
            assert_eq!(decode_container(&raw).unwrap_err(), refused);
            assert_eq!(decode_header(&raw).unwrap_err(), refused);
        }
        raw[..4].copy_from_slice(&0xdead_beef_u32.to_le_bytes());
        let refused = SnapshotError::BadMagic(0xdead_beef);
        assert_eq!(decode_container(&raw).unwrap_err(), refused);
    }

    #[test]
    fn empty_stream_round_trips() {
        let out = decode_container(&encode_records(&[], None).unwrap()).unwrap();
        assert!(out.is_empty());
    }

    const ZONE: Zone = [116.0, 39.5, 0.0, 117.0, 40.5, 99.0];

    #[test]
    fn plain_header_is_the_pre_zone_layout() {
        // Writers that pass no zone (bucket snapshots) must keep
        // emitting the 8-byte header byte-for-byte.
        let recs = records(3);
        let bytes = encode_records(&recs, None).unwrap();
        assert_eq!(&bytes[5..7], &(HEADER_LEN_V2 as u16).to_le_bytes());
        assert_eq!(&bytes[7..15], &3u64.to_le_bytes());
        assert_eq!(
            bytes.len(),
            15 + 3 * (REF_SIZE + DescriptorCodec::RECORD_SIZE) + 4
        );
        let header = decode_header(&bytes[..HEADER_PREFIX_LEN.min(bytes.len())]).unwrap();
        assert_eq!((header.count, header.zone), (3, None));
    }

    #[test]
    fn zoned_header_decodes_from_the_prefix_alone() {
        let recs = records(9);
        let bytes = encode_records(&recs, Some(&ZONE)).unwrap();
        let header = decode_header(&bytes[..HEADER_PREFIX_LEN]).unwrap();
        assert_eq!(header.count, 9);
        assert_eq!(header.zone, Some(ZONE));
        // The full decode skips the zone through header_len and still
        // verifies the footer.
        assert_eq!(decode_container(&bytes).unwrap().len(), 9);
    }

    #[test]
    fn damaged_zoned_header_fails_its_own_crc() {
        let bytes = encode_records(&records(2), Some(&ZONE)).unwrap();
        for at in [8, 20, HEADER_PREFIX_LEN - 1] {
            let mut raw = bytes.to_vec();
            raw[at] ^= 0x01;
            assert!(
                matches!(
                    decode_header(&raw[..HEADER_PREFIX_LEN]).unwrap_err(),
                    SnapshotError::BadCrc { .. }
                ),
                "flip at {at}"
            );
        }
        assert_eq!(
            decode_header(&bytes[..HEADER_PREFIX_LEN - 1]).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn malformed_zone_is_rejected_not_trusted() {
        for bad in [
            [1.0, 0.0, 0.0, 0.0, 1.0, 1.0],
            [0.0, 0.0, f64::NAN, 1.0, 1.0, 1.0],
        ] {
            let bytes = encode_records(&records(1), Some(&bad)).unwrap();
            assert_eq!(
                decode_header(&bytes[..HEADER_PREFIX_LEN]).unwrap_err(),
                SnapshotError::BadZone
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Recovery parses bucket files and cold runs with this decoder:
        /// whatever is on disk, it answers with records or an error.
        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..600),
        ) {
            let _ = decode_container(&bytes);
            let _ = decode_header(&bytes[..bytes.len().min(HEADER_PREFIX_LEN)]);
        }

        /// Byte flips anywhere in a container are caught: the decode
        /// errors (bad magic, version, count, crc) and never panics or
        /// returns records the writer did not write.
        #[test]
        fn corrupted_containers_error_not_panic(
            n in 1usize..20,
            zoned in any::<bool>(),
            flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..8),
        ) {
            let recs = records(n);
            let zone = [0.0, 0.0, 0.0, 200.0, 200.0, 200.0];
            let clean = encode_records(&recs, zoned.then_some(&zone)).unwrap().to_vec();
            let mut raw = clean.clone();
            for (idx, val) in flips {
                raw[idx.index(clean.len())] ^= val;
            }
            let decoded = decode_container(&raw);
            let _ = decode_header(&raw[..raw.len().min(HEADER_PREFIX_LEN)]);
            prop_assert!(decoded.is_err() || raw == clean, "corruption decoded as records");
        }
    }
}
