//! Artifact framing: the versioned header and the named, checksummed
//! sections. See the crate docs for the full byte layout.

use std::path::Path;

use crate::bytes::{ByteReader, ByteWriter};
use crate::crc32::{crc32, Crc32};
use crate::PersistError;

/// The current (and only) format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// The reserved name of alignment-padding sections. A pad is an
/// ordinary checksummed section of 0–7 zero bytes that
/// [`ArtifactWriter::to_bytes`] inserts before a section requested via
/// [`ArtifactWriter::aligned_section`] so that section's *payload*
/// starts at an 8-byte file offset. Readers look sections up by name
/// and never ask for `"pad"`, so pre-alignment artifacts (no pads) and
/// padded artifacts parse identically — no version bump.
pub const PAD_SECTION: &str = "pad";

const MAGIC: &[u8; 8] = b"MDBSCAN\0";

/// What an artifact file contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A full engine: points, net, writer state, delta history, and
    /// every cache — loading resumes exactly where the saver stopped,
    /// ingest included.
    Engine,
    /// A read-only epoch snapshot: points and net only. Loading yields
    /// an engine serving that epoch with cold caches — the shape a
    /// read-replica fleet fans out.
    Snapshot,
}

impl ArtifactKind {
    fn to_byte(self) -> u8 {
        match self {
            ArtifactKind::Engine => 0,
            ArtifactKind::Snapshot => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(ArtifactKind::Engine),
            1 => Some(ArtifactKind::Snapshot),
            _ => None,
        }
    }
}

/// Builds an artifact: header fields plus named sections appended in
/// order. Checksums are computed at [`ArtifactWriter::to_bytes`] time.
#[derive(Debug)]
pub struct ArtifactWriter {
    kind: ArtifactKind,
    point_tag: String,
    metric_tag: String,
    sections: Vec<(String, ByteWriter, bool)>,
}

impl ArtifactWriter {
    /// Starts an artifact with the identity header every load
    /// validates: the artifact kind, the point-type tag
    /// (`PersistPoint::TYPE_TAG` in `mdbscan_metric`), and the metric
    /// tag.
    pub fn new(kind: ArtifactKind, point_tag: &str, metric_tag: &str) -> Self {
        Self {
            kind,
            point_tag: point_tag.to_owned(),
            metric_tag: metric_tag.to_owned(),
            sections: Vec::new(),
        }
    }

    /// Appends a new named section and returns its payload writer.
    pub fn section(&mut self, name: &str) -> &mut ByteWriter {
        self.sections
            .push((name.to_owned(), ByteWriter::new(), false));
        &mut self.sections.last_mut().expect("just pushed").1
    }

    /// As [`ArtifactWriter::section`], but guarantees the section's
    /// payload starts at an 8-byte file offset (by inserting a
    /// [`PAD_SECTION`] before it when needed), so raw `u32`/`f32`/`f64`
    /// arrays inside it can be loaded zero-copy via
    /// [`crate::read_shared_array`].
    pub fn aligned_section(&mut self, name: &str) -> &mut ByteWriter {
        self.sections
            .push((name.to_owned(), ByteWriter::new(), true));
        &mut self.sections.last_mut().expect("just pushed").1
    }

    /// Serializes the artifact: header (with its own CRC) followed by
    /// each section framed as name + length + CRC + payload, with pad
    /// sections interleaved so aligned sections land on 8-byte payload
    /// offsets. The output buffer is sized up front and each payload is
    /// copied into it once.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Frame sizes are fully determined up front, so the pad layout
        // (and therefore the section count in the header and the total
        // size) can be computed before anything is written. `str` costs
        // 4 + bytes.
        const ZEROS: [u8; 8] = [0; 8];
        let frame_len = |name: &str| 4 + name.len() + 8 + 4; // name + u64 len + u32 crc
        let header_len =
            MAGIC.len() + 4 + 1 + 4 + self.point_tag.len() + 4 + self.metric_tag.len() + 4;
        let mut emitted: Vec<(&str, &[u8])> = Vec::new();
        let mut off = header_len + 4; // the header CRC precedes the first frame
        for (name, payload, aligned) in &self.sections {
            if *aligned && !(off + frame_len(name)).is_multiple_of(8) {
                let pad = (8 - (off + frame_len(PAD_SECTION) + frame_len(name)) % 8) % 8;
                emitted.push((PAD_SECTION, &ZEROS[..pad]));
                off += frame_len(PAD_SECTION) + pad;
            }
            emitted.push((name, payload.as_slice()));
            off += frame_len(name) + payload.len();
        }

        let mut w = ByteWriter::with_capacity(off);
        w.put_bytes(MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u8(self.kind.to_byte());
        w.put_str(&self.point_tag);
        w.put_str(&self.metric_tag);
        w.put_u32(emitted.len() as u32);
        debug_assert_eq!(w.len(), header_len);
        w.put_u32(crc32(w.as_slice()));
        for (name, payload) in &emitted {
            // The section CRC covers the frame (name + length) *and*
            // the payload, so a corrupted name or length fails typed
            // instead of silently dropping an optional section.
            let frame_start = w.len();
            w.put_str(name);
            w.put_u64(payload.len() as u64);
            let mut crc = Crc32::new();
            crc.update(&w.as_slice()[frame_start..]);
            crc.update(payload);
            w.put_u32(crc.finish());
            w.put_bytes(payload);
        }
        debug_assert_eq!(w.len(), off);
        w.into_bytes()
    }

    /// Serializes and writes the artifact to `path` crash-consistently
    /// (temp file + `sync_all` + atomic rename — see
    /// [`crate::write_atomic`]): after a crash at any point, `path`
    /// holds either the previous complete artifact or the new one,
    /// never a torn prefix.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        crate::write_atomic(path, &self.to_bytes())
    }
}

/// Reads an entire artifact file into memory.
pub fn read_file(path: impl AsRef<Path>) -> Result<Vec<u8>, PersistError> {
    std::fs::read(path).map_err(PersistError::from)
}

/// A parsed artifact: the validated header plus the named sections,
/// each already checksum-verified. Borrows the file bytes.
#[derive(Debug)]
pub struct ArtifactReader<'a> {
    kind: ArtifactKind,
    point_tag: String,
    metric_tag: String,
    /// `(name, payload, absolute payload offset in the parsed bytes)`.
    sections: Vec<(String, &'a [u8], usize)>,
}

impl<'a> ArtifactReader<'a> {
    /// Parses and validates `bytes`: magic, version, header CRC, and
    /// every section's length and CRC. Any mismatch is a
    /// [`PersistError::Format`]; no section payload is interpreted yet.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, PersistError> {
        let mut r = ByteReader::new("header", bytes);
        let magic_err = |r: &ByteReader<'_>| r.err("not a metric-dbscan artifact (bad magic)");
        let mut magic = [0u8; 8];
        for m in &mut magic {
            *m = r.get_u8().map_err(|_| magic_err(&r))?;
        }
        if &magic != MAGIC {
            return Err(magic_err(&r));
        }
        let version = r.get_u32()?;
        if version == 0 || version > FORMAT_VERSION {
            return Err(r.err(format!(
                "format version {version} not supported (this build reads <= {FORMAT_VERSION})"
            )));
        }
        let kind_byte = r.get_u8()?;
        let kind = ArtifactKind::from_byte(kind_byte)
            .ok_or_else(|| r.err(format!("unknown artifact kind {kind_byte}")))?;
        let point_tag = r.get_str()?;
        let metric_tag = r.get_str()?;
        let num_sections = r.get_u32()? as usize;
        let header_len = bytes.len() - r.remaining();
        let stored_crc = r.get_u32()?;
        let actual_crc = crc32(&bytes[..header_len]);
        if stored_crc != actual_crc {
            return Err(r.err(format!(
                "header checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            )));
        }

        let mut sections = Vec::with_capacity(num_sections);
        for _ in 0..num_sections {
            let frame_start = bytes.len() - r.remaining();
            let name = r.get_str()?;
            let len = r.get_usize()?;
            let frame = &bytes[frame_start..bytes.len() - r.remaining()];
            let stored = r.get_u32()?;
            if r.remaining() < len {
                return Err(PersistError::format(
                    &name,
                    format!(
                        "truncated: section claims {len} bytes, file has {} left",
                        r.remaining()
                    ),
                ));
            }
            let start = bytes.len() - r.remaining();
            let payload = &bytes[start..start + len];
            r.skip(len)?;
            let mut crc = Crc32::new();
            crc.update(frame);
            crc.update(payload);
            let actual = crc.finish();
            if stored != actual {
                return Err(PersistError::format(
                    &name,
                    format!("checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"),
                ));
            }
            sections.push((name, payload, start));
        }
        if !r.finished() {
            return Err(r.err(format!(
                "{} trailing bytes after the last section",
                r.remaining()
            )));
        }
        Ok(Self {
            kind,
            point_tag,
            metric_tag,
            sections,
        })
    }

    /// The artifact kind recorded in the header.
    pub fn kind(&self) -> ArtifactKind {
        self.kind
    }

    /// The point-type tag recorded in the header.
    pub fn point_tag(&self) -> &str {
        &self.point_tag
    }

    /// The metric tag recorded in the header.
    pub fn metric_tag(&self) -> &str {
        &self.metric_tag
    }

    /// A reader over the named section's payload, or `None` when the
    /// artifact does not carry it (absent sections are how older or
    /// slimmer artifacts — e.g. snapshots — stay loadable). The reader
    /// carries the payload's absolute offset into the parsed bytes, so
    /// zero-copy decodes can verify file alignment
    /// ([`ByteReader::file_pos`]).
    pub fn section(&self, name: &'a str) -> Option<ByteReader<'a>> {
        self.sections
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, payload, off)| ByteReader::new_at(name, payload, *off))
    }

    /// As [`ArtifactReader::section`], but a missing section is a
    /// [`PersistError::Format`].
    pub fn require_section(&self, name: &'a str) -> Result<ByteReader<'a>, PersistError> {
        self.section(name)
            .ok_or_else(|| PersistError::format(name, "required section missing"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ArtifactWriter::new(ArtifactKind::Engine, "vec-f64", "euclidean");
        let s = w.section("alpha");
        s.put_u32(11);
        s.put_f64s(&[1.0, 2.5]);
        let s = w.section("beta");
        s.put_str("payload");
        w.to_bytes()
    }

    #[test]
    fn round_trips_header_and_sections() {
        let bytes = sample();
        let art = ArtifactReader::from_bytes(&bytes).unwrap();
        assert_eq!(art.kind(), ArtifactKind::Engine);
        assert_eq!(art.point_tag(), "vec-f64");
        assert_eq!(art.metric_tag(), "euclidean");
        let mut a = art.require_section("alpha").unwrap();
        assert_eq!(a.get_u32().unwrap(), 11);
        assert_eq!(a.get_f64s().unwrap(), vec![1.0, 2.5]);
        assert!(a.finished());
        let mut b = art.require_section("beta").unwrap();
        assert_eq!(b.get_str().unwrap(), "payload");
        assert!(art.section("gamma").is_none());
        assert!(art.require_section("gamma").is_err());
    }

    #[test]
    fn aligned_sections_land_on_eight_byte_payload_offsets() {
        use crate::shared::{read_shared_array, write_raw_array, SharedBytes};
        use std::sync::Arc;

        let mut w = ArtifactWriter::new(ArtifactKind::Engine, "u32", "vector-block-f64");
        w.section("meta").put_u32(7); // odd-length prefix forces padding
        let s = w.aligned_section("points");
        s.put_u64(3);
        write_raw_array::<u32>(s, &[10, 20, 30]);
        let s = w.aligned_section("norms");
        s.put_u64(2);
        write_raw_array::<f64>(s, &[1.5, 2.5]);
        let bytes = w.to_bytes();

        let buf = Arc::new(SharedBytes::from_vec(bytes.clone()));
        let art = ArtifactReader::from_bytes(buf.as_slice()).unwrap();
        for name in ["points", "norms"] {
            let r = art.require_section(name).unwrap();
            assert_eq!(r.file_pos() % 8, 0, "section `{name}` payload misaligned");
        }
        // And the arrays really do alias the buffer.
        let mut r = art.require_section("points").unwrap();
        let n = r.get_usize().unwrap();
        let ids = read_shared_array::<u32>(Some(&buf), &mut r, n).unwrap();
        assert!(ids.is_shared());
        assert_eq!(ids.as_slice(), &[10, 20, 30]);
        let mut r = art.require_section("norms").unwrap();
        let n = r.get_usize().unwrap();
        let norms = read_shared_array::<f64>(Some(&buf), &mut r, n).unwrap();
        assert!(norms.is_shared());
        assert_eq!(norms.as_slice(), &[1.5, 2.5]);
        // Plain sections (and files written before padding existed)
        // still parse; pads are just unqueried named sections.
        let mut m = art.require_section("meta").unwrap();
        assert_eq!(m.get_u32().unwrap(), 7);
        // Determinism: same writer contents, same bytes.
        let mut w2 = ArtifactWriter::new(ArtifactKind::Engine, "u32", "vector-block-f64");
        w2.section("meta").put_u32(7);
        let s = w2.aligned_section("points");
        s.put_u64(3);
        write_raw_array::<u32>(s, &[10, 20, 30]);
        let s = w2.aligned_section("norms");
        s.put_u64(2);
        write_raw_array::<f64>(s, &[1.5, 2.5]);
        assert_eq!(bytes, w2.to_bytes());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample();
        bytes[0] ^= 0xFF;
        let err = ArtifactReader::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::Format { ref section, .. } if section == "header"));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = sample();
        bytes[8] = 99; // version lives right after the 8-byte magic
        let err = ArtifactReader::from_bytes(&bytes).unwrap_err();
        let PersistError::Format { section, reason } = err else {
            panic!("expected Format");
        };
        assert_eq!(section, "header");
        assert!(reason.contains("version"));
    }

    #[test]
    fn payload_corruption_is_caught_by_the_section_crc() {
        let mut bytes = sample();
        let last = bytes.len() - 1; // inside the beta payload
        bytes[last] ^= 0x01;
        let err = ArtifactReader::from_bytes(&bytes).unwrap_err();
        let PersistError::Format { section, reason } = err else {
            panic!("expected Format");
        };
        assert_eq!(section, "beta");
        assert!(reason.contains("checksum"));
    }

    #[test]
    fn truncation_names_the_failing_section() {
        let bytes = sample();
        let err = ArtifactReader::from_bytes(&bytes[..bytes.len() - 4]).unwrap_err();
        assert!(matches!(err, PersistError::Format { .. }));
    }

    #[test]
    fn corrupted_section_name_fails_typed_instead_of_dropping_the_section() {
        let mut bytes = sample();
        // Flip one byte inside the stored name "beta" (the section CRC
        // covers the frame, so this must fail, not lose the section).
        let pos = bytes
            .windows(4)
            .position(|w| w == b"beta")
            .expect("name present");
        bytes[pos] ^= 0x01;
        let err = ArtifactReader::from_bytes(&bytes).unwrap_err();
        let PersistError::Format { reason, .. } = err else {
            panic!("expected Format");
        };
        assert!(reason.contains("checksum"), "got: {reason}");
    }
}
