//! Versioned checkpoint/restore for streaming sessions (PR 8).
//!
//! Long-lived streaming sessions — a discord monitor hours into an
//! unbounded stream, a fleet of thousands of them — lose every point of
//! accumulated state on process restart. This module is the persistence
//! substrate that fixes that: a [`Checkpoint`] trait every session can
//! implement, over a small length-prefixed binary container with a
//! magic header, a container format version, and per-section payload
//! versions.
//!
//! # The restore contract
//!
//! The workspace's bit-parity guarantee extends to persistence: for any
//! append/evict/step schedule, saving a checkpoint at any point,
//! restoring it, and replaying the remainder of the schedule yields a
//! `finish()` **bit-identical** to the uninterrupted run — for both
//! streaming monitors and for fleet-managed sessions (property-tested
//! in each implementing crate). And any truncated,
//! bit-flipped, or version-skewed input produces a typed
//! [`CheckpointError`] — never a panic, never a silently-wrong session.
//!
//! # Container format
//!
//! All integers are little-endian; `f64` travels as raw IEEE-754 bits
//! ([`f64::to_bits`]), so non-finite values — the `+∞` slots of a
//! half-folded matrix profile — survive exactly (the JSON shim would
//! render them as `null`).
//!
//! ```text
//! header   := magic[8] ("EGICKPT\0") | format_version u32 | section_count u32
//! section  := tag u32 | payload_version u32 | payload_len u64
//!           | payload bytes | fnv64(payload) u64
//! ```
//!
//! Every section payload carries an FNV-1a 64-bit checksum, so random
//! corruption anywhere in a payload is detected on load instead of
//! deserializing into a plausible-but-wrong session. Section `tag`s
//! name the owning subsystem; `payload_version` is that subsystem's
//! (per-crate) format revision, checked independently of the container
//! version so one crate can evolve its payload without invalidating
//! everyone else's.
//!
//! Payloads are composed with [`FieldWriter`] / [`FieldReader`]:
//! primitive fields and length-prefixed slices, nothing nested. A
//! session stores only state its inputs cannot reproduce and re-derives
//! the rest on load.
//!
//! # Examples
//!
//! ```
//! use egi_tskit::checkpoint::{
//!     CheckpointReader, CheckpointWriter, FieldReader, FieldWriter,
//! };
//!
//! let mut payload = FieldWriter::new();
//! payload.u64(42);
//! payload.f64_slice(&[1.5, f64::INFINITY]);
//!
//! let mut bytes = Vec::new();
//! let mut w = CheckpointWriter::begin(&mut bytes, 1).unwrap();
//! w.section(0xBEEF, 1, &payload.into_bytes()).unwrap();
//!
//! let mut cursor = bytes.as_slice();
//! let mut r = CheckpointReader::begin(&mut cursor).unwrap();
//! let (version, payload) = r.section(0xBEEF, 1).unwrap();
//! assert_eq!(version, 1);
//! let mut f = FieldReader::new(&payload);
//! assert_eq!(f.u64().unwrap(), 42);
//! assert_eq!(f.f64_vec().unwrap(), vec![1.5, f64::INFINITY]);
//! ```

use std::io::{Read, Write};

/// First bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"EGICKPT\0";

/// Container format version written (and the only one read) by this
/// build. Bumped only when the header/section framing itself changes;
/// per-crate payload evolution rides on each section's
/// `payload_version` instead.
pub const FORMAT_VERSION: u32 = 1;

/// Why a checkpoint could not be saved or restored.
///
/// Every failure mode of the load path maps here — I/O errors,
/// truncation, foreign or corrupted bytes, version skew — so callers
/// can always turn a bad file into an error value, never a panic.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The input does not start with [`MAGIC`] — not a checkpoint.
    BadMagic,
    /// The container was written by an incompatible format revision.
    UnsupportedFormat {
        /// Version found in the header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A section's payload was written by a newer (or invalid) revision
    /// of its owning subsystem.
    UnsupportedSection {
        /// The section tag.
        tag: u32,
        /// Payload version found.
        found: u32,
        /// Highest payload version this build supports for the tag.
        supported: u32,
    },
    /// A section carried a different tag than the loader expected —
    /// the file belongs to a different session type or is corrupt.
    UnexpectedSection {
        /// Tag the loader expected next.
        expected: u32,
        /// Tag found in the stream.
        found: u32,
    },
    /// The input ended before the declared structure was complete.
    Truncated,
    /// The declared structure was present but its contents are invalid
    /// (checksum mismatch, out-of-range field, inconsistent state).
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedFormat { found, supported } => write!(
                f,
                "unsupported container format {found} (this build supports {supported})"
            ),
            CheckpointError::UnsupportedSection {
                tag,
                found,
                supported,
            } => write!(
                f,
                "section {tag:#x}: unsupported payload version {found} \
                 (this build supports <= {supported})"
            ),
            CheckpointError::UnexpectedSection { expected, found } => write!(
                f,
                "expected section {expected:#x}, found {found:#x} \
                 (wrong session type or corrupt file)"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::Corrupt(why) => write!(f, "checkpoint corrupt: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        // A short read while the container promised more bytes is the
        // truncation case the corruption suite pins down; everything
        // else stays an I/O error.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated
        } else {
            CheckpointError::Io(e)
        }
    }
}

/// Snapshot/restore for streaming sessions.
///
/// Implementors serialize enough state that a restored session replays
/// the remainder of any schedule **bit-identically** to the
/// uninterrupted original (see the module docs for the contract), and
/// the load path returns a typed [`CheckpointError`] on any malformed
/// input.
pub trait Checkpoint: Sized {
    /// Writes a complete checkpoint of `self` to `writer`.
    fn save_checkpoint(&self, writer: &mut impl Write) -> Result<(), CheckpointError>;

    /// Reconstructs a session from a checkpoint previously written by
    /// [`save_checkpoint`](Self::save_checkpoint).
    fn load_checkpoint(reader: &mut impl Read) -> Result<Self, CheckpointError>;

    /// Convenience: the checkpoint as an in-memory byte buffer.
    ///
    /// Records `egi_checkpoint_save_*` metrics (count, bytes,
    /// duration) into the global egi-obs registry.
    fn checkpoint_bytes(&self) -> Result<Vec<u8>, CheckpointError> {
        let span = egi_obs::SpanTimer::start();
        let mut bytes = Vec::new();
        self.save_checkpoint(&mut bytes)?;
        if egi_obs::enabled() {
            egi_obs::counter!("egi_checkpoint_saves_total").inc();
            egi_obs::counter!("egi_checkpoint_save_bytes_total").add(bytes.len() as u64);
            egi_obs::histogram!("egi_checkpoint_save_bytes").record(bytes.len() as u64);
            span.record(egi_obs::histogram!("egi_checkpoint_save_nanos"));
        }
        Ok(bytes)
    }

    /// Convenience: restore from an in-memory byte buffer.
    ///
    /// Records `egi_checkpoint_load_*` metrics (count, bytes,
    /// duration) into the global egi-obs registry.
    fn from_checkpoint_bytes(mut bytes: &[u8]) -> Result<Self, CheckpointError> {
        let span = egi_obs::SpanTimer::start();
        let len = bytes.len() as u64;
        let restored = Self::load_checkpoint(&mut bytes)?;
        if egi_obs::enabled() {
            egi_obs::counter!("egi_checkpoint_loads_total").inc();
            egi_obs::counter!("egi_checkpoint_load_bytes_total").add(len);
            egi_obs::histogram!("egi_checkpoint_load_bytes").record(len);
            span.record(egi_obs::histogram!("egi_checkpoint_load_nanos"));
        }
        Ok(restored)
    }
}

/// FNV-1a 64-bit hash — the per-section payload checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Writes the container header and length-prefixed sections.
pub struct CheckpointWriter<'a, W: Write> {
    inner: &'a mut W,
    declared: u32,
    written: u32,
}

impl<'a, W: Write> CheckpointWriter<'a, W> {
    /// Writes the header (magic, [`FORMAT_VERSION`], section count) and
    /// returns a writer expecting exactly `sections` sections.
    pub fn begin(inner: &'a mut W, sections: u32) -> Result<Self, CheckpointError> {
        inner.write_all(&MAGIC)?;
        inner.write_all(&FORMAT_VERSION.to_le_bytes())?;
        inner.write_all(&sections.to_le_bytes())?;
        Ok(Self {
            inner,
            declared: sections,
            written: 0,
        })
    }

    /// Appends one section: tag, payload version, length-prefixed
    /// payload, checksum.
    ///
    /// # Panics
    ///
    /// Panics if more sections are written than were declared to
    /// [`begin`](Self::begin) — a save-path programming error, caught in
    /// tests rather than shipped as a malformed file.
    pub fn section(
        &mut self,
        tag: u32,
        payload_version: u32,
        payload: &[u8],
    ) -> Result<(), CheckpointError> {
        assert!(
            self.written < self.declared,
            "checkpoint declared {} sections but a {}th was written",
            self.declared,
            self.written + 1
        );
        self.inner.write_all(&tag.to_le_bytes())?;
        self.inner.write_all(&payload_version.to_le_bytes())?;
        self.inner
            .write_all(&(payload.len() as u64).to_le_bytes())?;
        self.inner.write_all(payload)?;
        self.inner.write_all(&fnv64(payload).to_le_bytes())?;
        self.written += 1;
        Ok(())
    }
}

fn read_array<const N: usize>(reader: &mut impl Read) -> Result<[u8; N], CheckpointError> {
    let mut buf = [0u8; N];
    reader.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reads and validates the container header and sections.
pub struct CheckpointReader<'a, R: Read> {
    inner: &'a mut R,
    remaining: u32,
}

impl<'a, R: Read> CheckpointReader<'a, R> {
    /// Reads the header, validating magic and container format.
    pub fn begin(inner: &'a mut R) -> Result<Self, CheckpointError> {
        let magic: [u8; 8] = read_array(inner).map_err(|e| match e {
            // A file too short to even hold the magic is foreign bytes,
            // not a truncated checkpoint.
            CheckpointError::Truncated => CheckpointError::BadMagic,
            other => other,
        })?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let format = u32::from_le_bytes(read_array(inner)?);
        if format != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedFormat {
                found: format,
                supported: FORMAT_VERSION,
            });
        }
        let remaining = u32::from_le_bytes(read_array(inner)?);
        Ok(Self { inner, remaining })
    }

    /// Number of sections not yet consumed.
    pub fn sections_remaining(&self) -> u32 {
        self.remaining
    }

    /// Reads the next section, requiring tag `expect_tag` and a payload
    /// version in `1..=max_version`; returns `(payload_version,
    /// payload)` with the checksum verified.
    pub fn section(
        &mut self,
        expect_tag: u32,
        max_version: u32,
    ) -> Result<(u32, Vec<u8>), CheckpointError> {
        if self.remaining == 0 {
            return Err(CheckpointError::Corrupt(format!(
                "section {expect_tag:#x} requested but the header declared no more sections"
            )));
        }
        let tag = u32::from_le_bytes(read_array(self.inner)?);
        if tag != expect_tag {
            return Err(CheckpointError::UnexpectedSection {
                expected: expect_tag,
                found: tag,
            });
        }
        let version = u32::from_le_bytes(read_array(self.inner)?);
        if version == 0 || version > max_version {
            return Err(CheckpointError::UnsupportedSection {
                tag,
                found: version,
                supported: max_version,
            });
        }
        let len = u64::from_le_bytes(read_array(self.inner)?);
        // A flipped length field can claim absurd sizes; `take` +
        // `read_to_end` grows the buffer only as real bytes arrive, so
        // a lying header yields Truncated instead of an allocation
        // blow-up.
        let mut payload = Vec::new();
        (&mut *self.inner).take(len).read_to_end(&mut payload)?;
        if payload.len() as u64 != len {
            return Err(CheckpointError::Truncated);
        }
        let checksum = u64::from_le_bytes(read_array(self.inner)?);
        if checksum != fnv64(&payload) {
            return Err(CheckpointError::Corrupt(format!(
                "section {tag:#x}: checksum mismatch"
            )));
        }
        self.remaining -= 1;
        Ok((version, payload))
    }
}

/// One section's framing as discovered by [`list_sections`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section tag.
    pub tag: u32,
    /// Payload version.
    pub payload_version: u32,
    /// Byte offset of the section's first framing byte.
    pub start: usize,
    /// Byte offset of the payload within the whole buffer.
    pub payload_start: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Byte offset one past the section's trailing checksum.
    pub end: usize,
}

/// Walks a checkpoint buffer and returns every section's framing — the
/// corruption test harness uses this to truncate and flip bits at
/// exactly the structural boundaries.
pub fn list_sections(bytes: &[u8]) -> Result<Vec<SectionInfo>, CheckpointError> {
    let mut cursor = bytes;
    let mut reader = CheckpointReader::begin(&mut cursor)?;
    let mut out = Vec::new();
    let mut offset = MAGIC.len() + 8; // header: magic + format + count
    while reader.sections_remaining() > 0 {
        let consumed_before = bytes.len() - reader.inner.len();
        debug_assert_eq!(consumed_before, offset);
        let tag = u32::from_le_bytes(read_array(reader.inner)?);
        let payload_version = u32::from_le_bytes(read_array(reader.inner)?);
        let len = u64::from_le_bytes(read_array(reader.inner)?);
        let payload_len = usize::try_from(len)
            .map_err(|_| CheckpointError::Corrupt("oversized section".into()))?;
        let payload_start = offset + 16;
        let end = payload_start
            .checked_add(payload_len)
            .and_then(|e| e.checked_add(8))
            .ok_or_else(|| CheckpointError::Corrupt("oversized section".into()))?;
        if end > bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        let mut skip = Vec::new();
        (&mut *reader.inner)
            .take(len + 8)
            .read_to_end(&mut skip)
            .map_err(CheckpointError::Io)?;
        out.push(SectionInfo {
            tag,
            payload_version,
            start: offset,
            payload_start,
            payload_len,
            end,
        });
        offset = end;
        reader.remaining -= 1;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Payload field encoding
// ---------------------------------------------------------------------

/// Appends primitive fields to a section payload buffer.
///
/// All integers little-endian; `f64` as IEEE-754 bits; slices are
/// length-prefixed (`u64` element count). [`FieldReader`] is the exact
/// mirror.
#[derive(Debug, Default)]
pub struct FieldWriter {
    buf: Vec<u8>,
}

impl FieldWriter {
    /// An empty payload buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The finished payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` (as `u64`).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its raw bits (non-finite values included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends `Option<usize>` as a presence byte plus the value.
    pub fn opt_usize(&mut self, v: Option<usize>) {
        match v {
            Some(n) => {
                self.bool(true);
                self.usize(n);
            }
            None => self.bool(false),
        }
    }

    /// Appends a length-prefixed raw byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed `f64` slice (bit-exact).
    pub fn f64_slice(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    /// Appends a length-prefixed `usize` slice.
    pub fn usize_slice(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }
}

/// Decodes a section payload written by [`FieldWriter`], returning
/// [`CheckpointError::Corrupt`] (never panicking) on any malformed
/// field.
#[derive(Debug)]
pub struct FieldReader<'a> {
    buf: &'a [u8],
}

impl<'a> FieldReader<'a> {
    /// A reader over `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        Self { buf: payload }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if n > self.buf.len() {
            return Err(CheckpointError::Corrupt(format!(
                "payload underrun: wanted {n} bytes, {} left",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize`, rejecting values that overflow the platform.
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?)
            .map_err(|_| CheckpointError::Corrupt("usize field overflows platform".into()))
    }

    /// Reads an `f64` from raw bits.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool` byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CheckpointError::Corrupt(format!(
                "bool field holds {other}"
            ))),
        }
    }

    /// Reads an `Option<usize>`.
    pub fn opt_usize(&mut self) -> Result<Option<usize>, CheckpointError> {
        if self.bool()? {
            Ok(Some(self.usize()?))
        } else {
            Ok(None)
        }
    }

    /// Checked element-count read: the declared count must fit in the
    /// remaining bytes at `elem_size` bytes per element, so a corrupted
    /// count errors instead of triggering a giant allocation.
    fn len_checked(&mut self, elem_size: usize) -> Result<usize, CheckpointError> {
        let len = self.usize()?;
        if len > self.buf.len() / elem_size.max(1) {
            return Err(CheckpointError::Corrupt(format!(
                "length {len} exceeds remaining payload"
            )));
        }
        Ok(len)
    }

    /// Reads a length-prefixed raw byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let len = self.len_checked(1)?;
        self.take(len)
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let len = self.len_checked(8)?;
        (0..len).map(|_| self.f64()).collect()
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn usize_vec(&mut self) -> Result<Vec<usize>, CheckpointError> {
        let len = self.len_checked(8)?;
        (0..len).map(|_| self.usize()).collect()
    }

    /// Asserts the payload was fully consumed — trailing bytes mean a
    /// schema mismatch.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt(format!(
                "{} trailing payload bytes",
                self.buf.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Vec<u8> {
        let mut payload_a = FieldWriter::new();
        payload_a.u32(7);
        payload_a.f64_slice(&[1.0, f64::INFINITY, -0.0]);
        payload_a.opt_usize(Some(12));
        let mut payload_b = FieldWriter::new();
        payload_b.bytes(b"rule");
        payload_b.usize_slice(&[3, 9]);
        payload_b.bool(true);
        let mut bytes = Vec::new();
        let mut w = CheckpointWriter::begin(&mut bytes, 2).unwrap();
        w.section(0xA1, 1, &payload_a.into_bytes()).unwrap();
        w.section(0xB2, 3, &payload_b.into_bytes()).unwrap();
        bytes
    }

    #[test]
    fn round_trips_fields() {
        let bytes = sample_checkpoint();
        let mut cursor = bytes.as_slice();
        let mut r = CheckpointReader::begin(&mut cursor).unwrap();
        let (va, a) = r.section(0xA1, 1).unwrap();
        assert_eq!(va, 1);
        let mut f = FieldReader::new(&a);
        assert_eq!(f.u32().unwrap(), 7);
        let xs = f.f64_vec().unwrap();
        assert_eq!(xs[0], 1.0);
        assert_eq!(xs[1], f64::INFINITY);
        assert_eq!(xs[2].to_bits(), (-0.0f64).to_bits(), "signed zero survives");
        assert_eq!(f.opt_usize().unwrap(), Some(12));
        f.finish().unwrap();
        let (vb, b) = r.section(0xB2, 3).unwrap();
        assert_eq!(vb, 3);
        let mut f = FieldReader::new(&b);
        assert_eq!(f.bytes().unwrap(), b"rule");
        assert_eq!(f.usize_vec().unwrap(), vec![3, 9]);
        assert!(f.bool().unwrap());
        f.finish().unwrap();
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample_checkpoint();
        bytes[0] ^= 0x40;
        assert!(matches!(
            CheckpointReader::begin(&mut bytes.as_slice()),
            Err(CheckpointError::BadMagic)
        ));
        // Foreign bytes shorter than a header are also BadMagic.
        assert!(matches!(
            CheckpointReader::begin(&mut &b"EGI"[..]),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn version_skew_is_typed() {
        let mut bytes = sample_checkpoint();
        bytes[8] = 99; // container format version
        assert!(matches!(
            CheckpointReader::begin(&mut bytes.as_slice()),
            Err(CheckpointError::UnsupportedFormat { found: 99, .. })
        ));
        let bytes = sample_checkpoint();
        let mut cursor = bytes.as_slice();
        let mut r = CheckpointReader::begin(&mut cursor).unwrap();
        // Payload version 3 of section 0xB2 is above a max of 1.
        r.section(0xA1, 1).unwrap();
        assert!(matches!(
            r.section(0xB2, 1),
            Err(CheckpointError::UnsupportedSection {
                tag: 0xB2,
                found: 3,
                supported: 1
            })
        ));
    }

    #[test]
    fn wrong_tag_is_typed() {
        let bytes = sample_checkpoint();
        let mut cursor = bytes.as_slice();
        let mut r = CheckpointReader::begin(&mut cursor).unwrap();
        assert!(matches!(
            r.section(0xC3, 1),
            Err(CheckpointError::UnexpectedSection {
                expected: 0xC3,
                found: 0xA1
            })
        ));
    }

    #[test]
    fn truncation_at_every_byte_is_typed() {
        let bytes = sample_checkpoint();
        for cut in 0..bytes.len() {
            let mut cursor = &bytes[..cut];
            let outcome = CheckpointReader::begin(&mut cursor).and_then(|mut r| {
                r.section(0xA1, 1)?;
                r.section(0xB2, 3)
            });
            assert!(
                matches!(
                    outcome,
                    Err(CheckpointError::Truncated) | Err(CheckpointError::BadMagic)
                ),
                "cut at {cut} did not produce a truncation error"
            );
        }
    }

    #[test]
    fn payload_bit_flips_fail_the_checksum() {
        let sections = list_sections(&sample_checkpoint()).unwrap();
        for section in &sections {
            for bit in [0usize, 3, 17] {
                let mut bytes = sample_checkpoint();
                let pos = section.payload_start + (bit / 8) % section.payload_len.max(1);
                bytes[pos] ^= 1 << (bit % 8);
                let mut cursor = bytes.as_slice();
                let outcome = CheckpointReader::begin(&mut cursor).and_then(|mut r| {
                    r.section(0xA1, 1)?;
                    r.section(0xB2, 3)
                });
                assert!(
                    outcome.is_err(),
                    "flip in section {:#x} payload went undetected",
                    section.tag
                );
            }
        }
    }

    #[test]
    fn list_sections_reports_framing() {
        let bytes = sample_checkpoint();
        let sections = list_sections(&bytes).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].tag, 0xA1);
        assert_eq!(sections[1].tag, 0xB2);
        assert_eq!(sections[0].end, sections[1].start);
        assert_eq!(sections[1].end, bytes.len());
    }

    #[test]
    fn corrupted_lengths_error_without_allocating() {
        // A payload whose inner vector length claims more elements than
        // the payload holds must error, not allocate terabytes.
        let mut payload = FieldWriter::new();
        payload.u64(u64::MAX); // read back as an f64_vec length
        let mut bytes = Vec::new();
        let mut w = CheckpointWriter::begin(&mut bytes, 1).unwrap();
        w.section(0xA1, 1, &payload.into_bytes()).unwrap();
        let mut cursor = bytes.as_slice();
        let mut r = CheckpointReader::begin(&mut cursor).unwrap();
        let (_, payload) = r.section(0xA1, 1).unwrap();
        let mut f = FieldReader::new(&payload);
        assert!(f.f64_vec().is_err());
    }

    #[test]
    fn bool_fields_hold_only_zero_or_one() {
        // A flag that leads a payload (the ensemble member's carry
        // flag) decides how the rest is read, so any other byte must be
        // corruption rather than a guess.
        for (byte, expected) in [(0u8, Some(false)), (1, Some(true)), (2, None), (0xFF, None)] {
            let payload = [byte];
            let mut f = FieldReader::new(&payload);
            match expected {
                Some(v) => assert_eq!(f.bool().unwrap(), v),
                None => assert!(matches!(f.bool(), Err(CheckpointError::Corrupt(_)))),
            }
        }
        assert!(matches!(
            FieldReader::new(&[]).bool(),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_a_schema_mismatch() {
        let mut payload = FieldWriter::new();
        payload.u32(1);
        payload.u32(2);
        let bytes = payload.into_bytes();
        let mut f = FieldReader::new(&bytes);
        f.u32().unwrap();
        assert!(matches!(f.finish(), Err(CheckpointError::Corrupt(_))));
    }
}
