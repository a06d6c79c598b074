//! Little-endian byte-buffer primitives shared by every codec.

use crate::PersistError;

/// An append-only little-endian byte buffer. Every codec in the
/// workspace writes through these primitives, so the wire layout is
/// uniform: integers little-endian, `f64` as IEEE-754 bits, slices as a
/// `u64` element count followed by the elements, strings as a `u32`
/// byte length followed by UTF-8, and `bool` slices bit-packed.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with room for `capacity` bytes, for writers that
    /// know their total size up front.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The written bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i32`, little-endian.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the format is 64-bit regardless of
    /// the host).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern — the exact bits,
    /// which is what makes loaded radii/distances answer bit-identically.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a string as `u32` byte length + UTF-8 bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a `u32` slice as `u64` count + elements.
    pub fn put_u32s(&mut self, vs: &[u32]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Appends a `usize` slice as `u64` count + `u64` elements.
    pub fn put_usizes(&mut self, vs: &[usize]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v as u64);
        }
    }

    /// Appends an `f64` slice as `u64` count + bit patterns.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Appends a `bool` slice bit-packed: `u64` count + `⌈count/8⌉`
    /// bytes, LSB-first within each byte.
    pub fn put_bools(&mut self, vs: &[bool]) {
        self.put_u64(vs.len() as u64);
        let mut byte = 0u8;
        for (i, &v) in vs.iter().enumerate() {
            if v {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                self.buf.push(byte);
                byte = 0;
            }
        }
        if !vs.len().is_multiple_of(8) {
            self.buf.push(byte);
        }
    }
}

/// A bounds-checked little-endian reader over one section's payload.
/// Every failure (truncation, over-long length claims, invalid UTF-8)
/// becomes a [`PersistError::Format`] naming the section, so a corrupt
/// file reports *where* it broke.
#[derive(Debug)]
pub struct ByteReader<'a> {
    section: &'a str,
    data: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps `data`, attributing errors to `section`.
    pub fn new(section: &'a str, data: &'a [u8]) -> Self {
        Self::new_at(section, data, 0)
    }

    /// As [`ByteReader::new`], recording that `data` starts at
    /// absolute byte `base` of the underlying file — this is what lets
    /// [`crate::read_shared_array`] check alignment against the file,
    /// not the section.
    pub fn new_at(section: &'a str, data: &'a [u8], base: usize) -> Self {
        Self {
            section,
            data,
            pos: 0,
            base,
        }
    }

    /// The section name errors are attributed to.
    pub fn section(&self) -> &str {
        self.section
    }

    /// The absolute file offset of the next unread byte (`base` +
    /// consumed), used by zero-copy decodes to verify alignment.
    pub fn file_pos(&self) -> usize {
        self.base + self.pos
    }

    /// The not-yet-consumed bytes, without consuming them.
    pub(crate) fn peek_remaining(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when every byte was consumed.
    pub fn finished(&self) -> bool {
        self.remaining() == 0
    }

    /// A [`PersistError::Format`] attributed to this reader's section.
    pub fn err(&self, reason: impl Into<String>) -> PersistError {
        PersistError::format(self.section, reason)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(self.err(format!(
                "truncated: wanted {n} bytes at offset {}, only {} left",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Skips `n` bytes (used to step over section payloads).
    pub fn skip(&mut self, n: usize) -> Result<(), PersistError> {
        self.take(n).map(|_| ())
    }

    /// Consumes and returns `n` raw bytes (the bulk-decode primitive
    /// behind [`crate::read_shared_array`]'s owned fallback).
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        self.take(n)
    }

    /// Reads a `bool` byte; anything other than 0/1 is a format error.
    pub fn get_bool(&mut self) -> Result<bool, PersistError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.err(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `i32`.
    pub fn get_i32(&mut self) -> Result<i32, PersistError> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and narrows it to the host `usize`.
    pub fn get_usize(&mut self) -> Result<usize, PersistError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| self.err(format!("value {v} exceeds host usize")))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-claimed element count, rejecting claims that
    /// provably exceed the remaining payload (`elem_bytes` per element)
    /// before any allocation happens.
    fn get_count(&mut self, elem_bytes: usize) -> Result<usize, PersistError> {
        let n = self.get_usize()?;
        if n.checked_mul(elem_bytes)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(self.err(format!(
                "length claim {n} x {elem_bytes}B exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a string (`u32` length + UTF-8).
    pub fn get_str(&mut self) -> Result<String, PersistError> {
        let n = self.get_u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| self.err(format!("invalid UTF-8: {e}")))
    }

    /// Reads a `u32` slice written by [`ByteWriter::put_u32s`].
    pub fn get_u32s(&mut self) -> Result<Vec<u32>, PersistError> {
        let n = self.get_count(4)?;
        (0..n).map(|_| self.get_u32()).collect()
    }

    /// Reads a `usize` slice written by [`ByteWriter::put_usizes`].
    pub fn get_usizes(&mut self) -> Result<Vec<usize>, PersistError> {
        let n = self.get_count(8)?;
        (0..n).map(|_| self.get_usize()).collect()
    }

    /// Reads an `f64` slice written by [`ByteWriter::put_f64s`].
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.get_count(8)?;
        (0..n).map(|_| self.get_f64()).collect()
    }

    /// Reads a bit-packed `bool` slice written by
    /// [`ByteWriter::put_bools`].
    pub fn get_bools(&mut self) -> Result<Vec<bool>, PersistError> {
        let n = self.get_usize()?;
        let bytes_needed = n.div_ceil(8);
        let bytes = self.take(bytes_needed)?;
        Ok((0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_i32(-42);
        w.put_u64(u64::MAX - 1);
        w.put_usize(123_456);
        w.put_f64(-0.0); // signed zero must survive bit-exactly
        w.put_str("nets & trees");
        w.put_u32s(&[1, 2, 3]);
        w.put_usizes(&[0, 9, 81]);
        w.put_f64s(&[f64::MIN_POSITIVE, 1.5]);
        w.put_bools(&[true, false, true, true, false, false, false, true, true]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new("test", &bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_i32().unwrap(), -42);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_usize().unwrap(), 123_456);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_str().unwrap(), "nets & trees");
        assert_eq!(r.get_u32s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_usizes().unwrap(), vec![0, 9, 81]);
        assert_eq!(r.get_f64s().unwrap(), vec![f64::MIN_POSITIVE, 1.5]);
        assert_eq!(
            r.get_bools().unwrap(),
            vec![true, false, true, true, false, false, false, true, true]
        );
        assert!(r.finished());
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = ByteWriter::new();
        w.put_u32(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new("sec", &bytes[..2]);
        let err = r.get_u32().unwrap_err();
        assert!(matches!(err, PersistError::Format { ref section, .. } if section == "sec"));
    }

    #[test]
    fn oversized_length_claim_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX / 2); // absurd element count
        let bytes = w.into_bytes();
        let mut r = ByteReader::new("sec", &bytes);
        assert!(r.get_f64s().is_err());
    }
}
