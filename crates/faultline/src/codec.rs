//! The workspace's one binary framing. Every on-disk format — parameter
//! stores (`STPW`), training checkpoints (`STCK`) and write-ahead-log
//! segments (`STWL`) — is built from three pieces defined here, so each
//! format inherits one set of integrity checks and one property suite:
//!
//! * **The envelope** — `magic ‖ version u32 ‖ body ‖ crc32`, the CRC-32
//!   over everything before it. [`Writer::header`] starts one and
//!   [`Writer::seal`] ends it; [`open`] checks length, magic, version and
//!   the CRC before a single body field is read.
//! * **The frame** — `kind u8 ‖ len u32 ‖ payload ‖ crc32`, the CRC over
//!   kind, length and payload: the unit a log appends. [`put_frame`]
//!   writes one; [`scan_frames`] decodes the longest valid prefix of a
//!   stream of them.
//! * **Fields** — [`Writer`] and [`Reader`], little-endian throughout.
//!   The reader is bounds-checked: running off the end of its input is a
//!   typed [`StoreError::Malformed`], never a panic, so arbitrary bytes
//!   can be fed to any decoder built on it.

use crate::crc::crc32;

/// Bytes of an envelope header: magic and version.
pub const HEADER_LEN: usize = 8;
/// Bytes of a CRC-32 footer.
pub const CRC_LEN: usize = 4;
/// Bytes a frame adds around its payload: kind, length and CRC-32.
pub const FRAME_OVERHEAD: usize = 1 + 4 + CRC_LEN;

/// Why stored bytes were rejected. Structural damage and checksum damage
/// are distinct variants on purpose: a [`StoreError::Checksum`] means the
/// bytes were altered after being written (bit rot, torn write,
/// truncation), while [`StoreError::Malformed`] means they never were a
/// valid encoding of this format and version — callers surface them
/// differently.
#[derive(Debug)]
pub enum StoreError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The CRC-32 footer does not match the bytes before it.
    Checksum {
        /// Checksum recorded in the footer.
        expected: u32,
        /// Checksum of the bytes actually read.
        found: u32,
    },
    /// The bytes are not a well-formed encoding (bad magic, unsupported
    /// version, or an inconsistent field layout).
    Malformed(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "checkpoint io error: {e}"),
            StoreError::Checksum { expected, found } => write!(
                f,
                "checkpoint corrupt: crc {expected:#010x} recorded, {found:#010x} computed"
            ),
            StoreError::Malformed(d) => write!(f, "checkpoint malformed: {d}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Little-endian field writer over a growable buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer with an empty buffer (a bare fragment or frame payload).
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Starts an envelope (or a log segment header): magic, then version.
    pub fn header(magic: &[u8; 4], version: u32) -> Writer {
        let mut w = Writer::new();
        w.bytes(magic);
        w.u32(version);
        w
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends an `f32` by its bits.
    pub fn f32(&mut self, v: f32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends an `f64` by its bits.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a run of `f32`s, each by its bits.
    pub fn f32s(&mut self, vs: &[f32]) {
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.f32(v);
        }
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The bytes written so far, as an owned buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Ends an envelope: appends the CRC-32 of everything written so far.
    pub fn seal(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.u32(crc);
        self.buf
    }
}

/// Bounds-checked little-endian field reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Malformed(format!(
                "truncated at byte {} ({n} more needed, {} left)",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f32` from its bits.
    pub fn f32(&mut self) -> Result<f32, StoreError> {
        self.array().map(f32::from_le_bytes)
    }

    /// Reads an `f64` from its bits.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads `n` `f32`s; fails before allocating if they cannot fit.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, StoreError> {
        let raw = self.take(n.checked_mul(4).ok_or_else(|| {
            StoreError::Malformed(format!("{n} floats overflow the address space"))
        })?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Reads a `u64` element count and checks that that many elements of
    /// `elem_size` bytes fit in the rest of the input, so a corrupt count
    /// can never drive a huge allocation.
    pub fn len_u64(&mut self, elem_size: usize) -> Result<usize, StoreError> {
        let n = self.u64()?;
        match usize::try_from(n) {
            Ok(n) if n.saturating_mul(elem_size) <= self.remaining() => Ok(n),
            _ => Err(StoreError::Malformed(format!(
                "length {n} exceeds the {} bytes left",
                self.remaining()
            ))),
        }
    }

    /// Reads and checks a header written by [`Writer::header`].
    pub fn header(&mut self, magic: &[u8; 4], version: u32) -> Result<(), StoreError> {
        let found = self.take(4)?;
        if found != magic {
            return Err(StoreError::Malformed(format!(
                "bad magic {found:?}, expected {:?}",
                String::from_utf8_lossy(magic)
            )));
        }
        let found = self.u32()?;
        if found != version {
            return Err(StoreError::Malformed(format!(
                "unsupported format version {found} (this build reads {version})"
            )));
        }
        Ok(())
    }

    /// Succeeds only when every byte was read: a well-formed encoding ends
    /// exactly with its last field, so trailing bytes mean truncated-then-
    /// concatenated or corrupted input.
    pub fn finish(self) -> Result<(), StoreError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(StoreError::Malformed(format!(
                "{n} trailing bytes after the last field"
            ))),
        }
    }
}

/// Opens an envelope sealed by [`Writer::seal`]: checks length, magic,
/// version and the CRC-32 footer, in that order, before any body field is
/// read. Returns a reader over the body, between header and footer.
pub fn open<'a>(bytes: &'a [u8], magic: &[u8; 4], version: u32) -> Result<Reader<'a>, StoreError> {
    if bytes.len() < HEADER_LEN + CRC_LEN {
        return Err(StoreError::Malformed(format!(
            "{} bytes is shorter than the fixed header + footer",
            bytes.len()
        )));
    }
    let (sealed, footer) = bytes.split_at(bytes.len() - CRC_LEN);
    let mut body = Reader::new(sealed);
    body.header(magic, version)?;
    let expected = u32::from_le_bytes(footer.try_into().expect("4-byte footer"));
    let found = crc32(sealed);
    if expected != found {
        return Err(StoreError::Checksum { expected, found });
    }
    Ok(body)
}

/// Appends one frame `kind ‖ len u32 ‖ payload ‖ crc32` to `out`.
pub fn put_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let start = out.len();
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// What [`scan_frames`] found: the longest valid prefix of a frame stream.
#[derive(Debug)]
pub struct FrameScan<'a> {
    /// `(kind, payload)` of each frame of the valid prefix, in order.
    pub frames: Vec<(u8, &'a [u8])>,
    /// Byte length of the valid prefix (a frame boundary).
    pub valid_len: usize,
    /// True iff the scan consumed the whole buffer (no torn or corrupt
    /// tail).
    pub clean: bool,
}

/// Decodes frames from the start of `buf`, stopping at the first invalid
/// one: a short read, a kind `payload_len` does not know, a length other
/// than the one `payload_len` fixes for that kind, or a CRC mismatch.
/// Fixing each kind's payload length means a flipped length byte cannot
/// make the scan mis-frame the rest of the stream. Never panics:
/// arbitrary bytes yield the longest valid prefix, and a frame is only
/// returned when its CRC verified.
pub fn scan_frames(buf: &[u8], payload_len: impl Fn(u8) -> Option<usize>) -> FrameScan<'_> {
    let mut frames = Vec::new();
    let mut at = 0;
    while let Some((kind, payload)) = frame_at(&buf[at..], &payload_len) {
        frames.push((kind, payload));
        at += FRAME_OVERHEAD + payload.len();
    }
    FrameScan {
        frames,
        valid_len: at,
        clean: at == buf.len(),
    }
}

/// The frame at the start of `buf`; `None` on anything invalid.
fn frame_at<'a>(
    buf: &'a [u8],
    payload_len: &impl Fn(u8) -> Option<usize>,
) -> Option<(u8, &'a [u8])> {
    let mut r = Reader::new(buf);
    let kind = r.u8().ok()?;
    let len = r.u32().ok()? as usize;
    if Some(len) != payload_len(kind) {
        return None;
    }
    let payload = r.take(len).ok()?;
    let stored = r.u32().ok()?;
    (crc32(&buf[..5 + len]) == stored).then_some((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_envelope_opens_to_its_body() {
        let mut w = Writer::header(b"TEST", 7);
        w.u8(9);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f32(-1.5);
        w.f64(f64::MIN_POSITIVE);
        w.f32s(&[0.25, -0.0]);
        let sealed = w.seal();
        assert_eq!(sealed.len(), HEADER_LEN + 1 + 4 + 8 + 4 + 8 + 8 + CRC_LEN);
        let mut r = open(&sealed, b"TEST", 7).unwrap();
        assert_eq!(r.u8().unwrap(), 9);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f32().unwrap(), -1.5);
        assert_eq!(r.f64().unwrap(), f64::MIN_POSITIVE);
        let fs = r.f32s(2).unwrap();
        assert_eq!((fs[0], fs[1].to_bits()), (0.25, (-0.0f32).to_bits()));
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_overruns_and_trailing_bytes() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(r.u32().is_err(), "a short read is an error");
        assert_eq!(r.remaining(), 3, "a failed read consumes nothing");
        assert!(r.f32s(usize::MAX).is_err(), "a huge count cannot overflow");
        assert_eq!(r.u8().unwrap(), 1);
        assert!(r.finish().is_err(), "two bytes are left");
        let mut r = Reader::new(&[5, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4]);
        assert!(r.len_u64(1).is_err(), "five one-byte elements need 5 bytes");
        let mut r = Reader::new(&[4, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4]);
        assert_eq!(r.len_u64(1).unwrap(), 4);
    }
}
