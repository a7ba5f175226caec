//! Property tests for the shared binary codec, which every on-disk format
//! in the workspace inherits: the parameter store (`STPW`) and training
//! checkpoint (`STCK`) envelopes, and the write-ahead log's (`STWL`)
//! record frames.
//!
//! **Frames.** A log's recovery guarantee reduces to four properties:
//! encode/scan round-trips bitwise, *every* truncation point recovers
//! exactly the longest whole-frame prefix, a flipped byte is never
//! silently accepted (it either lands past the valid prefix or stops the
//! scan at the frame that holds it — CRC-32 detects all single-byte
//! errors within a frame, and fixed per-kind lengths keep a flipped
//! length byte from mis-framing the rest), and garbage never panics.
//!
//! **Envelopes.** A checkpoint is only ever trusted whole: every strict
//! prefix is an error, every single-byte flip is an error — a checksum
//! mismatch, or a malformed header when the flip lands in the magic or
//! version — and arbitrary bytes never panic.

use proptest::prelude::*;
use stod_faultline::codec::{
    open, put_frame, scan_frames, StoreError, Writer, CRC_LEN, HEADER_LEN,
};

/// Fixed payload length of each frame kind the tests use; kind 0 and
/// kinds past the table are unknown.
const LENS: [usize; 3] = [32, 8, 0];

fn payload_len(kind: u8) -> Option<usize> {
    LENS.get(usize::from(kind).checked_sub(1)?).copied()
}

/// Builds frames from generator output: `pick` selects the kind, and the
/// payload is the first bytes of `raw` that the kind's length allows.
fn frames(raw: &[(usize, Vec<u8>)]) -> Vec<(u8, Vec<u8>)> {
    raw.iter()
        .map(|(pick, bytes)| {
            let kind = (pick % LENS.len()) as u8 + 1;
            (kind, bytes[..LENS[usize::from(kind) - 1]].to_vec())
        })
        .collect()
}

/// Encodes a batch, returning the buffer plus each frame's end offset.
fn encode(frames: &[(u8, Vec<u8>)]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut ends = Vec::with_capacity(frames.len());
    for (kind, payload) in frames {
        put_frame(&mut buf, *kind, payload);
        ends.push(buf.len());
    }
    (buf, ends)
}

/// The `(kind, payload)` pairs a scan of `buf` accepts.
fn scanned(buf: &[u8]) -> (Vec<(u8, Vec<u8>)>, usize, bool) {
    let scan = scan_frames(buf, payload_len);
    let frames = scan.frames.iter().map(|&(k, p)| (k, p.to_vec())).collect();
    (frames, scan.valid_len, scan.clean)
}

fn frame_batch(max: usize) -> impl Strategy<Value = Vec<(usize, Vec<u8>)>> {
    proptest::collection::vec(
        (0usize..3, proptest::collection::vec(0u8..=255, 32)),
        1..max,
    )
}

const MAGIC: &[u8; 4] = b"PROP";
const VERSION: u32 = 3;

fn seal(body: &[u8]) -> Vec<u8> {
    let mut w = Writer::header(MAGIC, VERSION);
    w.bytes(body);
    w.seal()
}

proptest! {
    /// Any batch of frames round-trips bitwise through put/scan.
    #[test]
    fn encode_scan_roundtrips(raw in frame_batch(60)) {
        let frames = frames(&raw);
        let (buf, _) = encode(&frames);
        let (got, valid_len, clean) = scanned(&buf);
        prop_assert_eq!(&got, &frames);
        prop_assert_eq!(valid_len, buf.len());
        prop_assert!(clean);
    }

    /// Truncating the encoded stream at *any* byte recovers exactly the
    /// frames that fit whole before the cut — never a torn frame, never
    /// one fewer than durable.
    #[test]
    fn every_truncation_point_recovers_the_longest_whole_prefix(
        raw in frame_batch(40),
        cut_frac in 0.0f64..1.0,
    ) {
        let frames = frames(&raw);
        let (buf, ends) = encode(&frames);
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        let survivors = ends.iter().take_while(|&&e| e <= cut).count();
        let (got, valid_len, clean) = scanned(&buf[..cut]);
        prop_assert_eq!(&got, &frames[..survivors]);
        prop_assert_eq!(valid_len, if survivors == 0 { 0 } else { ends[survivors - 1] });
        prop_assert_eq!(clean, cut == valid_len);
    }

    /// Flipping any byte anywhere in the stream never panics and is never
    /// silently accepted: the scan returns exactly the frames *before*
    /// the corrupted one and stops.
    #[test]
    fn a_flipped_byte_never_silently_passes_the_crc(
        raw in frame_batch(40),
        pos_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let frames = frames(&raw);
        let (mut buf, ends) = encode(&frames);
        let pos = (((buf.len() - 1) as f64) * pos_frac) as usize;
        buf[pos] ^= mask;
        let hit = ends.iter().take_while(|&&e| e <= pos).count();
        let (got, valid_len, clean) = scanned(&buf);
        prop_assert_eq!(&got, &frames[..hit]);
        prop_assert_eq!(valid_len, if hit == 0 { 0 } else { ends[hit - 1] });
        prop_assert!(!clean, "a corrupt frame must leave an unconsumed tail");
    }

    /// Arbitrary garbage (no valid framing at all) never panics the
    /// scanner, and whatever prefix it does accept is within bounds.
    #[test]
    fn arbitrary_garbage_never_panics_the_scanner(
        bytes in proptest::collection::vec(0u8..=255, 0..200)
    ) {
        let (_, valid_len, clean) = scanned(&bytes);
        prop_assert!(valid_len <= bytes.len());
        prop_assert_eq!(clean, valid_len == bytes.len());
    }

    /// A sealed envelope opens to exactly its body.
    #[test]
    fn envelope_roundtrips(body in proptest::collection::vec(0u8..=255, 0..120)) {
        let sealed = seal(&body);
        prop_assert_eq!(sealed.len(), HEADER_LEN + body.len() + CRC_LEN);
        let mut r = open(&sealed, MAGIC, VERSION).expect("sealed envelope opens");
        prop_assert_eq!(r.take(r.remaining()).unwrap(), &body[..]);
        prop_assert!(r.finish().is_ok());
    }

    /// Every strict prefix of a sealed envelope is rejected.
    #[test]
    fn every_strict_prefix_of_an_envelope_is_an_error(
        body in proptest::collection::vec(0u8..=255, 0..120)
    ) {
        let sealed = seal(&body);
        for cut in 0..sealed.len() {
            prop_assert!(
                open(&sealed[..cut], MAGIC, VERSION).is_err(),
                "prefix of {} of {} bytes opened", cut, sealed.len()
            );
        }
    }

    /// Every single-byte flip is rejected: a checksum mismatch, or a
    /// malformed header when the flip lands in the magic or version.
    #[test]
    fn every_single_byte_flip_of_an_envelope_is_an_error(
        body in proptest::collection::vec(0u8..=255, 0..120),
        mask in 1u8..=255,
    ) {
        let sealed = seal(&body);
        for pos in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[pos] ^= mask;
            match open(&bad, MAGIC, VERSION) {
                Err(StoreError::Malformed(_)) => prop_assert!(
                    pos < HEADER_LEN, "flip at {} is past the header but Malformed", pos
                ),
                Err(StoreError::Checksum { expected, found }) => {
                    prop_assert!(pos >= HEADER_LEN, "flip at {} is in the header", pos);
                    prop_assert_ne!(expected, found);
                }
                Err(StoreError::Io(e)) => panic!("io error {e}"),
                Ok(_) => panic!("flip at {pos} with mask {mask} opened"),
            }
        }
    }

    /// Arbitrary bytes never panic `open`, with or without a valid header
    /// in front; whatever opens leaves a body between header and footer.
    #[test]
    fn arbitrary_bytes_never_panic_open(
        with_header in 0u8..2,
        tail in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut bytes = Vec::new();
        if with_header == 1 {
            bytes = Writer::header(MAGIC, VERSION).into_bytes();
        }
        bytes.extend_from_slice(&tail);
        if let Ok(r) = open(&bytes, MAGIC, VERSION) {
            prop_assert_eq!(r.remaining(), bytes.len() - HEADER_LEN - CRC_LEN);
        }
    }
}
