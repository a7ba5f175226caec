//! End-to-end property test for the write-ahead log's recovery.
//!
//! The frame codec's own properties — round-trip, every truncation point
//! recovering the longest whole-frame prefix, flipped bytes never
//! accepted, garbage never panicking — are proven once for every format
//! in `crates/faultline/tests/codec_props.rs`. This suite drives the
//! real `TripWal` on a directory: write a batch, truncate the segment
//! file anywhere, and reopen.

use proptest::prelude::*;
use stod_serve::wal::{encode_record, segment_header, WalConfig};
use stod_serve::{TripWal, WalRecord};
use stod_traffic::Trip;

/// Builds a record from compact generator output: `kind` picks push vs
/// seal, the rest parameterizes it. Floats go through finite, in-range
/// generators — invalid trips are rejected at ingest and can never reach
/// the log (see `IngestError`), so the codec only ever sees valid ones.
fn record(kind: u8, a: u32, b: u32, t: u64, km: f64, ms: f64) -> WalRecord {
    if kind == 0 {
        WalRecord::Seal(t)
    } else {
        WalRecord::Push(Trip {
            origin: a as usize,
            dest: b as usize,
            interval: t as usize,
            distance_km: km,
            speed_ms: ms,
        })
    }
}

/// Encodes a batch, returning the buffer plus each frame's end offset.
fn encode_batch(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut ends = Vec::with_capacity(records.len());
    for rec in records {
        encode_record(rec, &mut buf);
        ends.push(buf.len());
    }
    (buf, ends)
}

type RecordTuple = (u8, u32, u32, u64, f64, f64);

fn batch(raw: &[RecordTuple]) -> Vec<WalRecord> {
    raw.iter()
        .map(|&(k, a, b, t, km, ms)| record(k, a, b, t, km, ms))
        .collect()
}

proptest! {
    /// End to end: write a batch through a real `TripWal`, truncate the
    /// (single-segment) file at an arbitrary byte past the header, and
    /// reopen — recovery replays exactly the whole frames before the cut
    /// and the handle stays appendable.
    #[test]
    fn truncated_segment_file_reopens_to_the_longest_valid_prefix(
        raw in proptest::collection::vec(
            (0u8..2, 0u32..16, 0u32..16, 0u64..64, 0.0f64..100.0, 0.1f64..60.0),
            1..20,
        ),
        cut_frac in 0.0f64..1.0,
        case in 0u64..u64::MAX,
    ) {
        let records = batch(&raw);
        let dir = std::env::temp_dir().join(format!(
            "stod_wal_props_{}_{case:x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (wal, replay) = TripWal::open(&dir, 3, 64, WalConfig::default()).unwrap();
            prop_assert!(replay.records.is_empty());
            for rec in &records {
                match rec {
                    WalRecord::Push(trip) => wal.append_push(trip).unwrap(),
                    WalRecord::Seal(t) => wal.append_seal(*t as usize).unwrap(),
                }
            }
            wal.flush().unwrap();
        }
        let (_, ends) = encode_batch(&records);
        let header = segment_header(3).len();
        let body = *ends.last().unwrap();
        let cut = ((body as f64) * cut_frac) as usize;
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "log"))
            .unwrap();
        let full = std::fs::read(&seg).unwrap();
        prop_assert_eq!(full.len(), header + body);
        std::fs::write(&seg, &full[..header + cut]).unwrap();
        let survivors = ends.iter().take_while(|&&e| e <= cut).count();
        let boundary = if survivors == 0 { 0 } else { ends[survivors - 1] };
        let (wal, replay) = TripWal::open(&dir, 3, 64, WalConfig::default()).unwrap();
        prop_assert_eq!(&replay.records, &records[..survivors]);
        // A cut exactly on a frame boundary reopens clean — it is
        // indistinguishable from fewer appends, which is the point.
        prop_assert_eq!(replay.truncated_tails, u64::from(cut != boundary));
        wal.append_seal(999).unwrap();
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
