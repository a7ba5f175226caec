//! Per-shard segmented write-ahead trip log.
//!
//! The [`crate::FeatureStore`] sliding window is the one stateful serving
//! component with no durability story: a process crash silently loses the
//! ingest window, restarts serve stale NH fallbacks until re-ingest, and
//! adaptation stalls until `MIN_WINDOWS` rebuilds. The [`TripWal`] closes
//! that gap by logging every `push_trip`/`seal_interval` as a CRC-framed
//! record before serving continues, so a restart replays the log and
//! rebuilds the sealed window bitwise-identical to the pre-crash state
//! (`OdTensor::from_trips` is a deterministic function of the trip
//! multiset per interval, which the log preserves exactly).
//!
//! ## On-disk format
//!
//! A WAL is a directory of segment files `wal-{seq:08}.log`. Each segment
//! starts with a 12-byte header:
//!
//! ```text
//! magic "STWL" (4) | format version u32 LE (1) | city id u32 LE
//! ```
//!
//! followed by [`stod_faultline::codec`] frames:
//!
//! ```text
//! kind u8 | payload len u32 LE | payload | crc32 u32 LE
//! ```
//!
//! where the CRC covers `kind ‖ len ‖ payload` (CRC-32/IEEE, the same
//! framing module every checkpoint format in the workspace uses). Kind 1 is a
//! push (origin u32, dest u32, interval u64, distance-km f64 bits, speed
//! f64 bits — 32 bytes, all LE); kind 2 is a seal (interval u64). Payload
//! lengths are *fixed per kind* and enforced on decode, so a flipped
//! length byte cannot make the scanner mis-frame the rest of the log.
//!
//! ## Recovery
//!
//! [`TripWal::open`] scans segments in sequence order. The first invalid
//! frame — short read, unknown kind, wrong length, CRC mismatch — ends
//! the scan: that segment is truncated to its longest valid prefix (a
//! torn tail from a mid-append kill is expected, not an error) and any
//! later segments are discarded. Recovery therefore never fails on a
//! damaged log; it replays the longest valid prefix and reports how much
//! was dropped.
//!
//! ## Fsync policy and rotation
//!
//! [`WalConfig::fsync`] picks the durability/throughput trade:
//! [`FsyncPolicy::Every`] fsyncs per append, [`FsyncPolicy::Group`]`(N)`
//! fsyncs once per `N` appends (group commit, the default at `N = 32`),
//! [`FsyncPolicy::Off`] leaves flushing to the OS.
//! [`WalConfig::segment_bytes`] bounds segment size; on overflow the
//! tail is fsynced, closed, and a new segment opened. Closed segments
//! whose newest referenced interval has fallen behind the sliding
//! window's retention horizon are deleted — the log never grows beyond
//! what a restart actually needs.

use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use stod_faultline::codec::{self, Reader, StoreError, Writer};
use stod_faultline::FaultSite;
use stod_obs::json::{self, ToJson};
use stod_obs::sync::lock;
use stod_traffic::Trip;

/// Segment file magic.
const MAGIC: &[u8; 4] = b"STWL";
/// On-disk format version.
const FORMAT_VERSION: u32 = 1;
/// Header length: magic + version + city id.
const HEADER_LEN: usize = codec::HEADER_LEN + 4;
/// Frame kind of a push record.
const KIND_PUSH: u8 = 1;
/// Frame kind of a seal record.
const KIND_SEAL: u8 = 2;
/// Payload length of a push frame.
const PUSH_PAYLOAD: usize = 32;
/// Payload length of a seal frame.
const SEAL_PAYLOAD: usize = 8;

/// One logged ingest operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalRecord {
    /// A `push_trip` of this trip.
    Push(Trip),
    /// A `seal_interval(t)`.
    Seal(u64),
}

/// The fixed payload length of each record kind; `None` for a kind the
/// log does not know.
fn payload_len(kind: u8) -> Option<usize> {
    match kind {
        KIND_PUSH => Some(PUSH_PAYLOAD),
        KIND_SEAL => Some(SEAL_PAYLOAD),
        _ => None,
    }
}

/// Serializes one record as a [`codec`] frame into `out` (header not
/// included).
pub fn encode_record(rec: &WalRecord, out: &mut Vec<u8>) {
    let mut w = Writer::new();
    let kind = match rec {
        WalRecord::Push(trip) => {
            w.u32(trip.origin as u32);
            w.u32(trip.dest as u32);
            w.u64(trip.interval as u64);
            w.f64(trip.distance_km);
            w.f64(trip.speed_ms);
            KIND_PUSH
        }
        WalRecord::Seal(t) => {
            w.u64(*t);
            KIND_SEAL
        }
    };
    codec::put_frame(out, kind, w.as_bytes());
}

/// Decodes one frame's payload; [`codec::scan_frames`] has already
/// checked its CRC and that its length is the one its kind fixes.
fn decode_record(kind: u8, payload: &[u8]) -> Result<WalRecord, StoreError> {
    let mut r = Reader::new(payload);
    Ok(match kind {
        KIND_PUSH => WalRecord::Push(Trip {
            origin: r.u32()? as usize,
            dest: r.u32()? as usize,
            interval: r.u64()? as usize,
            distance_km: r.f64()?,
            speed_ms: r.f64()?,
        }),
        _ => WalRecord::Seal(r.u64()?),
    })
}

/// What a frame scan found: the decoded longest valid prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanResult {
    /// Records of the valid prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (a frame boundary).
    pub valid_len: usize,
    /// True iff the scan consumed the whole buffer (no torn/corrupt tail).
    pub clean: bool,
}

/// Decodes frames from `buf` (header already stripped), stopping at the
/// first invalid frame. Never panics: arbitrary bytes yield the longest
/// valid prefix, and a record is only returned when its CRC verified.
pub fn scan_records(buf: &[u8]) -> ScanResult {
    let scan = codec::scan_frames(buf, payload_len);
    ScanResult {
        records: scan
            .frames
            .iter()
            .map(|&(kind, payload)| {
                decode_record(kind, payload).expect("the scan fixed each payload's length")
            })
            .collect(),
        valid_len: scan.valid_len,
        clean: scan.clean,
    }
}

/// Builds the 12-byte segment header for one shard's log.
pub fn segment_header(city: u32) -> Vec<u8> {
    let mut w = Writer::header(MAGIC, FORMAT_VERSION);
    w.u32(city);
    w.into_bytes()
}

/// Validates a segment header against the expected city; returns the
/// header length on success.
pub fn parse_segment_header(buf: &[u8], city: u32) -> Option<usize> {
    let mut r = Reader::new(buf);
    r.header(MAGIC, FORMAT_VERSION).ok()?;
    (r.u32().ok()? == city).then_some(HEADER_LEN)
}

/// When appended records are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append — maximum durability, minimum throughput.
    Every,
    /// Group commit: fsync once per this many appends (and on rotation).
    Group(u64),
    /// Never fsync explicitly; the OS flushes when it pleases.
    Off,
}

/// WAL tuning: when appends are fsynced and when segments rotate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Fsync batching policy.
    pub fsync: FsyncPolicy,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            fsync: FsyncPolicy::Group(32),
            segment_bytes: 1 << 20,
        }
    }
}

/// What [`TripWal::open`] replayed out of an existing log directory.
#[derive(Debug, Clone)]
pub struct WalReplay {
    /// Every valid record, in append order across segments.
    pub records: Vec<WalRecord>,
    /// Torn or corrupt tails truncated during the scan (0 on a clean
    /// shutdown; each truncation drops at least the one damaged record).
    pub truncated_tails: u64,
    /// Segment files scanned.
    pub segments: usize,
}

/// A frozen view of one WAL's counters, for `Fleet::health()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Segment files currently on disk (closed + tail).
    pub segments: usize,
    /// Bytes in the open tail segment (header included).
    pub tail_bytes: u64,
    /// Records appended over this handle's lifetime.
    pub appends: u64,
    /// Explicit fsyncs issued.
    pub fsyncs: u64,
    /// Segment rotations performed.
    pub rotations: u64,
    /// Records replayed at open.
    pub replayed: u64,
    /// Torn/corrupt tails truncated at open.
    pub truncated_tails: u64,
    /// Closed segments deleted by retention.
    pub retired_segments: u64,
    /// True when a torn write killed this handle (appends refused; the
    /// process is expected to restart and recover).
    pub dead: bool,
}

impl ToJson for WalStats {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("segments", &self.segments);
            o.field("tail_bytes", &self.tail_bytes);
            o.field("appends", &self.appends);
            o.field("fsyncs", &self.fsyncs);
            o.field("rotations", &self.rotations);
            o.field("replayed", &self.replayed);
            o.field("truncated_tails", &self.truncated_tails);
            o.field("retired_segments", &self.retired_segments);
            o.field("dead", &self.dead);
        });
    }
}

/// One closed (rotated-out) segment and the newest interval any of its
/// records references — the retention key.
struct ClosedSegment {
    seq: u64,
    max_interval: Option<u64>,
}

struct WalInner {
    file: File,
    seq: u64,
    tail_bytes: u64,
    tail_max_interval: Option<u64>,
    unsynced: u64,
    dead: bool,
    closed: Vec<ClosedSegment>,
    /// Mirror of the feature store's sealed-interval set under the same
    /// count-based eviction, so the retention horizon tracks exactly what
    /// a recovery still needs.
    sealed: BTreeSet<u64>,
}

/// A per-shard segmented write-ahead trip log. All methods take `&self`;
/// appends serialize on an internal lock (the caller's ingest path is the
/// ordering authority — records land in the log in the order the feature
/// store applied them).
pub struct TripWal {
    dir: PathBuf,
    city: u32,
    cfg: WalConfig,
    window_capacity: usize,
    inner: Mutex<WalInner>,
    appends: AtomicU64,
    fsyncs: AtomicU64,
    rotations: AtomicU64,
    replayed: AtomicU64,
    truncated_tails: AtomicU64,
    retired_segments: AtomicU64,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

/// Lists `(seq, path)` of the segment files in `dir`, ordered by seq.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        segs.push((seq, entry.path()));
    }
    segs.sort_by_key(|(seq, _)| *seq);
    Ok(segs)
}

fn max_interval_of(records: &[WalRecord]) -> Option<u64> {
    records
        .iter()
        .map(|r| match r {
            WalRecord::Push(t) => t.interval as u64,
            WalRecord::Seal(t) => *t,
        })
        .max()
}

impl TripWal {
    /// Opens (or creates) the log directory for one shard, replays every
    /// valid record, truncates any torn/corrupt tail, and leaves the
    /// handle ready to append. The returned [`WalReplay`] carries the
    /// records the caller must apply to its feature store *without*
    /// re-logging them.
    ///
    /// `window_capacity` must match the feature store's sealed-window
    /// capacity: it drives segment retention.
    ///
    /// The [`FaultSite::WalCorrupt`] injection point corrupts each
    /// segment's bytes between read and decode, exercising exactly the
    /// path disk bit-rot would take (the CRC catches it; the scan stops
    /// at the longest valid prefix).
    pub fn open(
        dir: &Path,
        city: u32,
        window_capacity: usize,
        cfg: WalConfig,
    ) -> io::Result<(TripWal, WalReplay)> {
        assert!(window_capacity >= 1, "window capacity must be ≥ 1");
        std::fs::create_dir_all(dir)?;
        let segs = list_segments(dir)?;
        let mut records: Vec<WalRecord> = Vec::new();
        let mut truncated = 0u64;
        let mut closed = Vec::new();
        // Index of the segment the scan stopped in (torn/corrupt), if any.
        let mut stopped: Option<usize> = None;
        let mut tail: Option<(u64, u64, Option<u64>)> = None; // (seq, bytes, max_interval)
        for (i, (seq, path)) in segs.iter().enumerate() {
            let mut buf = std::fs::read(path)?;
            stod_faultline::maybe_corrupt(FaultSite::WalCorrupt, &mut buf);
            let Some(hlen) = parse_segment_header(&buf, city) else {
                // Unreadable header: nothing in this segment (or anything
                // after it) is trustworthy. Drop the file and stop.
                std::fs::remove_file(path)?;
                truncated += 1;
                stopped = Some(i);
                break;
            };
            let scan = scan_records(&buf[hlen..]);
            let max_interval = max_interval_of(&scan.records);
            records.extend(scan.records);
            if !scan.clean {
                // Torn/corrupt tail: persist the longest valid prefix and
                // discard everything after it.
                std::fs::write(path, &buf[..hlen + scan.valid_len])?;
                truncated += 1;
                stopped = Some(i);
                tail = Some((*seq, (hlen + scan.valid_len) as u64, max_interval));
                break;
            }
            closed.push(ClosedSegment {
                seq: *seq,
                max_interval,
            });
            tail = Some((*seq, buf.len() as u64, max_interval));
        }
        if let Some(i) = stopped {
            for (_, path) in &segs[i + 1..] {
                std::fs::remove_file(path)?;
            }
        } else if tail.is_some() {
            // The last clean segment becomes the append tail again.
            closed.pop();
        }

        // Rebuild the sealed-interval mirror under the store's eviction.
        let mut sealed = BTreeSet::new();
        for rec in &records {
            if let WalRecord::Seal(t) = rec {
                sealed.insert(*t);
                while sealed.len() > window_capacity {
                    let oldest = *sealed.iter().next().unwrap();
                    sealed.remove(&oldest);
                }
            }
        }

        let (seq, tail_bytes, tail_max_interval, file) = match tail {
            Some((seq, bytes, max_interval)) => {
                let file = OpenOptions::new()
                    .append(true)
                    .open(segment_path(dir, seq))?;
                (seq, bytes, max_interval, file)
            }
            None => {
                let seq = 0;
                let mut file = OpenOptions::new()
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(segment_path(dir, seq))?;
                file.write_all(&segment_header(city))?;
                (seq, HEADER_LEN as u64, None, file)
            }
        };

        let replay = WalReplay {
            truncated_tails: truncated,
            segments: segs.len(),
            records,
        };
        let wal = TripWal {
            dir: dir.to_path_buf(),
            city,
            cfg,
            window_capacity,
            inner: Mutex::new(WalInner {
                file,
                seq,
                tail_bytes,
                tail_max_interval,
                unsynced: 0,
                dead: false,
                closed,
                sealed,
            }),
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
            replayed: AtomicU64::new(replay.records.len() as u64),
            truncated_tails: AtomicU64::new(truncated),
            retired_segments: AtomicU64::new(0),
        };
        if stod_obs::armed() {
            stod_obs::count("wal/replayed", replay.records.len() as u64);
            stod_obs::count("wal/truncated_tail_records", truncated);
        }
        Ok((wal, replay))
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True after a torn write killed this handle.
    pub fn is_dead(&self) -> bool {
        lock(&self.inner).dead
    }

    /// Logs one trip push. Call *after* the feature store accepted the
    /// trip, so only valid records ever reach the log.
    pub fn append_push(&self, trip: &Trip) -> io::Result<()> {
        self.append(&WalRecord::Push(*trip))
    }

    /// Logs one interval seal.
    pub fn append_seal(&self, t: usize) -> io::Result<()> {
        self.append(&WalRecord::Seal(t as u64))
    }

    fn append(&self, rec: &WalRecord) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        if inner.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "wal handle is dead after a torn write (restart and recover)",
            ));
        }
        let mut frame = Vec::with_capacity(codec::FRAME_OVERHEAD + PUSH_PAYLOAD);
        encode_record(rec, &mut frame);
        if stod_faultline::fire(FaultSite::WalTornWrite).is_some() {
            // Simulate a kill mid-append: a prefix of the frame lands,
            // then the "process" dies. The handle goes dead so nothing
            // can be appended after the torn frame — exactly the state a
            // real crash leaves on disk for recovery to truncate.
            let _ = inner.file.write_all(&frame[..frame.len() / 2]);
            let _ = inner.file.sync_data();
            inner.dead = true;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "faultline: torn wal append",
            ));
        }
        inner.file.write_all(&frame)?;
        inner.tail_bytes += frame.len() as u64;
        let interval = match rec {
            WalRecord::Push(t) => t.interval as u64,
            WalRecord::Seal(t) => *t,
        };
        inner.tail_max_interval = Some(
            inner
                .tail_max_interval
                .map_or(interval, |m| m.max(interval)),
        );
        if let WalRecord::Seal(t) = rec {
            inner.sealed.insert(*t);
            while inner.sealed.len() > self.window_capacity {
                let oldest = *inner.sealed.iter().next().unwrap();
                inner.sealed.remove(&oldest);
            }
        }
        self.appends.fetch_add(1, Ordering::Relaxed);
        if stod_obs::armed() {
            stod_obs::count("wal/appends", 1);
        }
        match self.cfg.fsync {
            FsyncPolicy::Every => self.sync(&mut inner)?,
            FsyncPolicy::Group(n) => {
                inner.unsynced += 1;
                if inner.unsynced >= n {
                    self.sync(&mut inner)?;
                }
            }
            FsyncPolicy::Off => {}
        }
        if inner.tail_bytes >= self.cfg.segment_bytes {
            self.rotate(&mut inner)?;
        }
        Ok(())
    }

    fn sync(&self, inner: &mut WalInner) -> io::Result<()> {
        inner.file.sync_data()?;
        inner.unsynced = 0;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        if stod_obs::armed() {
            stod_obs::count("wal/fsyncs", 1);
        }
        Ok(())
    }

    /// Fsyncs any unflushed appends regardless of policy.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = lock(&self.inner);
        if inner.dead {
            return Ok(());
        }
        self.sync(&mut inner)
    }

    fn rotate(&self, inner: &mut WalInner) -> io::Result<()> {
        // A rotation always makes the closed segment durable: replay must
        // never depend on the OS having flushed a file we stopped writing.
        inner.file.sync_data()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        inner.closed.push(ClosedSegment {
            seq: inner.seq,
            max_interval: inner.tail_max_interval,
        });
        inner.seq += 1;
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(segment_path(&self.dir, inner.seq))?;
        file.write_all(&segment_header(self.city))?;
        inner.file = file;
        inner.tail_bytes = HEADER_LEN as u64;
        inner.tail_max_interval = None;
        inner.unsynced = 0;
        self.rotations.fetch_add(1, Ordering::Relaxed);
        if stod_obs::armed() {
            stod_obs::count("wal/rotations", 1);
        }
        self.retire(inner)?;
        Ok(())
    }

    /// Deletes closed segments the sliding window can no longer need: a
    /// segment is retired once its newest referenced interval is both
    /// older than the oldest retained sealed interval *and* older than
    /// the pending-trip prune horizon — the same two rules the feature
    /// store evicts by, so a replay of the surviving segments rebuilds
    /// the window exactly.
    fn retire(&self, inner: &mut WalInner) -> io::Result<()> {
        let Some(&newest) = inner.sealed.iter().next_back() else {
            return Ok(());
        };
        let first_retained = *inner.sealed.iter().next().unwrap();
        let prune = (newest + 1).saturating_sub(self.window_capacity as u64);
        let horizon = first_retained.min(prune);
        let mut retired = 0u64;
        let dir = &self.dir;
        let mut err = None;
        inner.closed.retain(|seg| {
            let keep = seg.max_interval.is_some_and(|m| m >= horizon);
            if !keep {
                if let Err(e) = std::fs::remove_file(segment_path(dir, seg.seq)) {
                    if e.kind() != io::ErrorKind::NotFound && err.is_none() {
                        err = Some(e);
                    }
                }
                retired += 1;
            }
            keep
        });
        if retired > 0 {
            self.retired_segments.fetch_add(retired, Ordering::Relaxed);
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Re-reads every surviving segment and returns the valid records —
    /// the self-healing path: after an in-place shard crash wiped the
    /// in-memory window, the shard replays this to rebuild it. Does not
    /// mutate any file (a torn tail, if present, is simply not decoded).
    pub fn replay_records(&self) -> io::Result<Vec<WalRecord>> {
        let inner = lock(&self.inner);
        let mut records = Vec::new();
        let mut seqs: Vec<u64> = inner.closed.iter().map(|s| s.seq).collect();
        seqs.push(inner.seq);
        seqs.sort_unstable();
        for seq in seqs {
            let buf = std::fs::read(segment_path(&self.dir, seq))?;
            let Some(hlen) = parse_segment_header(&buf, self.city) else {
                break;
            };
            let scan = scan_records(&buf[hlen..]);
            records.extend(scan.records);
            if !scan.clean {
                break;
            }
        }
        Ok(records)
    }

    /// A frozen view of this log's counters.
    pub fn stats(&self) -> WalStats {
        let inner = lock(&self.inner);
        WalStats {
            segments: inner.closed.len() + 1,
            tail_bytes: inner.tail_bytes,
            appends: self.appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            rotations: self.rotations.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            truncated_tails: self.truncated_tails.load(Ordering::Relaxed),
            retired_segments: self.retired_segments.load(Ordering::Relaxed),
            dead: inner.dead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stod_faultline::{install, quiet, FaultPlan};

    fn trip(o: usize, d: usize, t: usize, v: f64) -> Trip {
        Trip {
            origin: o,
            dest: d,
            interval: t,
            distance_km: 1.25,
            speed_ms: v,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "stod_wal_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn append_then_reopen_replays_bitwise() {
        let _quiet = quiet();
        let dir = tmp_dir("roundtrip");
        let ops = vec![
            WalRecord::Push(trip(0, 1, 3, 2.5)),
            WalRecord::Push(trip(1, 0, 3, f64::MIN_POSITIVE)),
            WalRecord::Seal(3),
            WalRecord::Push(trip(2, 2, 4, 9.75)),
            WalRecord::Seal(4),
        ];
        {
            let (wal, replay) = TripWal::open(&dir, 7, 8, WalConfig::default()).unwrap();
            assert!(replay.records.is_empty());
            for op in &ops {
                match op {
                    WalRecord::Push(t) => wal.append_push(t).unwrap(),
                    WalRecord::Seal(t) => wal.append_seal(*t as usize).unwrap(),
                }
            }
            wal.flush().unwrap();
        }
        let (wal, replay) = TripWal::open(&dir, 7, 8, WalConfig::default()).unwrap();
        assert_eq!(
            replay.records, ops,
            "replay must reproduce every record bitwise"
        );
        assert_eq!(replay.truncated_tails, 0);
        assert_eq!(wal.stats().replayed, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_city_header_is_not_replayed() {
        let _quiet = quiet();
        let dir = tmp_dir("city");
        {
            let (wal, _) = TripWal::open(&dir, 1, 8, WalConfig::default()).unwrap();
            wal.append_seal(0).unwrap();
            wal.flush().unwrap();
        }
        let (_, replay) = TripWal::open(&dir, 2, 8, WalConfig::default()).unwrap();
        assert!(
            replay.records.is_empty(),
            "city 2 must not replay city 1's log"
        );
        assert_eq!(replay.truncated_tails, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_append_kills_handle_and_recovery_truncates() {
        let dir = tmp_dir("torn");
        {
            let quiet_setup = quiet();
            let (wal, _) = TripWal::open(&dir, 0, 8, WalConfig::default()).unwrap();
            wal.append_push(&trip(0, 1, 0, 3.0)).unwrap();
            wal.append_seal(0).unwrap();
            drop(quiet_setup);
            {
                let _g = install(FaultPlan::new(5).with(FaultSite::WalTornWrite, 1.0, 0));
                let err = wal.append_push(&trip(1, 1, 1, 4.0)).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::Interrupted);
            }
            assert!(wal.is_dead());
            let err = wal.append_seal(1).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::BrokenPipe,
                "dead wal refuses appends"
            );
            assert!(wal.stats().dead);
        }
        // Recovery runs fault-free: another test's corruption plan must
        // not perturb the replay this test checks record by record.
        let _quiet = quiet();
        let (wal, replay) = TripWal::open(&dir, 0, 8, WalConfig::default()).unwrap();
        assert_eq!(
            replay.records,
            vec![WalRecord::Push(trip(0, 1, 0, 3.0)), WalRecord::Seal(0)],
            "recovery keeps exactly the pre-tear prefix"
        );
        assert_eq!(replay.truncated_tails, 1);
        // The truncated log is append-ready again.
        wal.append_seal(1).unwrap();
        wal.flush().unwrap();
        drop(wal);
        let (_, replay) = TripWal::open(&dir, 0, 8, WalConfig::default()).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.truncated_tails, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_replay_corruption_never_panics_and_keeps_a_valid_prefix() {
        let dir = tmp_dir("corrupt");
        {
            let _quiet = quiet();
            let (wal, _) = TripWal::open(&dir, 0, 8, WalConfig::default()).unwrap();
            for t in 0..20 {
                wal.append_push(&trip(0, 1, t, 2.0)).unwrap();
                wal.append_seal(t).unwrap();
            }
            wal.flush().unwrap();
        }
        for mode in 0..3 {
            let _g = install(FaultPlan::new(31 + mode).with(FaultSite::WalCorrupt, 1.0, mode));
            let (_, replay) = TripWal::open(&dir, 0, 8, WalConfig::default()).unwrap();
            // Whatever the corruption did, every surviving record decoded
            // through a verified CRC and the prefix is ordered.
            assert!(replay.records.len() <= 40);
            drop(_g);
            // Repair the log for the next iteration by rewriting it clean.
            let _quiet = quiet();
            std::fs::remove_dir_all(&dir).unwrap();
            let (wal, _) = TripWal::open(&dir, 0, 8, WalConfig::default()).unwrap();
            for t in 0..20 {
                wal.append_push(&trip(0, 1, t, 2.0)).unwrap();
                wal.append_seal(t).unwrap();
            }
            wal.flush().unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let _quiet = quiet();
        let dir = tmp_dir("group");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Group(4),
            ..WalConfig::default()
        };
        let (wal, _) = TripWal::open(&dir, 0, 8, cfg).unwrap();
        for t in 0..8 {
            wal.append_seal(t).unwrap();
        }
        assert_eq!(wal.stats().fsyncs, 2, "8 appends at group:4 = 2 fsyncs");
        let every = WalConfig {
            fsync: FsyncPolicy::Every,
            ..WalConfig::default()
        };
        let dir2 = tmp_dir("every");
        let (wal2, _) = TripWal::open(&dir2, 0, 8, every).unwrap();
        for t in 0..8 {
            wal2.append_seal(t).unwrap();
        }
        assert_eq!(wal2.stats().fsyncs, 8);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn rotation_and_retention_bound_the_log() {
        let _quiet = quiet();
        let dir = tmp_dir("rotate");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Off,
            segment_bytes: 1024,
        };
        let capacity = 4;
        let (wal, _) = TripWal::open(&dir, 0, capacity, cfg).unwrap();
        for t in 0..200 {
            for i in 0..3 {
                wal.append_push(&trip(i, i, t, 2.0)).unwrap();
            }
            wal.append_seal(t).unwrap();
        }
        let stats = wal.stats();
        assert!(stats.rotations > 0, "tiny segments must rotate");
        assert!(stats.retired_segments > 0, "old segments must retire");
        let on_disk = list_segments(&dir).unwrap();
        assert_eq!(on_disk.len(), stats.segments);
        assert!(
            on_disk.len() < 10,
            "retention must bound the directory, got {} segments",
            on_disk.len()
        );
        wal.flush().unwrap();
        drop(wal);
        // Recovery from the bounded log still rebuilds the full window.
        let (_, replay) = TripWal::open(&dir, 0, capacity, cfg).unwrap();
        let sealed: Vec<u64> = replay
            .records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Seal(t) => Some(*t),
                _ => None,
            })
            .collect();
        for t in 196..200 {
            assert!(
                sealed.contains(&t),
                "window interval {t} must survive retention"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_ignores_trailing_garbage_without_panicking() {
        let _quiet = quiet();
        let mut buf = Vec::new();
        encode_record(&WalRecord::Seal(9), &mut buf);
        let valid = buf.len();
        buf.extend_from_slice(&[0xFF; 7]);
        let scan = scan_records(&buf);
        assert_eq!(scan.records, vec![WalRecord::Seal(9)]);
        assert_eq!(scan.valid_len, valid);
        assert!(!scan.clean);
    }
}
