//! Crash-consistent file persistence: write-tmp → fsync → atomic rename.
//!
//! Every checkpoint writer in the workspace goes through [`atomic_write`],
//! which guarantees the *previous* file contents survive any failure — a
//! crash, a full disk, an interrupted syscall — because the target path is
//! only ever replaced by a single `rename(2)` of a fully-written,
//! fsync'd temporary. The [`FaultSite::SaveInterrupt`] and
//! [`FaultSite::SaveDiskFull`] injection points live here so chaos tests
//! can prove that guarantee byte-for-byte.

use crate::{fire, FaultSite};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The temporary sibling a pending write lands in before the rename.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replaces `path` with `bytes`.
///
/// The write sequence is: create `path.tmp` (truncating any stale one),
/// write all bytes, `fsync`, `rename(path.tmp, path)`, then best-effort
/// `fsync` of the parent directory so the rename itself is durable. On any
/// error — real or injected — the temporary is removed (best-effort) and
/// the previous contents of `path`, if any, are untouched.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let _span = stod_obs::span!("io/atomic_write");
    let tmp = tmp_path(path);
    let result = write_tmp(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    // Durability of the rename: fsync the parent directory. Failure to do
    // so weakens durability, not atomicity, so it is best-effort.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

fn write_tmp(tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    if fire(FaultSite::SaveDiskFull).is_some() {
        // Simulate ENOSPC discovered at open/first-write time.
        return Err(io::Error::other("faultline: injected disk full"));
    }
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(tmp)?;
    if fire(FaultSite::SaveInterrupt).is_some() {
        // Simulate a kill mid-write: half the payload lands in the tmp
        // file, then the "process" dies with EINTR. The target is never
        // touched because the rename never runs.
        let _ = f.write_all(&bytes[..bytes.len() / 2]);
        return Err(io::Error::new(
            io::ErrorKind::Interrupted,
            "faultline: injected interrupted save",
        ));
    }
    f.write_all(bytes)?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install, quiet, FaultPlan};

    /// This test's own scratch directory, removed on drop unless the
    /// thread is panicking, so a failed test keeps its files.
    struct TmpDir(std::path::PathBuf);

    impl TmpDir {
        fn new(test: &str) -> TmpDir {
            let dir = std::env::temp_dir()
                .join(format!("stod_faultline_io_{}_{test}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TmpDir(dir)
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn writes_and_replaces() {
        let _quiet = quiet();
        let dir = TmpDir::new("writes_and_replaces");
        let path = dir.0.join("a.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer payload");
        assert!(!tmp_path(&path).exists(), "tmp file must not linger");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_interrupt_leaves_previous_file_intact() {
        let dir = TmpDir::new("injected_interrupt");
        let path = dir.0.join("b.bin");
        {
            // The setup write must not see a plan another test installed.
            let _quiet = quiet();
            atomic_write(&path, b"durable").unwrap();
        }
        {
            let _guard = install(FaultPlan::new(1).with(FaultSite::SaveInterrupt, 1.0, 0));
            let err = atomic_write(&path, b"never lands").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"durable");
        assert!(!tmp_path(&path).exists(), "partial tmp must be cleaned up");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_disk_full_leaves_previous_file_intact() {
        let dir = TmpDir::new("injected_disk_full");
        let path = dir.0.join("c.bin");
        {
            // The setup write must not see a plan another test installed.
            let _quiet = quiet();
            atomic_write(&path, b"durable").unwrap();
        }
        {
            let _guard = install(FaultPlan::new(2).with(FaultSite::SaveDiskFull, 1.0, 0));
            let err = atomic_write(&path, b"never lands").unwrap_err();
            assert!(err.to_string().contains("disk full"));
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"durable");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_first_write_leaves_no_file() {
        let dir = TmpDir::new("failed_first_write");
        let path = dir.0.join("d.bin");
        {
            let _guard = install(FaultPlan::new(3).with(FaultSite::SaveInterrupt, 1.0, 0));
            assert!(atomic_write(&path, b"nope").is_err());
        }
        assert!(!path.exists());
        assert!(!tmp_path(&path).exists());
    }
}
