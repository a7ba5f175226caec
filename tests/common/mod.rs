//! Helpers shared by the root integration suites.

use std::path::{Path, PathBuf};

/// One test's own scratch directory, `stod_<suite>_<pid>_<name>` under the
/// system temp dir. Dropping it removes the directory, except while the
/// thread unwinds from a panic: a failing test keeps its files as evidence.
pub struct TmpDir(PathBuf);

impl TmpDir {
    /// A fresh, empty directory (a leftover of the same name is cleared).
    pub fn new(suite: &str, name: &str) -> TmpDir {
        let dir = std::env::temp_dir().join(format!("stod_{suite}_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TmpDir(dir)
    }
}

impl std::ops::Deref for TmpDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
