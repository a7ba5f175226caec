//! The shared provenance header stamped into every `results/BENCH_*.json`
//! probe artifact and every run the repository benchmark records.
//!
//! A bench number without its context is a trap: a 4-thread paper-scale
//! run set beside a 1-thread small-scale one shows a 4× "regression"
//! that is really a config mismatch. Every probe and the benchmark
//! therefore stamp the same four fields — git revision, kernel thread
//! count, dataset scale, host cores — through this one helper.

use crate::Scale;
use std::path::Path;
use std::process::Command;

/// Provenance of one bench artifact: where the code came from and how the
/// run was configured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchHeader {
    /// Short git revision of the tree the binary was built from, with
    /// `-dirty` when its tracked files differ from that revision
    /// (`unknown` outside a repo).
    pub rev: String,
    /// Kernel worker threads the run used (`stod_tensor::par::num_threads`).
    pub threads: usize,
    /// Dataset scale (`small`, `paper` or `city`).
    pub scale: &'static str,
    /// Host cores available to the run (context, not compared).
    pub host_cores: usize,
}

impl BenchHeader {
    /// Collects the header for the current process and `scale`.
    pub fn collect(scale: Scale) -> BenchHeader {
        BenchHeader {
            rev: source_rev(Path::new(env!("CARGO_MANIFEST_DIR"))),
            threads: stod_tensor::par::num_threads(),
            scale: match scale {
                Scale::Small => "small",
                Scale::Paper => "paper",
                Scale::City => "city",
            },
            host_cores: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }

    /// The header as JSON object fields (no surrounding braces, no
    /// trailing comma), ready to splice into an artifact's top level.
    pub fn json_fields(&self) -> String {
        format!(
            "\"rev\": \"{}\", \"threads\": {}, \"scale\": \"{}\", \"host_cores\": {}",
            self.rev.replace(['"', '\\'], "?"),
            self.threads,
            self.scale,
            self.host_cores
        )
    }
}

/// The short git revision of the repository holding `dir`, with `-dirty`
/// appended when its tracked files differ from `HEAD`; `unknown` when git
/// or the repo is unavailable (benches must run from an exported tarball
/// too). Given the crate's own source directory, this names the code the
/// binary was built from, whatever directory it runs in.
fn source_rev(dir: &Path) -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            match git(&["status", "--porcelain", "--untracked-files=no"]) {
                Some(changes) if !changes.is_empty() => format!("{rev}-dirty"),
                _ => rev,
            }
        }
        _ => "unknown".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_fields_are_well_formed_json_fragment() {
        let h = BenchHeader::collect(Scale::Small);
        let js = format!("{{{}}}", h.json_fields());
        let v = crate::jsonv::parse(&js).expect("header must parse as JSON");
        assert_eq!(v.get("scale").and_then(|s| s.as_str()), Some("small"));
        assert!(v.get("threads").and_then(|t| t.as_u64()).unwrap() >= 1);
        assert!(v.get("host_cores").and_then(|c| c.as_u64()).unwrap() >= 1);
        let rev = v.get("rev").and_then(|r| r.as_str()).unwrap();
        assert_eq!(rev, source_rev(Path::new(env!("CARGO_MANIFEST_DIR"))));
        let hex = rev.strip_suffix("-dirty").unwrap_or(rev);
        assert!(
            rev == "unknown" || (hex.len() >= 7 && hex.chars().all(|c| c.is_ascii_hexdigit())),
            "rev {rev:?}"
        );
    }

    /// This test's own repository, removed on drop unless the thread is
    /// panicking.
    struct TmpRepo(std::path::PathBuf);

    impl Drop for TmpRepo {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn rev_is_the_source_repositorys_and_marks_uncommitted_changes() {
        let repo =
            TmpRepo(std::env::temp_dir().join(format!("stod_bench_header_{}", std::process::id())));
        let _ = std::fs::remove_dir_all(&repo.0);
        std::fs::create_dir_all(&repo.0).unwrap();
        assert_eq!(source_rev(&repo.0), "unknown", "not a repository yet");
        let git = |args: &[&str]| {
            Command::new("git")
                .arg("-C")
                .arg(&repo.0)
                .args(["-c", "user.name=bench", "-c", "user.email=bench@localhost"])
                .args(["-c", "commit.gpgsign=false"])
                .args(args)
                .status()
                .is_ok_and(|s| s.success())
        };
        if !git(&["init", "-q"]) {
            return; // no git on this host: `unknown` above is all there is
        }
        let file = repo.0.join("tracked.txt");
        std::fs::write(&file, "one").unwrap();
        assert!(git(&["add", "tracked.txt"]) && git(&["commit", "-q", "-m", "one"]));
        let rev = source_rev(&repo.0);
        assert!(
            rev.len() >= 7 && rev.chars().all(|c| c.is_ascii_hexdigit()),
            "{rev:?}"
        );
        std::fs::write(repo.0.join("untracked.txt"), "x").unwrap();
        assert_eq!(source_rev(&repo.0), rev, "untracked files are not changes");
        std::fs::write(&file, "two").unwrap();
        assert_eq!(source_rev(&repo.0), format!("{rev}-dirty"));
    }
}
