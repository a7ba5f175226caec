//! The shared provenance header stamped into every `results/BENCH_*.json`
//! probe artifact and every run the repository benchmark records.
//!
//! A bench number without its context is a trap: a 4-thread paper-scale
//! run set beside a 1-thread small-scale one shows a 4× "regression"
//! that is really a config mismatch. Every probe and the benchmark
//! therefore stamp the same four fields — git revision, kernel thread
//! count, dataset scale, host cores — through this one helper.

use crate::Scale;

/// Provenance of one bench artifact: where the code came from and how the
/// run was configured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchHeader {
    /// Short git revision of the working tree (`unknown` outside a repo).
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
            rev: git_short_rev(),
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

/// `git rev-parse --short HEAD`, or `unknown` when git or the repo is
/// unavailable (benches must run from an exported tarball too).
fn git_short_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
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
        assert!(!rev.is_empty());
    }
}
