//! `BENCHMARK.json`: the one place that fixes the workload list, the
//! metric names, units, directions and bounds, and the run length. The
//! binary refuses to run when the names it implements and the names the
//! file lists differ in either direction.

use std::path::Path;
use stod_bench::jsonv::{self, Jv};

/// Workloads this binary implements, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["train_paper", "serve_cold", "serve_live"];

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("traffic.generate_s", "s"),
    ("core.model_build_ms", "ms"),
    ("core.forward_ms", "ms"),
    ("core.eval_forward_ms", "ms"),
    ("core.forward_share", "share"),
    ("core.batch_share", "share"),
    ("core.train_loss", "loss"),
    ("nn.backward_share", "share"),
    ("nn.optimizer_share", "share"),
    ("tensor.matmul_calls", "count/op"),
    ("tensor.matmul_elements", "count/op"),
    ("tensor.batched_matmul_calls", "count/op"),
    ("tensor.pool_tasks", "count/op"),
    ("tensor.arena_reuse_ratio", "ratio"),
    ("proc.cpu_ms_per_op", "ms"),
    ("proc.minor_faults_per_op", "count/op"),
    ("proc.sys_cpu_share", "share"),
    ("serve.invocations_per_request", "ratio"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.fallback_share", "share"),
    ("serve.write_share", "share"),
    ("serve.wal_appends_per_s", "1/s"),
    ("serve.wal_fsyncs_per_s", "1/s"),
    ("fleet.result_cache_hit_rate", "share"),
    ("fleet.cache_invalidations", "count"),
    ("fleet.shed_share", "share"),
    ("fleet.degraded_share", "share"),
    ("adapt.cycle_share", "share"),
    ("adapt.promotions", "count"),
    ("harness.trace_overhead", "ratio"),
    ("harness.late_share", "share"),
];

/// Units that measure time; a traced or untraced run must report these
/// as measured, non-zero values on every workload.
pub fn is_time_unit(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us")
}

/// One metric entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load(path: &Path) -> Result<Spec, String> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&src).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(src: &str) -> Result<Spec, String> {
        let root = jsonv::parse(src)?;
        let run_seconds = root
            .get("run_seconds")
            .and_then(Jv::as_u64)
            .filter(|s| (1..=60).contains(s))
            .ok_or("run_seconds must be a whole number from 1 to 60")?;
        let workloads = array(&root, "workloads")?
            .iter()
            .map(|w| field(w, "name").map(str::to_string))
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            array(&root, key)?
                .iter()
                .map(|m| {
                    let better = field(m, "better")?;
                    if better != "higher" && better != "lower" {
                        return Err(format!("{key}: better must be higher or lower"));
                    }
                    Ok(MetricSpec {
                        name: field(m, "name")?.to_string(),
                        unit: field(m, "unit")?.to_string(),
                        higher_is_better: better == "higher",
                        bound: m.get("bound").and_then(Jv::as_f64),
                    })
                })
                .collect()
        };
        let spec = Spec {
            run_seconds,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        };
        if let Some(m) = spec
            .end_to_end
            .iter()
            .find(|m| !m.bound.is_some_and(|b| b > 0.0 && b <= 0.25))
        {
            return Err(format!("{}: bound must be in (0, 0.25]", m.name));
        }
        Ok(spec)
    }

    /// Fails unless the file and this binary name the same workloads and
    /// the same metrics with the same units.
    pub fn check_against_code(&self) -> Result<(), String> {
        same_set(
            "workloads",
            &self.workloads,
            WORKLOADS.iter().map(|w| w.to_string()),
        )?;
        for (key, listed, code) in [
            ("end_to_end", &self.end_to_end, &END_TO_END[..]),
            ("per_layer", &self.per_layer, &PER_LAYER[..]),
        ] {
            same_set(
                key,
                &listed
                    .iter()
                    .map(|m| format!("{} [{}]", m.name, m.unit))
                    .collect::<Vec<_>>(),
                code.iter().map(|(n, u)| format!("{n} [{u}]")),
            )?;
        }
        Ok(())
    }
}

fn array<'a>(root: &'a Jv, key: &str) -> Result<&'a [Jv], String> {
    root.get(key)
        .and_then(Jv::as_arr)
        .ok_or_else(|| format!("missing array {key:?}"))
}

fn field<'a>(obj: &'a Jv, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Jv::as_str)
        .ok_or_else(|| format!("entry without string {key:?}"))
}

fn same_set(
    what: &str,
    listed: &[String],
    code: impl Iterator<Item = String>,
) -> Result<(), String> {
    let code: Vec<String> = code.collect();
    let missing: Vec<&String> = code.iter().filter(|c| !listed.contains(c)).collect();
    let extra: Vec<&String> = listed.iter().filter(|l| !code.contains(l)).collect();
    if missing.is_empty() && extra.is_empty() && listed.len() == code.len() {
        Ok(())
    } else {
        Err(format!(
            "BENCHMARK.json {what} disagree with the code: missing from the file {missing:?}, \
             not implemented {extra:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_for_code() -> String {
        let metric = |(n, u): &(&str, &str), bound: bool| {
            let b = if bound { ", \"bound\": 0.1" } else { "" };
            format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"lower\"{b}}}")
        };
        format!(
            "{{\"command\": [], \"paths\": [], \"run_seconds\": 20, \"workloads\": [{}], \
             \"end_to_end\": [{}], \"per_layer\": [{}]}}",
            WORKLOADS
                .iter()
                .map(|w| format!("{{\"name\": \"{w}\", \"why\": \"x\"}}"))
                .collect::<Vec<_>>()
                .join(", "),
            END_TO_END
                .iter()
                .map(|m| metric(m, true))
                .collect::<Vec<_>>()
                .join(", "),
            PER_LAYER
                .iter()
                .map(|m| metric(m, false))
                .collect::<Vec<_>>()
                .join(", "),
        )
    }

    /// The repository root: the directory above the manifest that holds
    /// `BENCHMARK.json`. As a package of its own the manifest dir is this
    /// directory; as a `stod-bench` binary it is `crates/bench`.
    fn repo_root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|p| p.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the manifest")
    }

    #[test]
    fn the_committed_file_matches_the_code() {
        let spec = Spec::load(&repo_root().join("BENCHMARK.json")).unwrap();
        spec.check_against_code().unwrap();
    }

    /// The settings of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &Path) -> Vec<String> {
        let src = std::fs::read_to_string(manifest).unwrap();
        src.lines()
            .map(|l| l.split('#').next().unwrap_or("").trim())
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty())
            .map(String::from)
            .collect()
    }

    #[test]
    fn the_benchmark_package_builds_with_the_root_release_profile() {
        let root = repo_root();
        let ours = release_profile(&root.join("crates/bench/src/bin/benchmark/Cargo.toml"));
        assert!(!ours.is_empty(), "no [profile.release] in the benchmark");
        assert_eq!(ours, release_profile(&root.join("Cargo.toml")));
    }

    #[test]
    fn name_drift_in_either_direction_is_refused() {
        let good = file_for_code();
        Spec::parse(&good).unwrap().check_against_code().unwrap();
        let renamed = good.replace("\"serve_live\"", "\"serve_hot\"");
        assert!(Spec::parse(&renamed).unwrap().check_against_code().is_err());
        let unit = good.replace("\"unit\": \"1/s\"", "\"unit\": \"req/s\"");
        assert!(Spec::parse(&unit).unwrap().check_against_code().is_err());
        let dropped = good.replace(
            "{\"name\": \"harness.late_share\", \"unit\": \"share\", \"better\": \"lower\"}",
            "",
        );
        assert!(Spec::parse(&dropped.replace(", ]", "]"))
            .is_ok_and(|s| s.check_against_code().is_err()));
        let unbounded = good.replacen("\"bound\": 0.1", "\"bound\": 0.5", 1);
        assert!(Spec::parse(&unbounded).is_err());
    }
}
