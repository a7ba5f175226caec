//! `--compare A B`: the claim and no-regression rules of the metrics
//! guide, applied to two directories of results (A the parent, B the
//! change), each holding the `results.jsonl` its runs appended to.

use crate::spec::Spec;
use crate::stats::{median, quartiles, spread, verdict};
use std::collections::BTreeMap;
use std::path::Path;
use stod_bench::jsonv::{self, Jv};

/// Key under which a run's count of failed operations is kept beside its
/// metrics.
const FAILED: &str = "failed";

/// workload → metric (and `FAILED`) → seed → values, in run order.
type Runs = BTreeMap<String, BTreeMap<String, BTreeMap<u64, Vec<f64>>>>;

/// Untraced, valid and correct runs of one results directory, and how
/// many untraced runs were left out as invalid or incorrect.
fn load(dir: &Path) -> Result<(Runs, usize), String> {
    let path = dir.join("results.jsonl");
    let src = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (mut runs, mut skipped) = (Runs::new(), 0);
    for line in src.lines().filter(|l| !l.trim().is_empty()) {
        let run = jsonv::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        let flag = |k: &str| run.get(k) == Some(&Jv::Bool(true));
        if flag("trace") {
            continue;
        }
        if !flag("valid") || !flag("correct") {
            skipped += 1;
            continue;
        }
        let workload = run.get("workload").and_then(Jv::as_str).unwrap_or("?");
        let seed = run.get("seed").and_then(Jv::as_u64).unwrap_or(0);
        let Some(Jv::Obj(metrics)) = run.get("metrics") else {
            continue;
        };
        let values = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.as_str(), m.get("value")?.as_f64()?)))
            .chain(run.get(FAILED).and_then(Jv::as_f64).map(|v| (FAILED, v)));
        for (name, v) in values {
            runs.entry(workload.to_string())
                .or_default()
                .entry(name.to_string())
                .or_default()
                .entry(seed)
                .or_default()
                .push(v);
        }
    }
    Ok((runs, skipped))
}

/// Pairs the k-th run of a seed on one side with the k-th run of the same
/// seed on the other; runs without a partner are left out.
fn pairs(a: &BTreeMap<u64, Vec<f64>>, b: &BTreeMap<u64, Vec<f64>>) -> (Vec<f64>, Vec<f64>) {
    a.iter()
        .filter_map(|(seed, va)| b.get(seed).map(|vb| va.iter().zip(vb)))
        .flatten()
        .unzip()
}

/// Prints one row per workload and end-to-end metric; returns whether any
/// metric regressed beyond its bound.
pub fn run(parent: &Path, change: &Path, spec: &Spec) -> Result<bool, String> {
    let ((a, skipped_a), (b, skipped_b)) = (load(parent)?, load(change)?);
    println!("left out as invalid or incorrect: {skipped_a} runs of A, {skipped_b} of B");
    let mut regressed = false;
    println!(
        "{:<12} {:<18} {:>28} {:>28} {:>8} {:>6} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "gain", "bound", "wins"
    );
    for workload in &spec.workloads {
        let (Some(ra), Some(rb)) = (a.get(workload), b.get(workload)) else {
            println!("{workload:<12} (no runs on both sides)");
            continue;
        };
        let failed = match (ra.get(FAILED), rb.get(FAILED)) {
            (Some(fa), Some(fb)) => {
                let (fa, fb) = pairs(fa, fb);
                (median(&fa), median(&fb))
            }
            _ => (0.0, 0.0),
        };
        println!(
            "{workload:<12} failed operations per run, median: A {} B {}",
            failed.0, failed.1
        );
        for m in &spec.end_to_end {
            let (Some(sa), Some(sb)) = (ra.get(&m.name), rb.get(&m.name)) else {
                continue;
            };
            let (va, vb) = pairs(sa, sb);
            if va.is_empty() {
                println!("{workload:<12} {:<18} (no seed run on both sides)", m.name);
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(&va, &vb, failed, m.higher_is_better, bound);
            let sign = if m.higher_is_better { 1.0 } else { -1.0 };
            let all_better = va.iter().all(|x| vb.iter().all(|y| sign * (y - x) > 0.0));
            let word = if v.claim {
                "gain"
            } else if v.regression {
                regressed = true;
                "REGRESSION"
            } else if spread(&va) > bound && !all_better {
                "unresolved"
            } else {
                "within bound"
            };
            let show = |vals: &[f64]| {
                let (q1, _, q3) = quartiles(vals);
                format!("{:.4} [{q1:.4}, {q3:.4}]", median(vals))
            };
            println!(
                "{workload:<12} {:<18} {:>28} {:>28} {:>+7.2}% {:>5.1}% {:>3}/{:<2}  {word}",
                m.name,
                show(&va),
                show(&vb),
                v.gain * 100.0,
                bound * 100.0,
                v.wins,
                v.pairs,
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_pair_by_seed_and_occurrence() {
        let side = |runs: &[(u64, f64)]| {
            let mut m = BTreeMap::<u64, Vec<f64>>::new();
            for &(seed, v) in runs {
                m.entry(seed).or_default().push(v);
            }
            m
        };
        // Seed 2 has no partner; seed 3 ran twice on A, once on B.
        let a = side(&[(1, 10.0), (2, 20.0), (3, 30.0), (3, 31.0)]);
        let b = side(&[(3, 33.0), (1, 11.0), (4, 44.0)]);
        assert_eq!(pairs(&a, &b), (vec![10.0, 30.0], vec![11.0, 33.0]));
    }
}
