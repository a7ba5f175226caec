//! Order statistics and the claim rule, kept free of I/O so they are
//! unit-tested exactly.

/// Nearest-rank value of 1-based `rank` in an ascending sample.
fn at_rank(sorted: &[f64], rank: usize) -> f64 {
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile: the smallest value with at least `q` of the
/// sample at or below it. `None` on an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| at_rank(sorted, (q * sorted.len() as f64).ceil() as usize))
}

/// Highest percentile reported as a tail: p99.9, one request in a
/// thousand. Only `serve_live` takes enough samples for the cap to bind.
pub const TAIL_CAP: f64 = 0.999;

/// The tail of a latency sample: the highest nearest-rank percentile that
/// still has at least ten samples beyond it, capped at `TAIL_CAP`. Returns
/// the value and the quantile it sits at; `None` below eleven samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    let rank = ((TAIL_CAP * n as f64).ceil() as usize).min(n.checked_sub(10)?);
    (rank >= 1).then(|| (at_rank(sorted, rank), rank as f64 / n as f64))
}

/// Median (mean of the middle pair on an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method)
/// computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let (n, m) = (4usize, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread the bounds in `BENCHMARK.json` are checked against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs()
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// How a change compares with its parent on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    pub pairs: usize,
    pub wins: usize,
    /// Change median minus parent median, as a share of the parent median,
    /// signed so that positive is better.
    pub gain: f64,
    /// The claim rule holds: at least ten pairs, the change wins at least
    /// nine tenths of them (ties count for neither), the medians differ in
    /// its favour by more than the parent's inter-quartile distance, and
    /// its runs fail no more operations than the parent's.
    pub claim: bool,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    pub regression: bool,
}

/// Compares runs of a change against runs of its parent. `parent[i]` and
/// `change[i]` are one pair: runs of the same seed, made one after the
/// other with the side that runs first alternating from pair to pair.
/// `failed` holds the median count of failed operations per run of the
/// parent and of the change.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    failed: (f64, f64),
    higher_is_better: bool,
    bound: f64,
) -> Verdict {
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| sign * (*c - *p) > 0.0)
        .count();
    let (p_med, c_med) = (median(parent), median(change));
    let gain = sign * (c_med - p_med) / p_med.abs();
    let (q1, _, q3) = quartiles(parent);
    Verdict {
        pairs,
        wins,
        gain,
        claim: pairs >= 10
            && wins * 10 >= pairs * 9
            && sign * (c_med - p_med) > q3 - q1
            && failed.1 <= failed.0,
        regression: gain < -bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(5.0));
        assert_eq!(percentile(&s, 0.9), Some(9.0));
        assert_eq!(percentile(&s, 0.91), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&(1..=10).map(f64::from).collect::<Vec<_>>()), None);
        for n in [11usize, 35, 100, 999, 1000, 10_000, 10_009, 10_010, 40_000] {
            let s: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (v, q) = tail(&s).unwrap();
            let beyond = s.iter().filter(|&&x| x > v).count();
            assert!(beyond >= 10, "n={n}: only {beyond} samples beyond the tail");
            // The highest such percentile: the rank of the cap unless that
            // leaves fewer than ten beyond.
            let rank = (q * n as f64).round() as usize;
            let cap_rank = (TAIL_CAP * n as f64).ceil() as usize;
            assert!(rank <= cap_rank, "n={n}: tail above the cap");
            assert!(beyond == 10 || rank == cap_rank, "n={n}: not the highest");
        }
        let big: Vec<f64> = (1..=40_000).map(f64::from).collect();
        assert_eq!(tail(&big), Some((39_960.0, 0.999)));
        assert_eq!(tail(&big[..50]), Some((40.0, 0.8)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 5.5, 8.25));
        // statistics.quantiles([7, 1, 3], n=4) == [1.0, 3.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0]), (1.0, 3.0, 7.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&s) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn claim_needs_ten_pairs_nine_wins_a_gap_beyond_the_parent_spread_and_no_more_failures() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        let v = verdict(&parent, &faster, (0.0, 0.0), false, 0.1);
        assert!(v.claim && !v.regression);

        // No gain counts while more operations fail than at the parent.
        assert!(!verdict(&parent, &faster, (0.0, 1.0), false, 0.1).claim);
        assert!(verdict(&parent, &faster, (2.0, 1.0), false, 0.1).claim);
        assert_eq!((v.pairs, v.wins), (10, 10));

        // Nine pairs are too few, however clear the win.
        assert!(!verdict(&parent[..9], &faster[..9], (0.0, 0.0), false, 0.1).claim);

        // Eight wins of ten are not nine tenths.
        let mut mixed = faster.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert!(!verdict(&parent, &mixed, (0.0, 0.0), false, 0.1).claim);

        // Winning every pair by less than the parent's IQR is no claim.
        let nudged: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        let v = verdict(&parent, &nudged, (0.0, 0.0), false, 0.1);
        assert_eq!(v.wins, 10);
        assert!(!v.claim);

        // Direction matters: for a higher-is-better metric the same runs
        // are a regression beyond a 10% bound.
        let v = verdict(&parent, &faster, (0.0, 0.0), true, 0.1);
        assert!(!v.claim && v.regression);
    }
}
