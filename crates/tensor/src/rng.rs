//! Deterministic random number generation.
//!
//! All stochastic components of the workspace (weight initialization, trip
//! sampling, dropout masks, …) draw from [`Rng64`], a xoshiro256**
//! generator (Blackman & Vigna) seeded explicitly through splitmix64, so
//! every experiment is reproducible from a single `u64` seed. It is fast
//! and passes BigCrush; it is not cryptographically secure.

/// A seeded random generator with the handful of draws the workspace needs.
pub struct Rng64 {
    /// Raw xoshiro256** state.
    s: [u64; 4],
    /// Cached second value of the Box–Muller pair.
    gauss_spare: Option<f64>,
}

/// The complete state of an [`Rng64`], capturable mid-stream for
/// crash-safe checkpointing: the generator core plus the cached Box–Muller
/// spare. Restoring it resumes the draw sequence bitwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RngState {
    /// Raw xoshiro256** core state.
    pub s: [u64; 4],
    /// Cached second value of the Box–Muller pair, if one is pending.
    pub gauss_spare: Option<f64>,
}

/// One splitmix64 step: the seed expander for the xoshiro256** state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator from an explicit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng64 {
            s: std::array::from_fn(|_| splitmix64(&mut sm)),
            gauss_spare: None,
        }
    }

    /// Captures the full generator state for checkpointing.
    pub fn state(&self) -> RngState {
        RngState {
            s: self.s,
            gauss_spare: self.gauss_spare,
        }
    }

    /// Rebuilds a generator from a captured [`RngState`]; the resumed
    /// stream continues bitwise where the captured one stopped.
    pub fn from_state(state: RngState) -> Rng64 {
        Rng64 {
            s: state.s,
            gauss_spare: state.gauss_spare,
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// subsystem its own stream without coupling their draw counts.
    pub fn fork(&mut self, salt: u64) -> Rng64 {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng64::new(s)
    }

    /// Next raw 64-bit value: one xoshiro256** step.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` with 24 bits of precision.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform integer in `[0, n)`, unbiased by rejection sampling.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_below(0)");
        let span = n as u64;
        // `zone + 1` is the largest multiple of `span` that fits in 64
        // bits; draws above `zone` would favour the low residues.
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return (v % span) as usize;
            }
        }
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Standard normal draw (Box–Muller, cached pair).
    pub fn next_gaussian(&mut self) -> f64 {
        if let Some(v) = self.gauss_spare.take() {
            return v;
        }
        // Box–Muller transform; u1 is kept away from 0 so ln() is finite.
        let u1 = self.next_f64().max(1e-12);
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Poisson draw via inversion for small means and normal approximation
    /// for large means (mean ≥ 30).
    pub fn next_poisson(&mut self, mean: f64) -> usize {
        if mean <= 0.0 {
            return 0;
        }
        if mean >= 30.0 {
            let x = mean + mean.sqrt() * self.next_gaussian();
            return x.max(0.0).round() as usize;
        }
        // Knuth's algorithm.
        let l = (-mean).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= self.next_f64();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // numerically impossible, guards infinite loops
            }
        }
    }

    /// Samples an index from unnormalized non-negative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to a non-positive value.
    pub fn sample_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "sample_weighted on empty weights");
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0,
            "sample_weighted requires positive total weight"
        );
        let mut u = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng64::new(9);
        let mut b = Rng64::new(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng64::new(5);
        // The uniform draws Box–Muller is built on stay in [0, 1), with
        // mean near one half.
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let (x, y) = (rng.next_f64(), rng.next_f32());
            assert!((0.0..1.0).contains(&x) && (0.0..1.0).contains(&y));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "uniform mean {mean}");
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn poisson_mean_matches() {
        let mut rng = Rng64::new(11);
        for &mean in &[0.5, 3.0, 50.0] {
            let n = 20_000;
            let s: usize = (0..n).map(|_| rng.next_poisson(mean)).sum();
            let emp = s as f64 / n as f64;
            assert!(
                (emp - mean).abs() < 0.15 * mean.max(0.5),
                "mean {mean} emp {emp}"
            );
        }
    }

    #[test]
    fn poisson_zero_mean() {
        let mut rng = Rng64::new(1);
        assert_eq!(rng.next_poisson(0.0), 0);
        assert_eq!(rng.next_poisson(-1.0), 0);
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        let mut rng = Rng64::new(13);
        let w = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..8000 {
            counts[rng.sample_weighted(&w)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng64::new(17);
        // The Fisher–Yates draw stays below its bound and reaches every
        // value under it.
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.next_below(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn state_roundtrip_resumes_bitwise_mid_stream() {
        let mut rng = Rng64::new(21);
        // Burn a mixed prefix, leaving a Box–Muller spare pending.
        for _ in 0..17 {
            rng.next_u64();
        }
        rng.next_gaussian();
        let state = rng.state();
        assert!(state.gauss_spare.is_some(), "spare must be pending");
        let mut resumed = Rng64::from_state(state);
        for _ in 0..50 {
            assert_eq!(
                rng.next_gaussian().to_bits(),
                resumed.next_gaussian().to_bits()
            );
            assert_eq!(rng.next_u64(), resumed.next_u64());
            assert_eq!(rng.next_f32().to_bits(), resumed.next_f32().to_bits());
        }
    }

    #[test]
    fn fork_streams_independent() {
        let mut root = Rng64::new(3);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
