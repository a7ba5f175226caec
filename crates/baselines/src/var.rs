//! Multi-variate Vector Autoregression (baseline 5 of §VI-A.3), "which
//! takes into account the linear correlations among different OD pairs."
//!
//! A full VAR over all `N²·K` series is intractable and badly conditioned
//! under sparseness, so the model is fitted over the `top_pairs` densest
//! OD pairs: their per-interval histograms are forward-filled into a state
//! vector `x_t`, and a lag-`p` ridge VAR `x_{t+1} = Σ_l A_l x_{t−l} + b`
//! is solved via regularized least squares. Pairs outside the selection
//! (and steps where the state cannot be formed) fall back to NH.

use crate::nh::NaiveHistograms;
use crate::HistogramPredictor;
use stod_tensor::linalg::ridge_regression;
use stod_tensor::Tensor;
use stod_traffic::{OdDataset, Window};

/// Hyper-parameters of the VAR baseline.
#[derive(Debug, Clone, Copy)]
pub struct VarParams {
    /// Number of densest pairs modeled jointly.
    pub top_pairs: usize,
    /// Autoregressive order (lags).
    pub lags: usize,
    /// Ridge regularization λ.
    pub ridge: f32,
}

impl Default for VarParams {
    fn default() -> Self {
        VarParams {
            top_pairs: 24,
            lags: 3,
            ridge: 1.0,
        }
    }
}

/// The VAR baseline.
pub struct VarModel {
    k: usize,
    params: VarParams,
    /// Modeled pairs, ordered; `pair_slot[o·n+d]` indexes into them.
    pairs: Vec<(usize, usize)>,
    pair_slot: Vec<Option<usize>>,
    /// Coefficients: `[lags·D + 1, D]` with intercept row, `D = pairs·K`.
    coef: Option<Tensor>,
    /// Per-pair training-mean histograms for forward-filling.
    fill: Vec<Vec<f32>>,
    fallback: NaiveHistograms,
}

impl VarModel {
    /// Fits the VAR on intervals `[0, train_end)`.
    pub fn fit(ds: &OdDataset, train_end: usize, params: VarParams) -> VarModel {
        let n = ds.num_regions();
        let k = ds.spec.num_buckets;
        let fallback = NaiveHistograms::fit(ds, train_end);
        let train_end = train_end.min(ds.num_intervals());

        // Rank pairs by observation count.
        let mut counts = vec![0usize; n * n];
        for t in 0..train_end {
            for o in 0..n {
                for d in 0..n {
                    if ds.tensors[t].observed(o, d) {
                        counts[o * n + d] += 1;
                    }
                }
            }
        }
        let mut ranked: Vec<usize> = (0..n * n).collect();
        ranked.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
        let pairs: Vec<(usize, usize)> = ranked
            .into_iter()
            .take(params.top_pairs)
            .filter(|&i| counts[i] >= params.lags + 2)
            .map(|i| (i / n, i % n))
            .collect();
        let mut pair_slot = vec![None; n * n];
        for (slot, &(o, d)) in pairs.iter().enumerate() {
            pair_slot[o * n + d] = Some(slot);
        }
        let fill: Vec<Vec<f32>> = pairs
            .iter()
            .map(|&(o, d)| fallback.pair_histogram(o, d).to_vec())
            .collect();

        let dim = pairs.len() * k;
        if dim == 0 || train_end <= params.lags + 1 {
            return VarModel {
                k,
                params,
                pairs,
                pair_slot,
                coef: None,
                fill,
                fallback,
            };
        }

        // Forward-filled state sequence over the training range.
        let states = Self::build_states(ds, &pairs, &fill, 0, train_end, k);

        // Design matrix: [x_{t−1} ‖ … ‖ x_{t−p} ‖ 1] → x_t.
        let rows = train_end - params.lags;
        let feat = params.lags * dim + 1;
        let mut x = Tensor::zeros(&[rows, feat]);
        let mut y = Tensor::zeros(&[rows, dim]);
        for r in 0..rows {
            let t = r + params.lags;
            for l in 0..params.lags {
                for (j, &v) in states[t - 1 - l].iter().enumerate() {
                    x.set(&[r, l * dim + j], v);
                }
            }
            x.set(&[r, feat - 1], 1.0);
            for (j, &v) in states[t].iter().enumerate() {
                y.set(&[r, j], v);
            }
        }
        let coef = ridge_regression(&x, &y, params.ridge).ok();
        VarModel {
            k,
            params,
            pairs,
            pair_slot,
            coef,
            fill,
            fallback,
        }
    }

    /// Builds forward-filled state vectors for intervals `[from, to)`.
    fn build_states(
        ds: &OdDataset,
        pairs: &[(usize, usize)],
        fill: &[Vec<f32>],
        from: usize,
        to: usize,
        k: usize,
    ) -> Vec<Vec<f32>> {
        let dim = pairs.len() * k;
        let mut states = Vec::with_capacity(to - from);
        let mut last: Vec<f32> = fill
            .iter()
            .flat_map(|h| h.iter().copied())
            .collect::<Vec<f32>>();
        debug_assert_eq!(last.len(), dim);
        for t in from..to {
            for (slot, &(o, d)) in pairs.iter().enumerate() {
                if let Some(h) = ds.tensors[t].histogram(o, d) {
                    last[slot * k..(slot + 1) * k].copy_from_slice(&h);
                }
            }
            states.push(last.clone());
        }
        states
    }

    /// Number of jointly modeled pairs.
    pub fn num_modeled_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Rolls the VAR forward from the window's input intervals and returns
    /// the full predicted state at forecast step `step`.
    fn predict_state(&self, ds: &OdDataset, w: &Window, step: usize) -> Option<Vec<f32>> {
        let coef = self.coef.as_ref()?;
        let p = self.params.lags;
        let dim = self.pairs.len() * self.k;
        // Build lag states from the window's inputs (never its targets).
        let start = (w.t_end + 1).saturating_sub(p.max(w.s));
        let states = Self::build_states(ds, &self.pairs, &self.fill, start, w.t_end + 1, self.k);
        if states.len() < p {
            return None;
        }
        let mut history: Vec<Vec<f32>> = states;
        for _ in 0..=step {
            let feat = p * dim + 1;
            let mut x = vec![0.0f32; feat];
            for l in 0..p {
                let h = &history[history.len() - 1 - l];
                x[l * dim..(l + 1) * dim].copy_from_slice(h);
            }
            x[feat - 1] = 1.0;
            // x · coef → next state.
            let mut next = vec![0.0f32; dim];
            for (j, nx) in next.iter_mut().enumerate() {
                let mut v = 0.0f64;
                for (i, &xi) in x.iter().enumerate() {
                    if xi != 0.0 {
                        v += xi as f64 * coef.at(&[i, j]) as f64;
                    }
                }
                *nx = v as f32;
            }
            history.push(next);
        }
        history.pop()
    }

    /// The `(o, d)` histogram from its step's predicted `state`: the
    /// pair's slot of the state, clamped at 0 and normalized, or NH's
    /// histogram when the pair is not modeled, there is no state, or the
    /// slot sums to (almost) nothing.
    fn cell_histogram(&self, n: usize, o: usize, d: usize, state: Option<&[f32]>) -> Vec<f32> {
        if let (Some(slot), Some(state)) = (self.pair_slot[o * n + d], state) {
            let mut h: Vec<f32> = state[slot * self.k..(slot + 1) * self.k]
                .iter()
                .map(|&x| x.max(0.0))
                .collect();
            let s: f32 = h.iter().sum();
            if s > 1e-6 {
                for x in &mut h {
                    *x /= s;
                }
                return h;
            }
        }
        self.fallback.pair_histogram(o, d).to_vec()
    }
}

impl HistogramPredictor for VarModel {
    fn name(&self) -> &str {
        "VAR"
    }

    fn predict(&self, ds: &OdDataset, o: usize, d: usize, w: &Window, step: usize) -> Vec<f32> {
        let n = ds.num_regions();
        let state = self.pair_slot[o * n + d].and_then(|_| self.predict_state(ds, w, step));
        self.cell_histogram(n, o, d, state.as_deref())
    }

    /// Rolls the model out once per step, the first time a modeled pair
    /// asks for it, instead of once per cell.
    fn window_forecast<'a>(
        &'a self,
        ds: &'a OdDataset,
        w: &'a Window,
    ) -> Box<dyn FnMut(usize, usize, usize) -> Vec<f32> + 'a> {
        let n = ds.num_regions();
        let mut states: Vec<Option<Option<Vec<f32>>>> = vec![None; w.h];
        Box::new(move |step, o, d| {
            let state = match self.pair_slot[o * n + d] {
                Some(_) => states[step]
                    .get_or_insert_with(|| self.predict_state(ds, w, step))
                    .as_deref(),
                None => None,
            };
            self.cell_histogram(n, o, d, state)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stod_traffic::{CityModel, SimConfig};

    fn ds() -> OdDataset {
        let cfg = SimConfig {
            num_days: 2,
            intervals_per_day: 24,
            trips_per_interval: 200.0,
            ..SimConfig::small(31)
        };
        OdDataset::generate(CityModel::small(5), &cfg)
    }

    #[test]
    fn fit_selects_dense_pairs() {
        let d = ds();
        let var = VarModel::fit(&d, 36, VarParams::default());
        assert!(var.num_modeled_pairs() > 0);
        assert!(var.num_modeled_pairs() <= 24);
        assert!(var.coef.is_some());
    }

    #[test]
    fn predictions_are_distributions() {
        let d = ds();
        let var = VarModel::fit(&d, 36, VarParams::default());
        let w = Window {
            t_end: 40,
            s: 4,
            h: 2,
        };
        for o in 0..5 {
            for dd in 0..5 {
                for step in 0..2 {
                    let h = var.predict(&d, o, dd, &w, step);
                    let s: f32 = h.iter().sum();
                    assert!((s - 1.0).abs() < 1e-4);
                    assert!(h.iter().all(|&x| x >= 0.0));
                }
            }
        }
    }

    #[test]
    fn degenerate_training_falls_back() {
        let d = ds();
        let var = VarModel::fit(
            &d,
            2,
            VarParams {
                lags: 5,
                ..VarParams::default()
            },
        );
        assert!(var.coef.is_none());
        let w = Window {
            t_end: 40,
            s: 3,
            h: 1,
        };
        let h = var.predict(&d, 0, 1, &w, 0);
        assert_eq!(h, var.fallback.pair_histogram(0, 1).to_vec());
    }

    #[test]
    fn unmodeled_pair_uses_fallback() {
        let d = ds();
        let var = VarModel::fit(
            &d,
            36,
            VarParams {
                top_pairs: 1,
                ..VarParams::default()
            },
        );
        // Find a pair that is not the single modeled one.
        let n = d.num_regions();
        let mut other = None;
        for o in 0..n {
            for dd in 0..n {
                if var.pair_slot[o * n + dd].is_none() {
                    other = Some((o, dd));
                }
            }
        }
        let (o, dd) = other.unwrap();
        let w = Window {
            t_end: 40,
            s: 3,
            h: 1,
        };
        assert_eq!(
            var.predict(&d, o, dd, &w, 0),
            var.fallback.pair_histogram(o, dd).to_vec()
        );
    }
}
