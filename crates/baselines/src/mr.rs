//! Multi-task Representation learning (baseline 2 of §VI-A.3), in the
//! spirit of the paper's reference [2] (DeepOD-style multi-task learning
//! for OD travel cost estimation).
//!
//! Region and calendar embeddings (origin, destination, time-of-day slot,
//! day-of-week) feed a shared trunk with two heads: the main histogram
//! head and an auxiliary mean-speed head (the multi-task part). As in the
//! original — and as the paper critiques — the model sees only
//! daily/weekly *patterns*, never the near-history of the last `s`
//! intervals, which is why it cannot react to short-term dynamics.

use crate::{uniform_hist, HistogramPredictor};
use stod_nn::layers::Linear;
use stod_nn::optim::Adam;
use stod_nn::{ParamId, ParamStore, Tape};
use stod_tensor::rng::Rng64;
use stod_tensor::Tensor;
use stod_traffic::{OdDataset, Window};

/// Hyper-parameters of the MR baseline.
#[derive(Debug, Clone, Copy)]
pub struct MrParams {
    /// Embedding width per feature.
    pub embed_dim: usize,
    /// Trunk hidden width.
    pub hidden: usize,
    /// Time-of-day slots (e.g. 24 = hourly).
    pub tod_slots: usize,
    /// Training epochs over the observed cells.
    pub epochs: usize,
    /// Minibatch size in cells.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Weight of the auxiliary mean-speed task.
    pub aux_weight: f32,
}

impl Default for MrParams {
    fn default() -> Self {
        MrParams {
            embed_dim: 8,
            hidden: 32,
            tod_slots: 24,
            epochs: 8,
            batch_size: 256,
            lr: 5e-3,
            aux_weight: 0.3,
        }
    }
}

/// One observed training cell.
struct Cell {
    origin: usize,
    dest: usize,
    tod: usize,
    dow: usize,
    hist: Vec<f32>,
    mean_speed: f32,
}

/// The MR baseline.
pub struct MrModel {
    store: ParamStore,
    params: MrParams,
    k: usize,
    emb_o: ParamId,
    emb_d: ParamId,
    emb_t: ParamId,
    emb_w: ParamId,
    trunk: Linear,
    head_hist: Linear,
    head_speed: Linear,
    intervals_per_day: usize,
}

impl MrModel {
    /// Builds and trains MR on intervals `[0, train_end)`.
    pub fn fit(ds: &OdDataset, train_end: usize, params: MrParams, seed: u64) -> MrModel {
        let n = ds.num_regions();
        let k = ds.spec.num_buckets;
        let mut store = ParamStore::new();
        let mut rng = Rng64::new(seed);
        let e = params.embed_dim;
        let emb_o = store.register("mr.emb_origin", Tensor::randn(&[n, e], 0.1, &mut rng));
        let emb_d = store.register("mr.emb_dest", Tensor::randn(&[n, e], 0.1, &mut rng));
        let emb_t = store.register(
            "mr.emb_tod",
            Tensor::randn(&[params.tod_slots, e], 0.1, &mut rng),
        );
        let emb_w = store.register("mr.emb_dow", Tensor::randn(&[7, e], 0.1, &mut rng));
        let trunk = Linear::new(&mut store, "mr.trunk", 4 * e, params.hidden, &mut rng);
        let head_hist = Linear::new(&mut store, "mr.head_hist", params.hidden, k, &mut rng);
        let head_speed = Linear::new(&mut store, "mr.head_speed", params.hidden, 1, &mut rng);
        let mut model = MrModel {
            store,
            params,
            k,
            emb_o,
            emb_d,
            emb_t,
            emb_w,
            trunk,
            head_hist,
            head_speed,
            intervals_per_day: ds.intervals_per_day,
        };
        model.train(ds, train_end, seed ^ 0x3737);
        model
    }

    fn tod_slot(&self, interval_of_day: usize) -> usize {
        let per = self
            .intervals_per_day
            .div_ceil(self.params.tod_slots)
            .max(1);
        (interval_of_day / per).min(self.params.tod_slots - 1)
    }

    /// Collects observed cells as the training corpus.
    fn cells(&self, ds: &OdDataset, train_end: usize) -> Vec<Cell> {
        let n = ds.num_regions();
        let mut cells = Vec::new();
        for t in 0..train_end.min(ds.num_intervals()) {
            let tod = self.tod_slot(ds.interval_of_day(t));
            let dow = (t / ds.intervals_per_day) % 7;
            for o in 0..n {
                for d in 0..n {
                    if let Some(hist) = ds.tensors[t].histogram(o, d) {
                        let mean_speed = ds.spec.mean_speed(&hist) as f32;
                        cells.push(Cell {
                            origin: o,
                            dest: d,
                            tod,
                            dow,
                            hist,
                            mean_speed,
                        });
                    }
                }
            }
        }
        cells
    }

    fn train(&mut self, ds: &OdDataset, train_end: usize, seed: u64) {
        let cells = self.cells(ds, train_end);
        if cells.is_empty() {
            return;
        }
        let mut rng = Rng64::new(seed);
        let mut adam = Adam::new(self.params.lr);
        let mut order: Vec<usize> = (0..cells.len()).collect();
        for _ in 0..self.params.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(self.params.batch_size) {
                let batch: Vec<&Cell> = chunk.iter().map(|&i| &cells[i]).collect();
                let mut tape = Tape::new();
                let (hist, speed) = self.forward_batch(&mut tape, &batch);
                let b = batch.len();
                let mut target_h = Tensor::zeros(&[b, self.k]);
                let mut target_s = Tensor::zeros(&[b, 1]);
                for (i, c) in batch.iter().enumerate() {
                    for (j, &p) in c.hist.iter().enumerate() {
                        target_h.set(&[i, j], p);
                    }
                    // Normalize speeds to O(1) for a balanced loss.
                    target_s.set(&[i, 0], c.mean_speed / 10.0);
                }
                let ones_h = Tensor::ones(&[b, self.k]);
                let ones_s = Tensor::ones(&[b, 1]);
                let lh = tape.masked_sq_err(hist, &target_h, &ones_h);
                let ls = tape.masked_sq_err(speed, &target_s, &ones_s);
                let ls = tape.scale(ls, self.params.aux_weight);
                let sum = tape.add(lh, ls);
                let loss = tape.scale(sum, 1.0 / b as f32);
                let grads = tape.backward(loss);
                adam.step(&mut self.store, &grads);
            }
        }
    }

    /// Shared trunk forward for a batch of cells; returns (histograms
    /// `[B, K]` softmaxed, speeds `[B, 1]`).
    fn forward_batch(&self, tape: &mut Tape, batch: &[&Cell]) -> (stod_nn::Var, stod_nn::Var) {
        let o_ids: Vec<usize> = batch.iter().map(|c| c.origin).collect();
        let d_ids: Vec<usize> = batch.iter().map(|c| c.dest).collect();
        let t_ids: Vec<usize> = batch.iter().map(|c| c.tod).collect();
        let w_ids: Vec<usize> = batch.iter().map(|c| c.dow).collect();
        let eo = tape.param(&self.store, self.emb_o);
        let ed = tape.param(&self.store, self.emb_d);
        let et = tape.param(&self.store, self.emb_t);
        let ew = tape.param(&self.store, self.emb_w);
        let go = tape.index_select(eo, 0, &o_ids);
        let gd = tape.index_select(ed, 0, &d_ids);
        let gt = tape.index_select(et, 0, &t_ids);
        let gw = tape.index_select(ew, 0, &w_ids);
        let x = tape.concat(&[go, gd, gt, gw], 1);
        let hpre = self.trunk.apply(tape, &self.store, x);
        let h = tape.relu(hpre);
        let logits = self.head_hist.apply(tape, &self.store, h);
        let hist = tape.softmax(logits, 1);
        let speed = self.head_speed.apply(tape, &self.store, h);
        (hist, speed)
    }

    /// Predicts the histogram for `(o, d)` at global interval `t`.
    pub fn predict_at(&self, ds: &OdDataset, o: usize, d: usize, t: usize) -> Vec<f32> {
        let cell = Cell {
            origin: o,
            dest: d,
            tod: self.tod_slot(ds.interval_of_day(t)),
            dow: (t / ds.intervals_per_day) % 7,
            hist: uniform_hist(self.k),
            mean_speed: 0.0,
        };
        let mut tape = Tape::no_grad();
        let (hist, _) = self.forward_batch(&mut tape, &[&cell]);
        let v = tape.value(hist);
        (0..self.k).map(|j| v.at(&[0, j])).collect()
    }

    /// Total weight count (for Table I style reporting).
    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }
}

impl HistogramPredictor for MrModel {
    fn name(&self) -> &str {
        "MR"
    }

    fn predict(&self, ds: &OdDataset, o: usize, d: usize, w: &Window, step: usize) -> Vec<f32> {
        self.predict_at(ds, o, d, w.target_indices()[step])
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
            trips_per_interval: 150.0,
            ..SimConfig::small(41)
        };
        OdDataset::generate(CityModel::small(5), &cfg)
    }

    #[test]
    fn fit_and_predict_distribution() {
        let d = ds();
        let mr = MrModel::fit(
            &d,
            36,
            MrParams {
                epochs: 2,
                ..MrParams::default()
            },
            1,
        );
        let h = mr.predict_at(&d, 0, 1, 40);
        assert_eq!(h.len(), 7);
        let s: f32 = h.iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
        assert!(h.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn captures_time_of_day_patterns() {
        // After training, rush-hour predictions should differ from night
        // predictions for a well-observed pair.
        let d = ds();
        let mr = MrModel::fit(&d, 42, MrParams::default(), 2);
        // Find the densest pair.
        let n = d.num_regions();
        let mut best = (0, 1, 0usize);
        for o in 0..n {
            for dd in 0..n {
                let c = (0..42).filter(|&t| d.tensors[t].observed(o, dd)).count();
                if c > best.2 {
                    best = (o, dd, c);
                }
            }
        }
        let (o, dd, _) = best;
        let ipd = d.intervals_per_day;
        let rush = 42 / ipd * ipd + ipd * 8 / 24;
        let night = 42 / ipd * ipd + ipd * 3 / 24;
        let h_rush = mr.predict_at(&d, o, dd, rush);
        let h_night = mr.predict_at(&d, o, dd, night);
        let diff: f32 = h_rush
            .iter()
            .zip(h_night.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(
            diff > 1e-3,
            "MR learned no time-of-day structure (diff {diff})"
        );
    }

    #[test]
    fn empty_training_is_harmless() {
        let d = ds();
        let mr = MrModel::fit(
            &d,
            0,
            MrParams {
                epochs: 1,
                ..MrParams::default()
            },
            3,
        );
        let h = mr.predict_at(&d, 0, 1, 10);
        assert!((h.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }
}
