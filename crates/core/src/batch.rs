//! Batching: turning dataset windows into the stacked tensors the models
//! consume.

use stod_tensor::{stack, Tensor};
use stod_traffic::{OdDataset, Window};

/// A batch of forecasting samples.
///
/// * `inputs[i]` — the `i`-th historical step, shape `[B, N, N', K]`.
/// * `targets[j]` / `masks[j]` — the `j`-th future step's ground truth
///   (`[B, N, N', K]`) and bucket-broadcast observation mask Ω.
pub struct Batch {
    /// Historical input steps, oldest first (length `s`).
    pub inputs: Vec<Tensor>,
    /// Future target steps (length `h`).
    pub targets: Vec<Tensor>,
    /// Observation masks Ω per target step (length `h`).
    pub masks: Vec<Tensor>,
    /// The windows that produced this batch, in row order.
    pub windows: Vec<Window>,
}

impl Batch {
    /// Batch size `B`.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Total number of observed target cells (for loss normalization).
    pub fn observed_cells(&self) -> f32 {
        self.masks.iter().map(|m| m.sum()).sum::<f32>().max(1.0)
    }
}

/// Builds a batch from a set of windows (all sharing the same `(s, h)`).
///
/// # Panics
/// Panics on an empty window list or mixed `(s, h)` settings.
pub fn make_batch(ds: &OdDataset, windows: &[Window]) -> Batch {
    assert!(!windows.is_empty(), "empty batch");
    let (s, h) = (windows[0].s, windows[0].h);
    assert!(
        windows.iter().all(|w| w.s == s && w.h == h),
        "all windows in a batch must share (s, h)"
    );
    let mut inputs = Vec::with_capacity(s);
    for step in 0..s {
        let slices: Vec<&Tensor> = windows
            .iter()
            .map(|w| &ds.tensors[w.input_indices()[step]].data)
            .collect();
        inputs.push(stack(&slices, 0));
    }
    let mut targets = Vec::with_capacity(h);
    let mut masks = Vec::with_capacity(h);
    let mask_cache: Vec<Tensor> = windows
        .iter()
        .flat_map(|w| w.target_indices())
        .map(|t| ds.tensors[t].mask_over_buckets())
        .collect();
    for step in 0..h {
        let tgt: Vec<&Tensor> = windows
            .iter()
            .map(|w| &ds.tensors[w.target_indices()[step]].data)
            .collect();
        targets.push(stack(&tgt, 0));
        let msk: Vec<&Tensor> = (0..windows.len())
            .map(|b| &mask_cache[b * h + step])
            .collect();
        masks.push(stack(&msk, 0));
    }
    Batch {
        inputs,
        targets,
        masks,
        windows: windows.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stod_traffic::{CityModel, SimConfig};

    fn ds() -> OdDataset {
        let cfg = SimConfig {
            num_days: 1,
            intervals_per_day: 16,
            trips_per_interval: 80.0,
            ..SimConfig::small(2)
        };
        OdDataset::generate(CityModel::small(5), &cfg)
    }

    #[test]
    fn batch_shapes() {
        let d = ds();
        let ws = d.windows(3, 2);
        let b = make_batch(&d, &ws[..4]);
        assert_eq!(b.len(), 4);
        assert_eq!(b.inputs.len(), 3);
        assert_eq!(b.targets.len(), 2);
        assert_eq!(b.inputs[0].dims(), &[4, 5, 5, 7]);
        assert_eq!(b.masks[1].dims(), &[4, 5, 5, 7]);
    }

    #[test]
    fn batch_rows_match_source_tensors() {
        let d = ds();
        let ws = d.windows(2, 1);
        let b = make_batch(&d, &ws[..3]);
        for (row, w) in b.windows.iter().enumerate() {
            let src = &d.tensors[w.input_indices()[1]].data;
            for o in 0..5 {
                for dd in 0..5 {
                    for k in 0..7 {
                        assert_eq!(
                            b.inputs[1].at(&[row, o, dd, k]),
                            src.at(&[o, dd, k]),
                            "row {row} mismatch"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn observed_cells_counts_mask() {
        let d = ds();
        let ws = d.windows(2, 1);
        let b = make_batch(&d, &ws[..2]);
        let expect: f32 = b
            .windows
            .iter()
            .map(|w| d.tensors[w.target_indices()[0]].num_observed() as f32 * 7.0)
            .sum();
        assert_eq!(b.observed_cells(), expect.max(1.0));
    }

    #[test]
    #[should_panic(expected = "share (s, h)")]
    fn mixed_settings_panic() {
        let d = ds();
        let a = d.windows(2, 1)[0];
        let b = d.windows(3, 1)[0];
        make_batch(&d, &[a, b]);
    }
}
